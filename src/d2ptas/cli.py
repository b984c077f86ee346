"""Command-line harness: generate and ingest data, run seeded experiments, report JSON.

Exit codes: 0 success, 2 usage/configuration error, 1 runtime or data error.
The report schema is stable: {spec, results: {method: {cost, ratio, seconds}},
properties: [...], seed, version}; everything except the "seconds" fields is
deterministic given the spec and seed.  ``cluster`` and ``seedbench`` set the
PTAS beside the best of as many k-means++/Lloyd restarts, which run as one
lock-step batch (``ptas._kmeanspp_lloyd``).

A subcommand's spec is its parsed arguments except ``--output``, with
``--domain LO:HI`` echoed as the pair ``[lo, hi]``, so the report alone rebuilds
the run: ``run_experiment(report["spec"])`` repeats a ``cluster`` run.  The
library checks the inputs: ``measure.validate_points`` rejects points outside
the measure's domain, and the engine refuses hopeless exhaustive searches.
"""

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .divergences import (
    ItakuraSaito,
    KullbackLeibler,
    Mahalanobis,
    SquaredEuclidean,
    _checked_count,
    centroid_report,
    mu_similarity_report,
    symmetry_report,
    triangle_report,
)
from .errors import ClusteringError, ConfigError, EmptyFile, ParseError, RaggedRows
from .oracle import ORACLE_N_CAP, _gamma, _optimal_partitions, optimal_bruteforce
# bench/tracing.py wraps ``cli.kmeanspp_seed`` and ``cli.lloyd`` by name, so
# both stay importable from here; the baseline runs through _kmeanspp_lloyd
from .ptas import (PtasConfig, _kmeanspp_lloyd, find_k_median, kmeanspp_seed,  # noqa: F401
                   lloyd, parse_strategy)
from .sampler import RngStream

__all__ = [
    "ingest_csv",
    "write_points_csv",
    "generate_planted",
    "build_measure",
    "run_experiment",
    "strip_timing",
    "main",
]

log = logging.getLogger("d2ptas.cli")

# ----------------------------------------------------------------------
# data in / data out
# ----------------------------------------------------------------------

def _parse_row(parts, lineno):
    try:
        return [float(tok) for tok in parts]
    except ValueError:
        bad = next(tok for tok in parts if not _is_number(tok))
        raise ParseError(f"invalid number {bad!r}", line=lineno) from None


def _is_number(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


def ingest_csv(path):
    """The (n, d) float array of one point per row of comma-separated decimals.

    An optional header is detected by a non-numeric first token on the first
    non-blank line.  Row order is preserved.
    """
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        first_content = True
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [tok.strip() for tok in line.split(",")]
            if first_content:
                first_content = False
                if not _is_number(parts[0]):
                    continue  # header
            vals = _parse_row(parts, lineno)
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise RaggedRows(f"row has {len(vals)} columns, expected {width}", line=lineno)
            rows.append(vals)
    if not rows:
        raise EmptyFile(f"no data rows in {path}")
    return np.asarray(rows, dtype=float)


def write_points_csv(path, points, header=None):
    """Write points with 17-significant-digit decimals so floats round-trip exactly."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in points:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def generate_planted(k, per_cluster, dim, separation, sigma, rng, max_attempts=1000):
    """k Gaussian blobs with centers at mutual distance >= separation * sigma.

    Returns (points, labels, centers); labels are the generating component of
    each point, usable as ground truth.  A scale whose points would not all
    be finite is refused.
    """
    k, per_cluster, dim = (
        _checked_count(value, name, refusal="need k >= 1, per_cluster >= 1 and dim >= 1")
        for value, name in ((k, "k"), (per_cluster, "per_cluster"), (dim, "dim")))
    min_dist = separation * sigma
    span = min_dist * max(2.0, float(k))
    if not (separation > 0 and sigma > 0 and min_dist > 0 and np.isfinite(span)):
        raise ConfigError("separation and sigma must be positive, their product nonzero, "
                          "and the span separation * sigma * max(2, k) finite")
    gen = rng.generator
    centers = None
    for _ in range(max_attempts):
        cand = gen.uniform(0.0, span, size=(k, dim))
        # in units of min_dist, so no square overflows: each gap is at most max(2, k)
        diffs = (cand[:, None, :] - cand[None, :, :]) / min_dist
        if k == 1 or (diffs ** 2).sum(axis=-1)[np.triu_indices(k, 1)].min() >= 1.0:
            centers = cand
            break
    if centers is None:
        raise ConfigError(f"could not place {k} centers {min_dist:g} apart in {max_attempts} attempts")
    labels = np.repeat(np.arange(k), per_cluster)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        points = centers[labels] + sigma * gen.standard_normal(size=(k * per_cluster, dim))
    if not np.all(np.isfinite(points)):
        raise ConfigError(f"sigma={sigma:g} with separation={separation:g} overflows "
                          f"the points' coordinates")
    return points, labels, centers


# ----------------------------------------------------------------------
# experiment plumbing
# ----------------------------------------------------------------------

def parse_domain(text):
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError as exc:
        raise ConfigError(f"domain must look like LO:HI, got {text!r}") from exc


def build_measure(name, mu=None, domain=None):
    """Measure from its CLI spelling: sqeuclid | mahalanobis:FILE | kl | itakura-saito.

    ``domain`` is the (lo, hi) box of the generator measures.
    """
    box = domain if domain is not None else (0.1, 0.9)
    if name == "sqeuclid":
        return SquaredEuclidean()
    if name.startswith("mahalanobis:"):
        matrix_path = name.split(":", 1)[1]
        if not matrix_path:
            raise ConfigError("mahalanobis needs a matrix file: --measure mahalanobis:FILE")
        matrix = ingest_csv(matrix_path)
        return Mahalanobis(matrix)
    if name == "mahalanobis":
        raise ConfigError("mahalanobis needs a matrix file: --measure mahalanobis:FILE")
    if name == "kl":
        return KullbackLeibler(box=box, mu=mu)
    if name == "itakura-saito":
        return ItakuraSaito(box=box, mu=mu)
    raise ConfigError(f"unknown measure {name!r}")


def _measure(spec):
    """The measure a spec names, with its ``mu`` and ``domain``."""
    return build_measure(spec["measure"], mu=spec.get("mu"), domain=spec.get("domain"))


def _spec(args):
    """A subcommand's spec: its parsed arguments but ``--output``, the domain as [lo, hi]."""
    spec = {key: value for key, value in vars(args).items() if key != "output"}
    if spec.get("domain") is not None:
        spec["domain"] = list(parse_domain(spec["domain"]))
    return spec


def _add_ratios(results):
    """Set each entry's "ratio": its cost over the best cost in ``results``.

    With a zero best cost, a zero-cost entry gets 1.0 and any other entry None.
    """
    best = min(entry["cost"] for entry in results.values())
    for entry in results.values():
        if best > 0.0:
            entry["ratio"] = entry["cost"] / best
        else:
            entry["ratio"] = 1.0 if entry["cost"] == 0.0 else None
    return results


def _report(spec, results, properties=()):
    """The one report schema every subcommand emits."""
    return {
        "spec": {key: spec[key] for key in sorted(spec)},
        "results": results,
        "properties": [rep.to_dict() for rep in properties],
        "seed": int(spec.get("seed", 0)),
        "version": __version__,
    }


def run_experiment(spec):
    """Execute a clustering experiment described by a plain spec dict.

    The PTAS is compared with the best of as many k-means++/Lloyd runs as it
    has restarts, all run as one lock-step batch, and with the exact oracle,
    at any k, on inputs of at most ``ORACLE_N_CAP`` points.  The spec echoes
    into the report, so a run is reproducible from the report alone (plus the
    package version).
    """
    return _report(spec, _experiment(spec, _measure(spec), ingest_csv(spec["input"])))


def _experiment(spec, measure, points, oracle=None):
    """The results of ``run_experiment(spec)`` on the already loaded ``points``.

    ``oracle`` is the "oracle" entry of an earlier call on the same points and
    k; it is reused, at zero seconds, instead of solving the same optimum again.
    """
    strategy = spec.get("strategy")
    config = PtasConfig(k=spec["k"], epsilon=spec.get("epsilon", 0.5),
                        restarts=spec.get("restarts"),
                        subset_strategy=parse_strategy(strategy) if strategy else None,
                        scale_preset=spec.get("preset", "desk"))
    rng = RngStream(int(spec.get("seed", 0)))
    results = {}

    t0 = time.perf_counter()
    ptas_result = find_k_median(points, measure, config, rng.derive(1))
    results["ptas"] = {"cost": ptas_result.cost, "seconds": time.perf_counter() - t0}

    t0 = time.perf_counter()
    baseline_rng = rng.derive(2)
    costs = _kmeanspp_lloyd(points, measure, config.k, [
        baseline_rng.derive(r) for r in range(ptas_result.meta["config"]["restarts"])])
    results["kmeanspp_lloyd"] = {"cost": min(costs), "seconds": time.perf_counter() - t0}

    if oracle is not None:
        results["oracle"] = {"cost": oracle["cost"], "seconds": 0.0}
    elif len(points) <= ORACLE_N_CAP:
        t0 = time.perf_counter()
        oracle_result = optimal_bruteforce(points, config.k, measure)
        results["oracle"] = {"cost": oracle_result.optimal_cost, "seconds": time.perf_counter() - t0}

    return _add_ratios(results)


def strip_timing(obj):
    """Copy of a report with every 'seconds' field removed (for reproducibility diffs)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def _emit(report, output):
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_cluster(spec, output):
    report = run_experiment(spec)
    _emit(report, output)
    print(f"{'method':<16}{'cost':>16}{'ratio':>10}{'seconds':>10}")
    for method, entry in report["results"].items():
        ratio = "n/a" if entry["ratio"] is None else f"{entry['ratio']:.4f}"
        print(f"{method:<16}{entry['cost']:>16.6g}{ratio:>10}{entry['seconds']:>10.3f}")
    if output:
        print(f"report written to {output}")
    return 0


def _cmd_oracle(spec, output):
    measure = _measure(spec)
    points = ingest_csv(spec["input"])
    k = spec["k"]
    t0 = time.perf_counter()
    *fewer, result = _optimal_partitions(points, (k - 1, k) if k >= 2 else (k,), measure)
    entry = {
        "cost": result.optimal_cost,
        "seconds": time.perf_counter() - t0,
        "partition": result.optimal_partition.tolist(),
        "assignments_examined": result.assignments_examined,
    }
    if fewer:
        entry["delta_km1"] = fewer[0].optimal_cost
        gamma = _gamma(entry["delta_km1"], result.optimal_cost)
        entry["gamma"] = gamma if np.isfinite(gamma) else "inf"
    _emit(_report(spec, _add_ratios({"oracle": entry})), output)
    print(f"optimal cost: {result.optimal_cost:.12g}")
    print(f"partition: {result.optimal_partition.tolist()}")
    if "gamma" in entry:
        print(f"gamma: {entry['gamma']}")
    return 0


def _cmd_properties(spec, output):
    measure = _measure(spec)
    rng = RngStream(spec["seed"])
    trials = spec["trials"]
    dim = measure.fixed_dim if measure.fixed_dim is not None else spec["dim"]
    centroid_tol = 1e-9 if measure.beta == 1.0 else 1e-8
    reports = [
        symmetry_report(measure, dim, trials, rng.derive(1)),
        triangle_report(measure, dim, trials, rng.derive(2)),
        centroid_report(measure, rng.derive(3), instances=100, tolerance=centroid_tol),
        mu_similarity_report(measure, dim, min(trials, 10_000), rng.derive(4)),
    ]
    # the spec echoes the dimension that ran, a fixed-dimension measure's own
    _emit(_report({**spec, "dim": dim}, {}, properties=reports), output)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.property}: violations {rep.violations}/{rep.trials}, "
              f"worst ratio {rep.worst_ratio:.6g}")
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_seedbench(spec, output):
    """``cluster`` at seeds seed, seed+1, ...: per method, the mean and per-seed costs.

    The input is read once and the exact oracle, on inputs of at most
    ``ORACLE_N_CAP`` points, solved once; its seconds count once in the
    oracle's total.
    """
    trials = _checked_count(spec["trials"], "trials", refusal="seedbench needs at least one trial")
    measure, points = _measure(spec), ingest_csv(spec["input"])
    runs = []
    for s in range(trials):
        oracle = runs[0].get("oracle") if runs else None  # same points and k at every seed
        runs.append(_experiment({**spec, "seed": spec["seed"] + s}, measure, points, oracle))
    results = {}
    for method in runs[0]:
        costs = [float(run[method]["cost"]) for run in runs]
        results[method] = {
            "cost": float(np.mean(costs)),
            "seconds": sum(run[method]["seconds"] for run in runs),
            "per_seed_costs": costs,
        }
    wins = sum(run["ptas"]["cost"] <= run["kmeanspp_lloyd"]["cost"] for run in runs)
    _emit(_report(spec, _add_ratios(results)), output)
    print(f"seeds: {trials}")
    print(f"mean cost  ptas: {results['ptas']['cost']:.6g}   "
          f"kmeanspp+lloyd: {results['kmeanspp_lloyd']['cost']:.6g}")
    print(f"ptas wins or ties on {wins}/{trials} seeds")
    return 0


def _cmd_generate(spec, output):
    rng = RngStream(spec["seed"])
    points, labels, centers = generate_planted(
        spec["k"], spec["per_cluster"], spec["dim"], spec["separation"], spec["sigma"], rng)
    stem, ext = os.path.splitext(output)
    labels_path = f"{stem}.labels{ext or '.csv'}"
    centers_path = f"{stem}.centers{ext or '.csv'}"
    write_points_csv(output, points)
    write_points_csv(labels_path, labels.reshape(-1, 1))
    write_points_csv(centers_path, centers)
    print(f"wrote {len(points)} points to {output}")
    print(f"wrote labels to {labels_path}")
    print(f"wrote centers to {centers_path}")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_measure_flags(sub):
    sub.add_argument("--measure", default="sqeuclid",
                     help="sqeuclid | mahalanobis:FILE | kl | itakura-saito")
    sub.add_argument("--mu", type=float, default=None,
                     help="override the declared similarity floor")
    sub.add_argument("--domain", default=None, metavar="LO:HI",
                     help="coordinate box for the generator measures")


def _add_algo_flags(sub):
    sub.add_argument("--k", type=int, required=True, help="number of centers")
    sub.add_argument("--epsilon", type=float, default=0.5,
                     help="target accuracy in (0, 1/2]; it sets N and M only under --preset "
                          "paper (the desk constants are fixed, so it has no effect there)")
    sub.add_argument("--preset", choices=("desk", "paper"), default="desk",
                     help="constant scaling: desk-sized or full analysis scale")
    sub.add_argument("--strategy", default=None,
                     help="subset selection: exhaustive | random:R")
    sub.add_argument("--restarts", type=int, default=None, help="independent restarts")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="d2ptas",
        description="Cost-weighted sampling clustering experiments with exact small-scale oracles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    cluster = commands.add_parser("cluster", help="run the clustering algorithm plus baselines")
    cluster.add_argument("--input", required=True, help="points CSV")
    cluster.add_argument("--output", default=None, help="report JSON path")
    cluster.add_argument("--seed", type=int, default=0)
    _add_algo_flags(cluster)
    _add_measure_flags(cluster)

    oracle = commands.add_parser("oracle", help="exact optimum by subset DP (small n only)")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--output", default=None)
    oracle.add_argument("--k", type=int, required=True)
    oracle.add_argument("--seed", type=int, default=0)
    _add_measure_flags(oracle)

    props = commands.add_parser("properties", help="randomized structural property trials")
    props.add_argument("--output", default=None)
    props.add_argument("--trials", type=int, default=100_000)
    props.add_argument("--dim", type=int, default=2)
    props.add_argument("--seed", type=int, default=0)
    _add_measure_flags(props)

    bench = commands.add_parser("seedbench", help="per-seed cost comparison across many seeds")
    bench.add_argument("--input", required=True)
    bench.add_argument("--output", default=None)
    bench.add_argument("--trials", type=int, default=20, help="number of seeds to benchmark")
    bench.add_argument("--seed", type=int, default=0, help="first seed")
    _add_algo_flags(bench)
    _add_measure_flags(bench)

    gen = commands.add_parser("generate", help="planted Gaussian mixture generator")
    gen.add_argument("--output", required=True, help="points CSV path")
    gen.add_argument("--k", type=int, default=3, help="number of components")
    gen.add_argument("--per-cluster", type=int, default=100, help="points per component")
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--separation", type=float, default=10.0,
                     help="minimum center distance in sigma units")
    gen.add_argument("--sigma", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)

    return parser


_HANDLERS = {
    "cluster": _cmd_cluster,
    "oracle": _cmd_oracle,
    "properties": _cmd_properties,
    "seedbench": _cmd_seedbench,
    "generate": _cmd_generate,
}


def main(argv=None):
    level = os.environ.get("D2PTAS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = _HANDLERS[args.command](_spec(args), args.output)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except (ClusteringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    log.info("%s: exit code %d after %.3f s", args.command, code, time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
