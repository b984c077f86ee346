"""Command-line harness: generate and ingest data, run seeded experiments, report JSON.

Exit codes: 0 success, 2 usage/configuration error, 1 runtime or data error.
The report schema is stable: {spec, results: {method: {cost, ratio, seconds}},
properties: [...], seed, version}; everything except the "seconds" fields is
deterministic given the spec and seed.
"""

import argparse
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .divergences import (
    Dataset,
    ItakuraSaito,
    KullbackLeibler,
    Mahalanobis,
    SquaredEuclidean,
    centroid_report,
    mu_similarity_report,
    symmetry_report,
    triangle_report,
)
from .errors import ClusteringError, ConfigError, EmptyFile, ParseError, RaggedRows
from .oracle import ORACLE_K_CAP, ORACLE_N_CAP, _gamma, lloyd, optimal_bruteforce
from .ptas import PtasConfig, find_k_median, kmeanspp_seed, parse_strategy
from .sampler import RngStream

__all__ = [
    "PaperScaleRefusal",
    "ingest_csv",
    "write_points_csv",
    "generate_planted",
    "build_measure",
    "run_experiment",
    "strip_timing",
    "main",
]

log = logging.getLogger("d2ptas.cli")

ENUMERATION_BUDGET = 10 ** 9


class PaperScaleRefusal(ConfigError):
    """Raised instead of attempting an astronomically large enumeration."""


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


def ingest_csv(path, domain="unrestricted"):
    """Read one point per row of comma-separated decimals; optional header line.

    A header is detected by a non-numeric first token on the first non-blank
    line.  Row order is preserved.
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
    return Dataset(np.asarray(rows, dtype=float), domain=domain)


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
    each point, usable as ground truth.
    """
    if k < 1 or per_cluster < 1:
        raise ConfigError("need k >= 1 and per_cluster >= 1")
    if separation <= 0 or sigma <= 0:
        raise ConfigError("separation and sigma must be positive")
    gen = rng.generator
    span = separation * sigma * max(2.0, float(k))
    min_dist = separation * sigma
    centers = None
    for _ in range(max_attempts):
        cand = gen.uniform(0.0, span, size=(k, dim))
        diffs = cand[:, None, :] - cand[None, :, :]
        dists = np.sqrt((diffs ** 2).sum(axis=-1))
        if k == 1 or dists[np.triu_indices(k, 1)].min() >= min_dist:
            centers = cand
            break
    if centers is None:
        raise ConfigError(f"could not place {k} centers {min_dist:g} apart in {max_attempts} attempts")
    labels = np.repeat(np.arange(k), per_cluster)
    points = centers[labels] + sigma * gen.standard_normal(size=(k * per_cluster, dim))
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
    """Measure from its CLI spelling: sqeuclid | mahalanobis:FILE | kl | itakura-saito."""
    box = domain if domain is not None else (0.1, 0.9)
    if name == "sqeuclid":
        return SquaredEuclidean()
    if name.startswith("mahalanobis:"):
        matrix_path = name.split(":", 1)[1]
        if not matrix_path:
            raise ConfigError("mahalanobis needs a matrix file: --measure mahalanobis:FILE")
        matrix = ingest_csv(matrix_path).points
        return Mahalanobis(matrix)
    if name == "mahalanobis":
        raise ConfigError("mahalanobis needs a matrix file: --measure mahalanobis:FILE")
    if name == "kl":
        return KullbackLeibler(box=box, mu=mu)
    if name == "itakura-saito":
        return ItakuraSaito(box=box, mu=mu)
    raise ConfigError(f"unknown measure {name!r}")


def _log_comb(n, m):
    """log10 of C(n, m) without forming the integer."""
    return (math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)) / math.log(10.0)


def check_enumeration_budget(cfg):
    """Refuse a paper-scale run whose per-iteration subset count is hopeless."""
    n_, m_ = cfg.sample_size_N, cfg.subset_size_M
    log_count = _log_comb(n_, m_)
    if log_count <= 18:
        count = math.comb(n_, m_)
        if count <= ENUMERATION_BUDGET:
            return
        shown = f"{count}"
    else:
        shown = f"about 10^{log_count:.0f}"
    raise PaperScaleRefusal(
        f"refusing paper-scale enumeration: N={n_}, M={m_}, C(N,M) = {shown} "
        f"subsets per iteration exceeds the {ENUMERATION_BUDGET} budget"
    )


def _resolved_config(measure, k, epsilon, restarts, strategy, preset):
    """Resolved PtasConfig from CLI-style fields; refuses hopeless paper-scale runs."""
    cfg = PtasConfig(
        k=k,
        epsilon=epsilon,
        restarts=restarts,
        subset_strategy=parse_strategy(strategy) if strategy else None,
        scale_preset=preset,
    ).resolved(measure)
    if cfg.scale_preset == "paper":
        check_enumeration_budget(cfg)
    return cfg


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


def _report(spec, results, seed, properties=()):
    """The one report schema every subcommand emits."""
    return {
        "spec": {key: spec[key] for key in sorted(spec)},
        "results": results,
        "properties": [rep.to_dict() for rep in properties],
        "seed": seed,
        "version": __version__,
    }


def run_experiment(spec):
    """Execute a clustering experiment described by a plain spec dict.

    The spec echoes into the report, so a run is reproducible from the
    report alone (plus the package version).
    """
    measure = build_measure(spec["measure"], mu=spec.get("mu"), domain=spec.get("domain"))
    data = ingest_csv(spec["input"], domain=measure.domain)
    cfg = _resolved_config(measure, spec["k"], spec.get("epsilon", 0.5), spec.get("restarts"),
                           spec.get("strategy"), spec.get("preset", "desk"))

    seed = int(spec.get("seed", 0))
    threads = spec.get("threads")
    rng = RngStream(seed)
    results = {}

    t0 = time.perf_counter()
    ptas_result = find_k_median(data.points, measure, cfg, rng.derive(1), threads=threads)
    results["ptas"] = {"cost": ptas_result.cost, "seconds": time.perf_counter() - t0}

    t0 = time.perf_counter()
    baseline_rng = rng.derive(2)
    best_baseline = None
    for r in range(cfg.restarts):
        seeded = kmeanspp_seed(data.points, measure, cfg.k, baseline_rng.derive(r))
        refined = lloyd(data.points, measure, seeded.centers)
        if best_baseline is None or refined.cost < best_baseline:
            best_baseline = refined.cost
    results["kmeanspp_lloyd"] = {"cost": best_baseline, "seconds": time.perf_counter() - t0}

    if data.n <= ORACLE_N_CAP and cfg.k <= ORACLE_K_CAP:
        t0 = time.perf_counter()
        oracle_result = optimal_bruteforce(data.points, cfg.k, measure)
        results["oracle"] = {"cost": oracle_result.optimal_cost, "seconds": time.perf_counter() - t0}

    return _report(spec, _add_ratios(results), seed)


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

def _cmd_cluster(args):
    spec = {
        "command": "cluster",
        "input": args.input,
        "k": args.k,
        "epsilon": args.epsilon,
        "preset": args.preset,
        "strategy": args.strategy,
        "restarts": args.restarts,
        "measure": args.measure,
        "mu": args.mu,
        "domain": parse_domain(args.domain) if args.domain else None,
        "seed": args.seed,
        "threads": args.threads,
    }
    report = run_experiment(spec)
    _emit(report, args.output)
    print(f"{'method':<16}{'cost':>16}{'ratio':>10}{'seconds':>10}")
    for method, entry in report["results"].items():
        ratio = "n/a" if entry["ratio"] is None else f"{entry['ratio']:.4f}"
        print(f"{method:<16}{entry['cost']:>16.6g}{ratio:>10}{entry['seconds']:>10.3f}")
    if args.output:
        print(f"report written to {args.output}")
    return 0


def _measure_from_args(args):
    domain = parse_domain(args.domain) if args.domain else None
    return build_measure(args.measure, mu=args.mu, domain=domain)


def _cmd_oracle(args):
    measure = _measure_from_args(args)
    data = ingest_csv(args.input, domain=measure.domain)
    t0 = time.perf_counter()
    result = optimal_bruteforce(data.points, args.k, measure)
    entry = {
        "cost": result.optimal_cost,
        "seconds": time.perf_counter() - t0,
        "partition": result.optimal_partition.tolist(),
        "assignments_examined": result.assignments_examined,
    }
    if args.k >= 2:
        entry["delta_km1"] = optimal_bruteforce(data.points, args.k - 1, measure).optimal_cost
        gamma = _gamma(entry["delta_km1"], result.optimal_cost)
        entry["gamma"] = gamma if np.isfinite(gamma) else "inf"
    spec = {"command": "oracle", "input": args.input, "k": args.k,
            "measure": args.measure, "mu": args.mu, "domain": args.domain}
    _emit(_report(spec, _add_ratios({"oracle": entry}), args.seed), args.output)
    print(f"optimal cost: {result.optimal_cost:.12g}")
    print(f"partition: {result.optimal_partition.tolist()}")
    if "gamma" in entry:
        print(f"gamma: {entry['gamma']}")
    return 0


def _cmd_properties(args):
    measure = _measure_from_args(args)
    rng = RngStream(args.seed)
    dim = measure.fixed_dim if measure.fixed_dim is not None else args.dim
    centroid_tol = 1e-9 if measure.beta == 1.0 else 1e-8
    reports = [
        symmetry_report(measure, dim, args.trials, rng.derive(1)),
        triangle_report(measure, dim, args.trials, rng.derive(2)),
        centroid_report(measure, rng.derive(3), instances=100, tolerance=centroid_tol),
        mu_similarity_report(measure, dim, min(args.trials, 10_000), rng.derive(4)),
    ]
    spec = {"command": "properties", "measure": args.measure, "mu": args.mu,
            "domain": args.domain, "trials": args.trials, "dim": dim}
    _emit(_report(spec, {}, args.seed, properties=reports), args.output)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.property}: violations {rep.violations}/{rep.trials}, "
              f"worst ratio {rep.worst_ratio:.6g}")
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_seedbench(args):
    measure = _measure_from_args(args)
    data = ingest_csv(args.input, domain=measure.domain)
    cfg = _resolved_config(measure, args.k, args.epsilon, args.restarts, args.strategy,
                           args.preset)

    ptas_costs, baseline_costs = [], []
    t0 = time.perf_counter()
    for s in range(args.trials):
        rng = RngStream(args.seed + s)
        ptas_costs.append(find_k_median(data.points, measure, cfg, rng.derive(1),
                                        threads=args.threads).cost)
        seeded = kmeanspp_seed(data.points, measure, cfg.k, rng.derive(2))
        baseline_costs.append(lloyd(data.points, measure, seeded.centers).cost)
    elapsed = time.perf_counter() - t0

    results = {}
    for method, costs in (("ptas", ptas_costs), ("kmeanspp_lloyd", baseline_costs)):
        results[method] = {
            "cost": float(np.mean(costs)),
            "seconds": elapsed,
            "per_seed_costs": [float(c) for c in costs],
        }
    wins = sum(p <= b for p, b in zip(ptas_costs, baseline_costs))

    spec = {"command": "seedbench", "input": args.input, "k": args.k,
            "epsilon": args.epsilon, "preset": args.preset, "strategy": args.strategy,
            "restarts": args.restarts, "measure": args.measure, "mu": args.mu,
            "domain": args.domain, "trials": args.trials}
    _emit(_report(spec, _add_ratios(results), args.seed), args.output)
    print(f"seeds: {args.trials}")
    print(f"mean cost  ptas: {results['ptas']['cost']:.6g}   "
          f"kmeanspp+lloyd: {results['kmeanspp_lloyd']['cost']:.6g}")
    print(f"ptas wins or ties on {wins}/{args.trials} seeds")
    return 0


def _cmd_generate(args):
    rng = RngStream(args.seed)
    points, labels, centers = generate_planted(
        args.k, args.per_cluster, args.dim, args.separation, args.sigma, rng)
    stem, ext = os.path.splitext(args.output)
    labels_path = f"{stem}.labels{ext or '.csv'}"
    centers_path = f"{stem}.centers{ext or '.csv'}"
    write_points_csv(args.output, points)
    write_points_csv(labels_path, labels.reshape(-1, 1))
    write_points_csv(centers_path, centers)
    print(f"wrote {len(points)} points to {args.output}")
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
    sub.add_argument("--threads", type=int, default=None, help="parallel restart workers")


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
        code = _HANDLERS[args.command](args)
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
