"""Benchmark workloads: input generation, the op under test, and output checks.

Every input is generated here with numpy from the workload seed, so a change to
the library's own generators (``d2ptas.cli.generate_planted``) cannot shift
what is measured.  The library only ever receives arrays and CSV files.

A workload holds a fixed list of instances.  One *request* runs the caller's
ops on one instance; the harness runs whole passes over the list, so a faster
commit measures the same instance mix as a slower one.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from d2ptas import (
    Exhaustive,
    KullbackLeibler,
    PtasConfig,
    RngStream,
    SquaredEuclidean,
    cluster_cost,
    find_k_median,
    optimal_bruteforce,
)
from d2ptas.cli import run_experiment, strip_timing

REL_TOL = 1e-9


def _generator(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def planted_mixture(gen, k, per_cluster, dim, sigma, separation, lo, hi):
    """k Gaussian blobs whose centers lie uniform in [lo, hi]^dim, >= separation*sigma apart."""
    for _ in range(1000):
        centers = gen.uniform(lo, hi, size=(k, dim))
        gaps = np.sqrt(((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1))
        if k == 1 or gaps[np.triu_indices(k, 1)].min() >= separation * sigma:
            break
    else:
        raise RuntimeError(f"could not place {k} centers {separation * sigma:g} apart")
    labels = np.repeat(np.arange(k), per_cluster)
    points = centers[labels] + sigma * gen.standard_normal(size=(k * per_cluster, dim))
    return points, labels


def planted_sq_cost(points, labels):
    """Squared-Euclidean cost of the planted partition, each cluster at its own mean."""
    return float(sum(((points[labels == j] - points[labels == j].mean(axis=0)) ** 2).sum()
                     for j in np.unique(labels)))


def planted_kl_cost(points, labels):
    """Generalized-KL cost of the planted partition, each cluster at its own mean."""
    total = 0.0
    for j in np.unique(labels):
        p = points[labels == j]
        q = p.mean(axis=0)
        total += float((p * np.log(p / q) - p + q).sum())
    return total


def write_csv(path, points):
    """17 significant digits, so the library parses back the exact arrays."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in points:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def direct(name, fn, *args, **kwargs):
    """Untraced call; the traced run swaps in ``Tracer.call`` with the same signature."""
    return fn(*args, **kwargs)


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _check_solution(result, measure, points, k):
    """Problems with a find_k_median result, as a list of strings (empty = correct)."""
    problems = []
    cost = result.cost
    if not (math.isfinite(cost) and cost >= 0.0):
        problems.append(f"cost {cost!r} is not finite and non-negative")
        return problems
    centers = np.asarray(result.centers)
    labels = np.asarray(result.assignment)
    if centers.shape != (k, points.shape[1]):
        problems.append(f"centers have shape {centers.shape}")
        return problems
    if labels.shape != (points.shape[0],) or labels.min() < 0 or labels.max() >= k:
        problems.append("assignment has the wrong shape or labels out of range")
    recomputed = cluster_cost(measure, points, centers)
    if not _close(cost, recomputed):
        problems.append(f"reported cost {cost!r} != cluster_cost {recomputed!r}")
    return problems


def _same_solution(a, b):
    """Problems if two find_k_median results are not bit-identical."""
    problems = []
    if a.cost != b.cost:
        problems.append(f"cost {a.cost!r} != {b.cost!r}")
    if not np.array_equal(a.centers, b.centers):
        problems.append("centers differ")
    if not np.array_equal(a.assignment, b.assignment):
        problems.append("assignment differs")
    return problems


@dataclass
class Instance:
    index: int
    points: np.ndarray
    reference: float = None  # planted-partition cost (desk workloads)
    rng_seed: int = 0        # RngStream seed of the solve
    spec: dict = None        # run_experiment spec (desk_small_kl)


class _FindKMedian:
    """Shared by the workloads whose request calls find_k_median directly."""

    measure_classes = (SquaredEuclidean,)

    def solve(self, inst, call=direct, threads=None):
        kwargs = {} if threads is None else {"threads": threads}
        return call("ptas.find_k_median", find_k_median, inst.points, self.measure,
                    self.config, RngStream(inst.rng_seed), **kwargs)

    def spot_checks(self, inst, out, nproc):
        first = out["result"]
        return {
            "rerun_same_seed": _same_solution(first, self.solve(inst)),
            "threads_nproc": _same_solution(first, self.solve(inst, threads=nproc)),
        }


class DeskLarge(_FindKMedian):
    """Desk-preset k-median on a large planted mixture; the distance kernel dominates."""

    name = "desk_large"
    ops = ("solve",)
    k, per_cluster, dim = 10, 400, 16
    instances_per_pass = 10

    def __init__(self, seed, workdir):
        self.measure = SquaredEuclidean()
        self.config = PtasConfig(k=self.k, epsilon=0.5)
        self.instances = []
        for i in range(self.instances_per_pass):
            gen = _generator(seed, 1, i)
            points, labels = planted_mixture(gen, self.k, self.per_cluster, self.dim,
                                             sigma=1.0, separation=10.0,
                                             lo=0.0, hi=10.0 * self.k)
            self.instances.append(Instance(i, points, reference=planted_sq_cost(points, labels),
                                           rng_seed=int(gen.integers(2 ** 63))))

    def run(self, inst, call=direct):
        t0 = time.perf_counter()
        result = self.solve(inst, call)
        t1 = time.perf_counter()
        return {"result": result}, {"request": t1 - t0, "solve": t1 - t0}

    def check(self, inst, out):
        return {"solve": _check_solution(out["result"], self.measure, inst.points, self.k)}

    def cost_ratio(self, inst, out):
        return out["result"].cost / inst.reference


class ExactSmall(_FindKMedian):
    """The analysed Exhaustive tree at criterion-5 shape, checked against the exact oracle."""

    name = "exact_small"
    ops = ("solve", "oracle")
    k, n = 3, 12
    instances_per_pass = 12  # d cycles through 1, 2, 3, so every pass has the same mix

    def __init__(self, seed, workdir):
        self.measure = SquaredEuclidean()
        self.config = PtasConfig(
            k=self.k, epsilon=0.5,
            sample_size_N=math.ceil(4 * self.n * math.log(self.n) / 0.5),
            subset_size_M=2, restarts=2, subset_strategy=Exhaustive(),
        )
        self.instances = []
        for i in range(self.instances_per_pass):
            gen = _generator(seed, 3, i)
            points = gen.standard_normal(size=(self.n, 1 + i % 3))
            self.instances.append(Instance(i, points, rng_seed=int(gen.integers(2 ** 63))))

    def run(self, inst, call=direct):
        t0 = time.perf_counter()
        result = self.solve(inst, call)
        t1 = time.perf_counter()
        oracle = call("oracle.optimal_bruteforce", optimal_bruteforce, inst.points, self.k, self.measure)
        t2 = time.perf_counter()
        return ({"result": result, "oracle": oracle},
                {"request": t2 - t0, "solve": t1 - t0, "oracle": t2 - t1})

    def check(self, inst, out):
        solve = _check_solution(out["result"], self.measure, inst.points, self.k)
        oracle_problems = []
        best = out["oracle"].optimal_cost
        if not (math.isfinite(best) and best >= 0.0):
            oracle_problems.append(f"oracle cost {best!r} is not finite and non-negative")
        expected = self.k ** (self.n - 1)
        if out["oracle"].assignments_examined != expected:
            oracle_problems.append(
                f"assignments_examined {out['oracle'].assignments_examined} != {expected}")
        if not solve and out["result"].cost < best * (1.0 - REL_TOL):
            solve.append(f"cost {out['result'].cost!r} is below the optimum {best!r}")
        return {"solve": solve, "oracle": oracle_problems}

    def cost_ratio(self, inst, out):
        return out["result"].cost / out["oracle"].optimal_cost


class DeskSmallKL:
    """The CLI report path on small KL data: ingest, desk PTAS and the k-means++/Lloyd baseline."""

    name = "desk_small_kl"
    ops = ("report",)
    measure_classes = (KullbackLeibler,)
    k, per_cluster, dim = 3, 100, 2
    files, seeds_per_file = 16, 8
    box = (0.1, 0.9)

    def __init__(self, seed, workdir):
        self.instances = []
        margin = 1e-3
        for f in range(self.files):
            gen = _generator(seed, 2, f)
            points, labels = planted_mixture(gen, self.k, self.per_cluster, self.dim,
                                             sigma=0.02, separation=10.0, lo=0.2, hi=0.8)
            points = np.clip(points, self.box[0] + margin, self.box[1] - margin)
            path = workdir / f"desk_small_kl_{f}.csv"
            write_csv(path, points)
            reference = planted_kl_cost(points, labels)
            for s in range(self.seeds_per_file):
                spec = {"input": str(path), "k": self.k, "measure": "kl",
                        "seed": int(gen.integers(2 ** 31))}
                self.instances.append(Instance(len(self.instances), points,
                                               reference=reference, spec=spec))

    def run(self, inst, call=direct):
        t0 = time.perf_counter()
        report = call("cli.run_experiment", run_experiment, inst.spec)
        t1 = time.perf_counter()
        results = report["results"]
        return ({"report": report},
                {"request": t1 - t0, "report": t1 - t0, "solve": results["ptas"]["seconds"],
                 "baseline": results["kmeanspp_lloyd"]["seconds"]})

    def check(self, inst, out):
        problems = []
        results = out["report"]["results"]
        for method in ("ptas", "kmeanspp_lloyd"):
            if method not in results:
                problems.append(f"report lacks results.{method}")
                continue
            cost = results[method]["cost"]
            if not (isinstance(cost, float) and math.isfinite(cost) and cost >= 0.0):
                problems.append(f"results.{method}.cost {cost!r} is not finite and non-negative")
        if not problems:
            best = min(entry["cost"] for entry in results.values())
            for method, entry in results.items():
                if best > 0.0 and not _close(entry["ratio"], entry["cost"] / best):
                    problems.append(f"results.{method}.ratio {entry['ratio']!r} disagrees with its cost")
        return {"report": problems}

    def cost_ratio(self, inst, out):
        return out["report"]["results"]["ptas"]["cost"] / inst.reference

    def spot_checks(self, inst, out, nproc):
        first = strip_timing(out["report"])
        again = strip_timing(run_experiment(inst.spec))
        threaded = strip_timing(run_experiment({**inst.spec, "threads": nproc}))
        return {
            "rerun_same_seed": [] if again == first else ["strip_timing reports differ"],
            "threads_nproc": [] if threaded["results"] == first["results"]
            else ["results differ from the single-threaded run"],
        }


WORKLOADS = {w.name: w for w in (DeskLarge, DeskSmallKL, ExactSmall)}
