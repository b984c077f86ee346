"""d2ptas benchmark: one workload per process, a closed loop with one caller.

    python3 bench/run.py --workload desk_large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The library under test is imported from ``src/`` next to this directory and
called the way users call it (default ``threads=None``), with BLAS/OpenMP
threads capped at the number of usable cores.  A run sets up (import, input
generation, file writes, one untimed warm-up request), then runs whole passes
over the workload's fixed instance list until ``--seconds`` is used up, checks
every output, and re-runs one request outside the timed region to confirm the
results are bit-reproducible and independent of the thread count.  A fixed
calibration task runs between requests; the gated timings are divided by it,
because the machine's speed drifts more than the bounds allow.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untimed
and one traced pass and prints the per-module metrics.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  A full record, with provenance and sample counts, is written to
``bench/results/``; see bench/README.md for what every metric means.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
WORKLOAD_NAMES = ("desk_large", "desk_small_kl", "exact_small")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # this process plus two fresh set-up-only processes
# Calibration-task seconds that setup_s is scaled to: its median on a 2-core
# x86-64 box with Python 3.11 and numpy 2.4, where the benchmark was built.
CAL_REF_S = 0.03

END_TO_END = ("setup_s", "request_cal_p50", "solve_cal_p50", "peak_rss_mb")
PER_LAYER = (
    "divergences.pairwise.calls", "divergences.pairwise.pairs", "divergences.pairwise.bytes_min",
    "divergences.pairwise.self_s", "divergences.pairwise.pairs_per_s",
    "divergences.rowwise.calls", "divergences.rowwise.self_s", "divergences.assign.self_s",
    "sampler.generator.built", "sampler.generator.self_s", "sampler.derive.calls",
    "sampler.weighted_draw.calls", "sampler.weighted_draw.self_s",
    "ptas.find_k_median.self_s", "ptas.subsets_examined", "ptas.subsets_per_s",
    "trace.overhead_frac",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; whole passes over the instance list, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for repeated set-up)")
    return parser.parse_args(argv)


def import_library():
    """Import numpy and d2ptas from this checkout, with the thread caps in place."""
    if not (SRC / "d2ptas" / "__init__.py").is_file():
        raise SystemExit(f"error: no d2ptas sources at {SRC}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(NPROC))
    sys.path.insert(0, str(SRC))
    import d2ptas

    if Path(d2ptas.__file__).resolve().parent != SRC / "d2ptas":
        raise SystemExit(f"error: imported d2ptas from {d2ptas.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (numpy and the library load here, inside set-up)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit():
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(git / ref)
    if loose:
        return loose
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def llc_bytes():
    best_level, size = -1, None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, text = _read(index / "level"), _read(index / "size")
        if level and text and int(level) > best_level:
            best_level = int(level)
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
            size = int(text.rstrip("KMG")) * scale
    return size


def provenance(args):
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "cpu": cpu,
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS}},
        "loop": "closed, one caller",
    }


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

class Tally:
    """Attempted and failed ops, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, per_op):
        for op, problems in per_op.items():
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{label} {op}: {'; '.join(problems)}")


def run_request(wl, inst, tally, label, call=None):
    """One request; returns (outputs, timings), or (None, None) if it raised."""
    try:
        out, times = wl.run(inst) if call is None else wl.run(inst, call)
    except Exception:  # a raising op is a failed op, and the run goes on
        tally.record(label, {op: [traceback.format_exc(limit=3)] for op in wl.ops})
        return None, None
    tally.record(label, wl.check(inst, out))
    return out, times


def timing_stats(samples):
    """p50, plus p90 once at least ten samples lie beyond it."""
    stats = {"p50": statistics.median(samples), "samples": len(samples)}
    if len(samples) >= 100:
        stats["p90"] = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return stats


def measure_setup_elsewhere(args):
    """Set-up times of fresh processes running this workload's set-up only."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def calibrate(np):
    """Seconds of a fixed task: a Python loop plus small numpy calls.

    The machine this benchmark was tuned on runs the same code up to 2x faster
    or slower from one minute to the next.  Dividing each request by the
    calibration runs around it cancels most of that drift; the task is the
    benchmark's own code, so a change to the library cannot move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) & 0xFFFF
    probs = np.full(100, 0.01)
    for _ in range(2000):
        np.searchsorted(np.cumsum(probs), 0.5)
    return time.perf_counter() - t0


def measure_passes(wl, tally, seconds, once):
    """Whole passes over the instance list until ``seconds`` is used up (at least one).

    Whole passes keep the instance mix fixed whatever the speed of the code;
    the loop stops at the pass boundary nearest ``seconds``.  A calibration
    runs before a request when a second has passed since the last one, and once
    at the end.  Returns the timing samples (``*_cal`` keys: each sample over
    the mean of the two calibrations around it), the calibration times, the
    first pass's cost ratios, instance 0's first output and the number of passes.
    """
    import numpy as np

    times, ratios, first_out = {}, [], None
    cals, slots = [calibrate(np)], []
    passes, t0, last, last_cal = 0, time.perf_counter(), 0.0, time.perf_counter()
    while passes == 0 or (not once and time.perf_counter() - t0 + 0.5 * last <= seconds):
        p0 = time.perf_counter()
        for inst in wl.instances:
            if time.perf_counter() - last_cal >= 1.0:
                cals.append(calibrate(np))
                last_cal = time.perf_counter()
            out, got = run_request(wl, inst, tally, f"pass {passes} instance {inst.index}")
            if out is None:
                continue
            slots.append(len(cals) - 1)
            for key, value in got.items():
                times.setdefault(key, []).append(value)
            if passes == 0:
                ratios.append(wl.cost_ratio(inst, out))
                if inst.index == 0:
                    first_out = out
        passes += 1
        last = time.perf_counter() - p0
    cals.append(calibrate(np))
    if "request" not in times:
        raise RuntimeError("every timed request failed:\n" + "\n".join(tally.problems))
    around = [(cals[j] + cals[j + 1]) / 2 for j in slots]
    for key in ("request", "solve"):
        times[f"{key}_cal"] = [t / c for t, c in zip(times[key], around)]
    return times, cals, ratios, first_out, passes


def traced_pass(wl, tally, untraced, spans_path):
    """One pass with every layer boundary traced; returns (per-module metrics, trace summary)."""
    import tracing

    tracer = tracing.Tracer()
    traced = []
    with tracing.install(tracer, wl.measure_classes):
        for inst in wl.instances:
            with tracer.request(inst.index):
                _, got = run_request(wl, inst, tally, f"traced instance {inst.index}", tracer.call)
            if got is not None:
                traced.append(got["request"])
    modules = tracing.module_metrics(tracer, len(wl.instances))
    modules["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                      "ratio")
    tracer.save(spans_path)
    summary = {"requests": len(wl.instances), "spans": len(tracer.start),
               "self_time_closure_rel_err": tracing.self_time_closure(tracer.columns()),
               "traced_request_s": timing_stats(traced)}
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(modules.items())}, summary


def end_to_end(setups, timings, cals, ratios, peak_rss_mb, tally):
    """Every end-to-end metric as name -> (value, unit, samples)."""
    e2e = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s", len(setups)),
        "setup_raw_s": (statistics.median(s["setup_raw_s"] for s in setups), "s", len(setups)),
        "request_cal_p50": (timings["request_cal"]["p50"], "cal", timings["request_cal"]["samples"]),
        "solve_cal_p50": (timings["solve_cal"]["p50"], "cal", timings["solve_cal"]["samples"]),
        "request_s_p50": (timings["request"]["p50"], "s", timings["request"]["samples"]),
        "solve_s_p50": (timings["solve"]["p50"], "s", timings["solve"]["samples"]),
        "cal_s_p50": (statistics.median(cals), "s", len(cals)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "cost_ratio_mean": (statistics.fmean(ratios), "ratio", len(ratios)),
        "cost_ratio_max": (max(ratios), "ratio", len(ratios)),
        "failed_frac": (tally.failed / tally.attempted, "ratio", tally.attempted),
    }
    for key in ("report", "oracle"):
        for pct, value in timings.get(key, {}).items():
            if pct != "samples":
                e2e[f"{key}_s_{pct}"] = (value, "s", timings[key]["samples"])
    return e2e


def run_workload(args, workdir):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    run_request(wl, wl.instances[0], tally, "warm-up")
    setup_raw_s = time.perf_counter() - T_START
    import numpy as np

    setup = {"setup_raw_s": setup_raw_s,
             "setup_s": setup_raw_s * CAL_REF_S / statistics.median(calibrate(np) for _ in range(3))}
    if args.setup_only:
        return setup

    record = {"provenance": provenance(args), "instances": len(wl.instances)}
    times, cals, ratios, first_out, record["passes"] = measure_passes(
        wl, tally, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timings = record["timings_s"] = {key: timing_stats(vals) for key, vals in times.items()}
    record["request_samples_s"] = times["request"]
    record["calibration_s"] = cals
    RESULTS.mkdir(exist_ok=True)
    closure_ok = True
    if args.trace:
        record["per_module"], record["trace"] = traced_pass(
            wl, tally, times["request"], RESULTS / f"{args.workload}-seed{args.seed}.spans.npz")
        closure_ok = record["trace"]["self_time_closure_rel_err"] <= 1e-6
    if first_out is not None:
        tally.record("spot-check", wl.spot_checks(wl.instances[0], first_out, NPROC))
    else:
        tally.record("spot-check", {"instance 0": ["no successful request to compare with"]})

    setups = [setup] + ([] if args.trace else measure_setup_elsewhere(args))
    e2e = end_to_end(setups, timings, cals, ratios, peak_rss_mb, tally)
    record.update({
        "setup_s_samples": setups,
        "cost_ratios": ratios,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "problems": tally.problems,
    })
    if args.trace:
        metrics = {k: record["per_module"][k] for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
    record["result"] = {"correct": tally.failed == 0 and closure_ok, "attempted": tally.attempted,
                        "failed": tally.failed, "metrics": metrics}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_table(args.workload, record)
    for problem in tally.problems:
        print(f"FAILED {problem}")
    return record["result"]


def print_table(workload, record):
    print(f"# {workload}: {record['instances']} instances x {record['passes']} passes, "
          f"commit {record['provenance']['git_commit']}")
    for name, m in record["end_to_end"].items():
        print(f"{workload:<14} {name:<20} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    for name, m in record.get("per_module", {}).items():
        print(f"{workload:<14} {name:<36} {m['value']:>14.6g} {m['unit']}")


def run_all(args):
    """Each workload in its own fresh process; prints a combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        child = json.loads(lines[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in child["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
