"""Run the benchmark over many seeds and summarise the spread of every metric.

    python3 bench/sweep.py --seeds 1-10 --out bench/results/set_a.json
    python3 bench/sweep.py --workloads exact_small --seeds 1-5
    python3 bench/sweep.py --compare bench/results/set_a.json bench/results/set_b.json

Each (workload, seed) runs as its own BENCHMARK.json command, one after
another.  For every metric the summary gives the median over seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--trace 0`` each gated end-to-end metric is compared with its bound:
``steady`` means the spread is below a third of it.  ``--compare`` checks that
the second set's medians are no worse than the first's by more than the bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(spec, workload, seed, seconds, trace):
    """(last-line result, full result record, wall seconds) of one benchmark process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), record, wall


def summarize(values, bounds):
    rows = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) < 2 or median == 0:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        row = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median),
               "values": vals}
        if name in bounds:
            row["bound"] = bounds[name]
            row["steady"] = row["spread"] < bounds[name] / 3
        rows[name] = row
    return rows


def compare(spec, first, second):
    """Gated metrics whose median in ``second`` is worse than in ``first`` by more than the bound."""
    bad = []
    for metric in spec["end_to_end"]:
        for workload, rows in first["summary"].items():
            a = rows[metric["name"]]["median"]
            b = second["summary"][workload][metric["name"]]["median"]
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if change <= metric["bound"] else "WORSE"
            print(f"{workload:<14} {metric['name']:<16} {a:<12.6g} -> {b:<12.6g} "
                  f"{change:+.4f} (bound {metric['bound']}) {verdict}")
            if verdict != "ok":
                bad.append((workload, metric["name"]))
    return bad


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="summary JSON path")
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY", default=None)
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(spec, first, second) else 0

    gated = {} if args.trace else {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary, runs, correct, provenance = {}, [], True, None
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            result, record, wall = run_one(spec, workload, seed, spec["run_seconds"], args.trace)
            correct &= result["correct"]
            provenance = provenance or record["provenance"]
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, "result": result,
                         "end_to_end": record["end_to_end"]})
            reported = record["per_module"] if args.trace else record["end_to_end"]
            for name, metric in reported.items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={result['correct']}",
                  file=sys.stderr, flush=True)
        summary[workload] = summarize(values, gated)

    for workload, rows in summary.items():
        for name, row in rows.items():
            verdict = "" if "bound" not in row else (
                f"  bound {row['bound']}: {'steady' if row['steady'] else 'NOT steady'}")
            print(f"{workload:<14} {name:<36} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f}{verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": seeds, "seconds": spec["run_seconds"], "trace": args.trace, "correct": correct,
             "provenance": provenance, "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
