"""Paired before/after runs of the benchmark, written to one JSON file.

Run from the root of a checkout:

    python3 scripts/bench_pairs.py --base HEAD~1 --out BENCH.json

The base revision is exported with `git archive` into a temporary directory
(its committed files only, as a fresh checkout would have them).  For every
workload in BENCHMARK.json, each of 10 pairs runs `perfbench/run.py --trace 0`
for BENCHMARK.json's `run_seconds` once in the export and once in this
checkout, with the same seed (101 + pair index), alternating which side goes
first.  One traced run per side follows, for the per-layer numbers.  The
file records every run's output, and per workload and side the median and
quartiles of each end-to-end metric, the number of pairs the change won, and
`over_bound`: the metrics whose change median is worse than the base median
by more than the metric's `bound` in BENCHMARK.json (a relative bound), and
`unresolved`: the metrics whose base runs alone spread wider than that bound
(base q3 - q1 > bound * |base median|), where a move within the spread is
unresolved rather than unchanged.  Both lists are also printed to stderr.
The change side is named by its commit and, when the checkout differs from
that commit, by the SHA-256 of `git diff HEAD`.
Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    base_sha = git("rev-parse", args.base).decode().strip()
    diff = git("diff", "HEAD")
    report = {
        "base": base_sha,
        "change": {
            "commit": git("rev-parse", "HEAD").decode().strip(),
            "uncommitted_diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
        },
        "pairs": PAIRS,
        "seconds": seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp) / "base"
        with tarfile.open(fileobj=BytesIO(git("archive", "--format=tar", base_sha))) as tar:
            tar.extractall(base_dir, filter="data")
        sides = {"base": base_dir, "change": ROOT}
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs = []
            for pair in range(PAIRS):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    out = run_bench(sides[side], workload, 101 + pair, seconds, 0)
                    runs.append({"pair": pair, "side": side, "seed": 101 + pair, **out})
                    print(f"{workload} pair {pair} {side}: wall_s "
                          f"{out['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
            summary, wins = {}, {}
            for side in sides:
                mine = [r["metrics"] for r in runs if r["side"] == side]
                summary[side] = {m: quartiles([x[m]["value"] for x in mine]) for m in lower_is_better}
            for m, lower in lower_is_better.items():
                by_pair = {(r["pair"], r["side"]): r["metrics"][m]["value"] for r in runs}
                wins[m] = sum(
                    (by_pair[p, "change"] < by_pair[p, "base"]) == lower
                    and by_pair[p, "change"] != by_pair[p, "base"]
                    for p in range(PAIRS)
                )
            over_bound, unresolved = [], []
            for m, lower in lower_is_better.items():
                base, change = summary["base"][m], summary["change"][m]["median"]
                worse = change - base["median"] if lower else base["median"] - change
                if worse > bounds[m] * abs(base["median"]):
                    over_bound.append(m)
                if base["q3"] - base["q1"] > bounds[m] * abs(base["median"]):
                    unresolved.append(m)
            print(f"{workload} over_bound: {over_bound} unresolved: {unresolved}", file=sys.stderr)
            traced = {side: run_bench(path, workload, 101, seconds, 1)
                      for side, path in sides.items()}
            report["workloads"][workload] = {
                "runs": runs,
                "summary": summary,
                "change_wins": wins,
                "over_bound": over_bound,
                "unresolved": unresolved,
                "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
                "trace": traced,
            }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
