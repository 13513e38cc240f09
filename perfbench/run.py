"""Benchmark of the four verification jobs of acbounds.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload atoms --seed 1 --seconds 15 --trace 0

It imports the package from ``src/`` of the current directory, makes the
workload's inputs from the seed, then repeats whole rounds of the
workload's items until ``--seconds`` of item time have passed.  Every
output is checked right after its item, outside the item's timed span.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
"""

from __future__ import annotations

import os

# One thread: numpy (used only by the checks) must not start a BLAS pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import workloads  # noqa: E402

PACKAGE = "acbounds"
MODULES = ("bounds", "distributions", "exactmat", "hadamard", "normal", "oracle", "sweeps", "system")
SETUP_REPEATS = 5  # setup_s is the median of this many imports plus input builds
OUT_DIR = Path("perfbench") / "out"


def import_package():
    """Import the package afresh (dropping any earlier import) and return its modules."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return SimpleNamespace(**{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES})


def percentile(values, p):
    """Nearest-rank percentile (p in (0, 100]): the smallest value with at
    least p% of the values at or below it."""
    ordered = sorted(values)
    return ordered[workloads.nearest_rank(len(ordered), p) - 1]


def run_rounds(workload, seconds, log):
    """Repeat whole rounds until the items have run for `seconds`; return
    (each item's mean time, round times, attempted, failed).

    Each output is checked as soon as its item returns, outside the item's
    timed span, and then dropped, so no output outlives its check.  A
    round's time is the sum of its item times.
    """
    total = [0.0] * len(workload.items)
    round_times = []
    attempted = failed = 0
    while sum(round_times) < seconds:
        round_time = 0.0
        for i, item in enumerate(workload.items):
            t0 = time.perf_counter()
            try:
                out = item.run()
                error = None
            except Exception:  # an item that raises is a failed item
                out, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            total[i] += elapsed
            round_time += elapsed
            attempted += 1
            if error is None:
                try:
                    item.check(out)
                except Exception as exc:  # a malformed output fails its check too
                    error = f"check failed: {exc!r}"
            del out
            if error is not None:
                failed += 1
                log(f"FAILED {item.name}: {error}")
        round_times.append(round_time)
    return [t / len(round_times) for t in total], round_times, attempted, failed


def result_line(attempted, failed, metrics):
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(msg):
        print(f"[{args.workload} seed={args.seed}] {msg}", file=sys.stderr, flush=True)

    src = Path.cwd() / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        log(f"no {PACKAGE} sources under {src}; run from the root of a source checkout")
        return 2
    sys.path.insert(0, str(src))
    setup = workloads.SETUPS[args.workload]

    if args.trace:
        import tracing

        modules = import_package()
        tracer = tracing.Tracer()
        tracer.install()
        workload = setup(modules, args.seed)
        tracer.end_setup()
        _, round_times, attempted, failed = run_rounds(workload, args.seconds, log)
        layer = tracer.layer_metrics(rounds=len(round_times))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        log(f"traced wall_s {statistics.mean(round_times):.4f} over {len(round_times)} "
            f"rounds; {len(tracer.span_name)} spans written to {trace_path}")
        units = dict(tracing.layer_metric_names())
        print(result_line(attempted, failed, {name: (layer[name], units[name]) for name in units}))
        return 0

    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        t0 = time.perf_counter()
        modules = import_package()
        workload = setup(modules, args.seed)
        setup_times.append(time.perf_counter() - t0)
    gc.collect()
    # The host's speed drifts by up to half within seconds; means over all
    # rounds average the drift and vary less from run to run than medians
    # or minima of the same runs.
    mean_times, round_times, attempted, failed = run_rounds(workload, args.seconds, log)
    p = workload.tail_percentile
    log(f"{len(round_times)} rounds of {len(mean_times)} items; item_tail_ms is p{p}; "
        f"round times {' '.join(f'{t:.3f}' for t in round_times)} s")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.mean(round_times), "s"),
        "item_p50_ms": (percentile(mean_times, 50) * 1e3, "ms"),
        "item_tail_ms": (percentile(mean_times, p) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
