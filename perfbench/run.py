"""flatsurfkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Every metric is ``{"value": ..., "unit": ...}``.

Each repetition runs in a fresh interpreter (``worker.py`` says why), one
at a time, until ``--seconds`` have passed and at least ``MIN_REPS`` have
run; metrics are medians over the repetitions.  A separate handful of
set-up-only interpreters makes the set-up median steadier.  With
``--trace 1`` untraced and traced repetitions alternate: the traced one
reports per-layer calls, self times and ratios, and its time over the
untraced one is the tracing overhead.  Untraced times are in reference
seconds: wall time scaled by the machine's speed as ``speedclock.py``
probes it during the repetition.
Outputs are checked in every repetition, outside the timed interval;
``failed`` counts the items that failed a check.  ``--tiny`` shrinks every
workload for the smoke test (``smoke.py``); pinned fingerprints then refer
to the tiny sizes.

Exits 0 after printing a result, and non-zero without one when a
repetition cannot run (for example outside a flatsurfkit checkout).
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("ay-exact-ball", "ay-float-ball", "sheared-symmetry", "readme-pipelines")

END_TO_END = {"setup_s": "s", "run_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"numeric.{f}.{m}": u for f in ("cubic_mul", "cubic_sign", "cubic_inverse", "cubic_float")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "numeric.alpha_bisections": "count",
    "delaunay.canonical_code.calls": "count",
    "delaunay.canonical_code.self_s": "s",
    "delaunay.delaunayize.calls": "count",
    "delaunay.delaunayize.self_s": "s",
    "delaunay.flips": "count",
    "delaunay.decomposition.calls": "count",
    "delaunay.decomposition.self_s": "s",
    "delaunay.hinge.calls": "count",
    "isodelaunay.explore.self_s": "s",
    "isodelaunay.cell_at.calls": "count",
    "isodelaunay.cell_at.self_s": "s",
    "isodelaunay.cell_at.new_cell_ratio": "ratio",
    "isodelaunay.delaunayize_at.calls": "count",
    "isodelaunay.delaunayize_at.self_s": "s",
    "isodelaunay.delaunayize_at.flips": "count",
    "isodelaunay.wall_of_hinge.calls": "count",
    "isodelaunay.wall_of_hinge.self_s": "s",
    "isodelaunay.wall_of_hinge.distinct_ratio": "ratio",
    **{f"symmetry.{f}.{m}": u for f in ("isometries", "isometries_between", "group_summary", "fixed_points")
       for m, u in (("calls", "count"), ("self_s", "s"))},
    "periods.segment_integrals.calls": "count",
    "periods.segment_integrals.self_s": "s",
    "periods.solve_tu.self_s": "s",
    "periods.solve_t_rectangle.self_s": "s",
    "periods.silhol_ratio.self_s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.integrand_evals": "count",
    "surface_io.loads.self_s": "s",
    "surface_io.dumps.self_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 15
MIN_REPS = 3  # untraced repetitions per run, unless one more would overrun RUN_LIMIT_S
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def _spawn(args, started: float, rep: int = 0, trace: bool = False, setup_only: bool = False) -> dict:
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError(f"run limit of {RUN_LIMIT_S} s reached")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), "--rep", str(rep)]
    cmd += ["--trace"] * trace + ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded the run limit: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def measure(args) -> dict:
    started = time.monotonic()
    if not (ROOT / "src" / "flatsurfkit" / "__init__.py").is_file():
        raise BenchError(f"no flatsurfkit sources under {ROOT / 'src'}")
    # Byte-compile once so that no repetition pays for compilation in set-up.
    for d in (ROOT / "src" / "flatsurfkit", HERE):
        if not compileall.compile_dir(str(d), quiet=1):
            raise BenchError(f"cannot compile {d}")
    setups = [_spawn(args, started, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    min_reps = 1 if args.trace else MIN_REPS
    longest = 0.0
    while len(plain) < min_reps or time.monotonic() < deadline:
        t0 = time.monotonic()
        plain.append(_spawn(args, started, rep=len(plain)))
        if args.trace:
            traced.append(_spawn(args, started, rep=len(plain), trace=True))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - started + longest > RUN_LIMIT_S:
            break  # on a slow machine: another repetition would overrun the limit

    reps = plain + traced
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in reps}
    if len(fingerprints) > 1:
        problems.append(f"repetitions disagree: {sorted(fingerprints)}")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: run_s (reference s) of the untraced repetitions {[round(r['run_s'], 4) for r in plain]}, "
          f"wall s {[round(r['wall_s'], 4) for r in plain]}, traced wall s {[round(r['wall_s'], 4) for r in traced]}; "
          f"setup_s {[round(s, 4) for s in setups]}; fingerprint {sorted(fingerprints)[0]}", file=sys.stderr)

    run_s = statistics.median(r["run_s"] for r in plain)
    if args.trace:
        # One traced repetition supplies every layer value, so that its self
        # times add up within its own total.  Traced repetitions run without
        # the speed clock, so the overhead compares wall times.
        rep = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
        overhead = rep["wall_s"] / statistics.median(r["wall_s"] for r in plain)
        values = dict(rep["layers"], **{"trace.run_s": rep["wall_s"], "trace.overhead_ratio": overhead})
        missing = [n for n in PER_LAYER if n not in values]
        if missing:
            print(f"missing per-layer metrics (target renamed or removed): {missing}", file=sys.stderr)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items() if n in values}
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in plain]),
            "run_s": run_s,
            "items_per_s": statistics.median(r["items"] / r["run_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    return {
        "correct": failed == 0 and not problems,
        "attempted": sum(r["items"] for r in reps),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="flatsurfkit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running repetition before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
