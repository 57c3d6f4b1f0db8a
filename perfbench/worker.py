"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --t0 T [--trace] [--tiny] [--setup-only]

``run.py`` starts this script once per repetition and passes ``--t0``, its
``time.monotonic()`` just before the start, so that set-up time counts from
interpreter start to the inputs being built.  The script builds the
workload's inputs from the seed, runs the timed body (under the layer
tracer with ``--trace``), then checks the outputs outside the timed
interval.  It prints one JSON object as its last line of output.  Set-up
and untraced run times are in reference seconds (``speedclock.py``); the
run's raw wall time is printed next to it.

Every repetition needs its own interpreter: ``numeric._ALPHA`` is a
module-level interval that the first exploration refines from width 0.01
down to about 1e-19, and ``quadrature._node_cache`` keeps nodes across
calls, so a second repetition in the same process measures a warmer
program (on Python 3.11 with 2 cores, the same r = 0.35 exploration took
7.0 s and then 5.3 s in one process).  The benchmark never sets
``FLATSURFKIT_THREADS`` and never passes ``threads=``: explorations run in
one thread, as they will once that knob is gone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

import speedclock

# The machine's speed as set-up begins, before the library is imported; the
# probes' own time is left out of set-up time.
_t = time.monotonic()
START_PROBE_S = speedclock.probe_median()
START_PROBE_COST_S = time.monotonic() - _t

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flatsurfkit  # noqa: E402
from flatsurfkit import cli, constructions, isodelaunay, numeric, periods  # noqa: E402
from flatsurfkit import surface, surface_io, symmetry  # noqa: E402

import tracer as layer_tracer  # noqa: E402

PINNED_SEED = 1
Z0 = isodelaunay.HPoint(0.0001, 1.0001)

# -- ay-exact-ball / ay-float-ball ------------------------------------------------------

# The exact ball is the README's `flatsurf build ay | flatsurf tessellate
# --radius 1.0`.  Its fingerprint is pinned: a faster program must find the
# same cells, walls and adjacencies.
EXACT_RADIUS = {False: 1.0, True: 0.2}
EXACT_PIN = {
    False: {"cells": 24, "walls": 23, "adjacency": 72,
            "comb_sha": "ebdec34ffb9484c984c0fbdefa2437fd9657bd8b0b4fcd15603ed005dc267880"},
    True: {"cells": 6, "walls": 7, "adjacency": 12,
           "comb_sha": "c4bb379574f1103a61ee39397caed9f51d23d23c834586fa87c5322e0573e892"},
}
# The float ball is only held to invariants and a floor: the float path
# drops vertical walls today, and fixing that adds cells.
FLOAT_RADIUS = {False: 3.0, True: 0.5}
FLOAT_FLOOR = {False: 524, True: 18}


def make_exact_ball(seed: int, tiny: bool):
    return constructions.ay_surface(), EXACT_RADIUS[tiny]


def make_float_ball(seed: int, tiny: bool):
    return constructions.trapezoid_family(constructions.ay_trapezoid_shape()), FLOAT_RADIUS[tiny]


def run_ball(inputs):
    s, radius = inputs
    tess = isodelaunay.explore(s, Z0, radius)
    return len(tess.cells), tess


def ball_fingerprint(tess) -> dict:
    hashes = sorted(c.comb_hash for c in tess.cells)
    return {
        "cells": len(tess.cells),
        "walls": len(tess.all_walls()),
        "adjacency": len(tess.adjacency),
        "comb_sha": hashlib.sha256(repr(hashes).encode()).hexdigest(),
    }


def check_exact_ball(inputs, tess, *, seed: int, tiny: bool, rep: int = 0):
    fp = ball_fingerprint(tess)
    problems = gate_exact_ball(fp, tiny)
    return (fp["cells"] if problems else 0), problems, fp


def gate_exact_ball(fp: dict, tiny: bool) -> list:
    want = EXACT_PIN[tiny]
    return [f"{k}: got {fp[k]!r}, want {v!r}" for k, v in want.items() if fp[k] != v]


def check_float_ball(inputs, tess, *, seed: int, tiny: bool, rep: int = 0):
    fp = ball_fingerprint(tess)
    problems = gate_float_ball(fp, tiny)
    keys = {c.key for c in tess.cells}
    if len(keys) != len(tess.cells):
        problems.append("two cells share a supporting-wall key")
    dangling = sum(1 for a, b, _ in tess.adjacency if a not in keys or b not in keys)
    if dangling:
        problems.append(f"{dangling} adjacencies name a cell that was not found")
    return (fp["cells"] if problems else 0), problems, fp


def gate_float_ball(fp: dict, tiny: bool) -> list:
    if fp["cells"] < FLOAT_FLOOR[tiny]:
        return [f"cells: got {fp['cells']}, want at least {FLOAT_FLOOR[tiny]}"]
    return []


# -- sheared-symmetry ---------------------------------------------------------------------

# Shears M = [[1, k], [0, 1]] or [[1, 0], [k, 1]] of four exact surfaces.
# The batch is stratified so that its work depends little on the seed:
# every base gets one k from each of the four strata below (odd and even,
# small and large |k|; the escalator's group doubles for even k), and the
# seed picks k within the stratum, its sign and the shear direction.
SHEAR_STRATA = ((1, 9), (2, 10), (11, 19), (12, 20))  # k in range(lo, hi + 1, 2)
SHEAR_BASES = {
    "ay": constructions.ay_surface,
    "ay_prime": constructions.ay_prime,
    "escalator": constructions.escalator,
    "ay_cut": lambda: surface.cut_and_reglue_square(constructions.ay_surface(), 0),
}
SHEAR_PIN_SHA = "fc77500d635343cbb845862196ed07a5acedaeb2ae8e477cc9f32b20c6ec8beb"  # fingerprint of the batch for PINNED_SEED


def make_sheared(seed: int, tiny: bool):
    rng = random.Random(seed)
    bases = {name: build() for name, build in SHEAR_BASES.items()}
    slots = [(name, stratum) for name in SHEAR_BASES for stratum in SHEAR_STRATA]
    items = []
    for name, (lo, hi) in slots[::8] if tiny else slots:
        k = rng.randrange(lo, hi + 1, 2) * rng.choice((1, -1))
        m = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
        items.append((name, m, bases[name], surface.apply_linear(m, bases[name])))
    return items


def run_sheared(items):
    out = []
    for _, _, _, ms in items:
        isos = symmetry.isometries(ms)
        summary = symmetry.group_summary(isos)
        fixed = [symmetry.fixed_points(i) for i in isos if i.orientation == -1]
        out.append((isos, summary, fixed))
    return len(out), out


def check_sheared(items, results, *, seed: int, tiny: bool, rep: int = 0):
    problems = []
    failed = 0
    census = []
    for (name, m, base, ms), (isos, summary, fixed) in zip(items, results):
        bad = []
        # The witness search costs more than the item itself; the first
        # repetition runs it, and the others must match its fingerprint.
        if rep == 0 and symmetry.affine_equivalent(base, ms, m) is None:
            bad.append("affine_equivalent(S, M.S, M) found no witness")
        if not any(i.is_identity() for i in isos):
            bad.append("identity missing from the group")
        if not isos or numeric.sign(surface.area(isos[0].source) - surface.area(base)) != 0:
            bad.append("decomposition area differs from area(S)")
        failed += bool(bad)
        problems += [f"{name} M={m}: {msg}" for msg in bad]
        census.append([name, m, summary.order, list(summary.element_orders),
                       [[len(f.segments), f.segment_components] for f in fixed]])
    fp = {"items": len(results), "census_sha": hashlib.sha256(json.dumps(census).encode()).hexdigest()}
    pinned = gate_sheared(fp, seed, tiny)
    return (len(results) if pinned else failed), problems + pinned, fp


def gate_sheared(fp: dict, seed: int, tiny: bool) -> list:
    if seed == PINNED_SEED and not tiny and fp["census_sha"] != SHEAR_PIN_SHA:
        return [f"census_sha: got {fp['census_sha']}, want {SHEAR_PIN_SHA}"]
    return []


# -- readme-pipelines -----------------------------------------------------------------------

# Every README command but `tessellate`, each with a line of its shown
# output that must appear.  "<ay>" feeds `build ay` on stdin.
PIPELINES = [
    (["info"], "<ay>", ["genus 3", "cone angles: 6pi 6pi"]),
    (["delaunay"], "<ay>", ["6 cells: 2 squares, 4 trapezoids"]),
    (["isometries"], "<ay>", ["group order 8", "dihedral: yes"]),
    (["info"], "<ay-genus2>", ["genus 2", "cone angles: 3pi 3pi 3pi 3pi"]),
    (["origami-check"], "<escalator>", ["origami: degree 6"]),
    (["solve-ay"], "", ["t = 1.91709843377", "u = 2.07067976690"]),
    (["solve-rect", "--mu", "0.5"], "", ["t = 3.00000000000"]),
    (["periods", "ratios", "--t", "2", "--u", "1"], "", ["r2 = J3/J1 = 1.00000000000"]),
    (["periods", "silhol", "--a-imag", "0.5"], "", ["ratio = 2.11575250227 + "]),
    (["build", "trapezoid", "--b", "1", "--B", "2", "--h", "1"], "", ['"format": "flatsurface/1"']),
    (["build", "parallelogram", "--s1x", "1", "--s1y", "0", "--s2x", "0.3", "--s2y", "1.1"], "",
     ['"format": "flatsurface/1"']),
    (["build", "rectangle", "--t", "3"], "", ['"format": "flatsurface/1"']),
]
ROUND_TRIPS = {False: 100, True: 2}
ROUND_TRIP_TOL = 1e-8


def make_readme(seed: int, tiny: bool):
    rng = random.Random(seed)
    n = ROUND_TRIPS[tiny]
    return {
        "tu": [(rng.uniform(1.2, 4.0), rng.uniform(0.5, 4.0)) for _ in range(n)],
        "rect": [rng.uniform(1.5, 6.0) for _ in range(n)],
        "silhol": [rng.uniform(0.3, 3.0) for _ in range(n)],
    }


def _cli(argv, stdin: str = ""):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def run_readme(inputs):
    feeds = {"": ""}
    _, feeds["<ay>"] = _cli(["build", "ay"])
    _, feeds["<escalator>"] = _cli(["build", "escalator"])
    _, feeds["<ay-genus2>"] = _cli(["genus2", "--square", "0"], feeds["<ay>"])
    shown = [_cli(argv, feeds[feed]) for argv, feed, _ in PIPELINES]
    tu = []
    for t, u in inputs["tu"]:
        c = periods.solve_tu(periods.shape_ratios(periods.CurveTU(t, u)))
        tu.append((c.t, c.u))
    rect = []
    for t in inputs["rect"]:
        j1, j2, _ = periods.segment_integrals(periods.CurveTU(t, 1.0))
        rect.append(periods.solve_t_rectangle(j1 / j2))
    silhol = [periods.silhol_ratio(periods.CurveA(complex(0.0, y))) for y in inputs["silhol"]]
    results = {"shown": shown, "tu": tu, "rect": rect, "silhol": silhol}
    return len(shown) + len(tu) + len(rect) + len(silhol), results


def check_readme(inputs, results, *, seed: int, tiny: bool, rep: int = 0):
    problems = []
    for (argv, _, wants), (code, text) in zip(PIPELINES, results["shown"]):
        if code != 0 or any(w not in text for w in wants):
            problems.append(f"flatsurf {' '.join(argv)}: exit {code}, output {text[:200]!r}")
        elif argv[0] == "build" and surface.validate(surface_io.loads(text)):
            problems.append(f"flatsurf {' '.join(argv)}: built an invalid surface")
    for (t, u), (t2, u2) in zip(inputs["tu"], results["tu"]):
        if not max(abs(t2 - t), abs(u2 - u)) <= ROUND_TRIP_TOL:
            problems.append(f"solve_tu(shape_ratios({t}, {u})) = ({t2}, {u2})")
    for t, t2 in zip(inputs["rect"], results["rect"]):
        if not abs(t2 - t) <= ROUND_TRIP_TOL:
            problems.append(f"solve_t_rectangle round trip at t = {t}: {t2}")
    for y, r in zip(inputs["silhol"], results["silhol"]):
        if not abs(r.imag) <= ROUND_TRIP_TOL * abs(r):
            problems.append(f"silhol_ratio({y}i) = {r} is not real")
    digest = repr([results[k] for k in ("shown", "tu", "rect", "silhol")])
    fp = {"output_sha": hashlib.sha256(digest.encode()).hexdigest()}
    return len(problems), problems, fp


WORKLOADS = {
    "ay-exact-ball": (make_exact_ball, run_ball, check_exact_ball),
    "ay-float-ball": (make_float_ball, run_ball, check_float_ball),
    "sheared-symmetry": (make_sheared, run_sheared, check_sheared),
    "readme-pipelines": (make_readme, run_readme, check_readme),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, default=0, help="index of the repetition within the run")
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started us")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if Path(flatsurfkit.__file__).resolve().parent != ROOT / "src" / "flatsurfkit":
        sys.exit(f"worker: imported flatsurfkit from {flatsurfkit.__file__}, not from this checkout")
    make, body, check = WORKLOADS[args.workload]
    inputs = make(args.seed, args.tiny)
    setup_wall_s = time.monotonic() - args.t0 - START_PROBE_COST_S
    out = {"setup_s": speedclock.to_ref(setup_wall_s, START_PROBE_S, speedclock.probe_median())}
    if not args.setup_only:
        if args.trace:
            # Traced repetitions report plain wall time: the probes would land
            # inside the spans.
            (items, result), run_s, tr = layer_tracer.traced(body, inputs)
            out["layers"] = tr.metrics()
            out["wall_s"] = run_s
        else:
            with speedclock.SpeedClock() as clock:
                items, result = body(inputs)
            run_s = clock.ref_s
            out["wall_s"] = clock.wall_s
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        failed, problems, fingerprint = check(inputs, result, seed=args.seed, tiny=args.tiny, rep=args.rep)
        out.update(run_s=run_s, items=items, failed=failed, problems=problems, fingerprint=fingerprint)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
