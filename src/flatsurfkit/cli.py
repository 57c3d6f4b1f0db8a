"""Command-line interface: build, inspect, transform, solve, tessellate.

Surface files travel on stdin/stdout when no path is given.  Exit codes:
0 success, 1 domain error (invalid surface, I/O error, divergence), 2 usage
error.  Diagnostics go to stderr, results to stdout or to files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
from typing import Optional, Sequence

from . import constructions as cons
from . import delaunay as dl
from . import isodelaunay as iso
from . import periods as per
from . import quadrature
from . import surface as sf
from . import surface_io
from . import symmetry as sym
from .numeric import FLOAT_TOL, is_exact, scalar_from_str, to_float
from .quadrature import QuadratureError
from .surface import Surface, SurfaceError


class CliError(Exception):
    pass


def _read_surface(path: Optional[str]) -> Surface:
    if path in (None, "-"):
        return surface_io.loads(sys.stdin.read())
    with open(path, encoding="utf-8") as fp:  # JSON is UTF-8, whatever the locale
        return surface_io.load(fp)


def _write_surface(s: Surface, path: Optional[str]) -> None:
    text = surface_io.dumps(s)  # first, so that a SurfaceError leaves no file behind
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fp:
            fp.write(text)


def _require_valid(s: Surface) -> Surface:
    violations = sf.validate(s)
    if violations:
        raise SurfaceError("invalid surface: " + "; ".join(str(v) for v in violations))
    return s


# -- subcommands ------------------------------------------------------------------


def _cmd_build(args) -> int:
    name = args.what
    if name == "ay":
        s = cons.ay_surface()
    elif name == "ay-prime":
        s = cons.ay_prime()
    elif name == "escalator":
        s = cons.escalator()
    elif name == "trapezoid":
        if args.b is None or args.B is None or args.h is None:
            raise CliError("trapezoid requires --b, --B and --h")
        s = cons.trapezoid_family(cons.TrapezoidShape(args.b, args.B, args.h))
    elif name == "parallelogram":
        if None in (args.s1x, args.s1y, args.s2x, args.s2y):
            raise CliError("parallelogram requires --s1x --s1y --s2x --s2y")
        s = cons.parallelogram_family(
            cons.ParallelogramShape((args.s1x, args.s1y), (args.s2x, args.s2y))
        )
    else:  # rectangle
        if args.t is None:
            raise CliError("rectangle requires --t")
        # u = 1 makes J3 = J1 exactly (x -> t/x), so the bases are equal;
        # the computed J3/J1 can round to just below 1
        r1, _ = per.shape_ratios(per.CurveTU(args.t, 1.0))
        s = cons.trapezoid_family(cons.TrapezoidShape(1.0, 1.0, r1 / 2.0))
    _write_surface(s, args.output)
    return 0


def _fmt_cone(c: sf.ConePoint) -> str:
    return f"{c.angle_pi}pi"


def _cmd_info(args) -> int:
    s = _require_valid(_read_surface(args.surface))
    cones = sf.cone_points(s)
    print(f"genus {sf.genus(s)}")
    print("cone angles: " + (" ".join(_fmt_cone(c) for c in cones) if cones else "none"))
    print(f"area: {to_float(sf.area(s))!r}")
    print(f"kind: {s.kind}")
    print(f"polygons: {len(s.polygons)}, gluings: {len(s.gluings)}")
    return 0


def _classify_cell(p: sf.Polygon) -> str:
    n = len(p)
    if n == 3:
        return "triangle"
    if n != 4:
        return f"{n}-gon"
    ev = [(to_float(v[0]), to_float(v[1])) for v in p.edge_vectors()]
    lengths = [math.hypot(*v) for v in ev]

    def parallel(i: int, j: int) -> bool:
        return abs(ev[i][0] * ev[j][1] - ev[i][1] * ev[j][0]) < FLOAT_TOL * lengths[i] * lengths[j]

    par0, par1 = parallel(0, 2), parallel(1, 3)
    if par0 and par1:
        dot = ev[0][0] * ev[1][0] + ev[0][1] * ev[1][1]
        right = abs(dot) < FLOAT_TOL * lengths[0] * lengths[1]
        if right and abs(lengths[0] - lengths[1]) < FLOAT_TOL * max(lengths[0], lengths[1]):
            return "square"
        if right:
            return "rectangle"
        return "parallelogram"
    if par0 or par1:
        return "trapezoid"
    return "quadrilateral"


def _cmd_delaunay(args) -> int:
    s = _require_valid(_read_surface(args.surface))
    tri = dl.delaunayize(dl.triangulate(s))
    dec = dl.decomposition(tri)
    census = {}
    for p in dec.polygons:
        census.setdefault(_classify_cell(p), []).append(p)
    total = len(dec.polygons)
    summary = ", ".join(f"{len(v)} {k}{'s' if len(v) != 1 else ''}" for k, v in sorted(census.items()))
    print(f"{total} cells: {summary}")
    print(f"flips: {tri.flip_count}")
    for kind, cells in sorted(census.items()):
        for p in cells:
            vecs = " ".join(f"({to_float(v[0]):.6g},{to_float(v[1]):.6g})" for v in p.edge_vectors())
            print(f"  {kind}: area {to_float(p.area()):.6g}, edges {vecs}")
    if args.out:
        _write_surface(dec, args.out)
    if args.svg:
        with open(args.svg, "w") as fp:
            fp.write(_decomposition_svg(dec))
    return 0


_DECOMPOSITION_SVG_SIZE = 220


def _decomposition_svg(dec: Surface) -> str:
    """All cells side by side, in squares of _DECOMPOSITION_SVG_SIZE pixels,
    glued edges carrying matching labels."""
    size = _DECOMPOSITION_SVG_SIZE
    label = {}
    for k, g in enumerate(dec.gluings):
        name = chr(ord("a") + k % 26) + ("" if k < 26 else str(k // 26))
        label[g.edge_a] = name
        label[g.edge_b] = name
    span = 0.0
    boxes = []
    for p in dec.polygons:
        xs = [to_float(v[0]) for v in p.vertices]
        ys = [to_float(v[1]) for v in p.vertices]
        boxes.append((min(xs), max(xs), min(ys), max(ys)))
        span = max(span, max(xs) - min(xs), max(ys) - min(ys))
    scale = size / (span * 1.2) if span else 1.0
    width = size * len(dec.polygons)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{size}" '
        f'viewBox="0 0 {width} {size}">'
    ]
    for i, p in enumerate(dec.polygons):
        x0, x1, y0, y1 = boxes[i]
        ox = i * size + (size - (x1 - x0) * scale) / 2
        oy = (size + (y1 - y0) * scale) / 2

        def to_px(v):
            return (ox + (to_float(v[0]) - x0) * scale, oy - (to_float(v[1]) - y0) * scale)

        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(v) for v in p.vertices))
        parts.append(f'<polygon points="{pts}" fill="#eef" stroke="black" stroke-width="1"/>')
        for e in range(len(p)):
            a = to_px(p.vertices[e])
            b = to_px(p.vertices[(e + 1) % len(p)])
            mx, my = (a[0] + b[0]) / 2, (a[1] + b[1]) / 2
            parts.append(
                f'<text x="{mx:.2f}" y="{my:.2f}" font-size="11" text-anchor="middle">'
                f"{label.get((i, e), '?')}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts)


def _cmd_isometries(args) -> int:
    s = _require_valid(_read_surface(args.surface))
    isos = sym.isometries(s)
    summary = sym.group_summary(isos)
    print(f"group order {summary.order}")
    print("element orders: " + " ".join(str(k) for k in summary.element_orders))
    print(f"abelian: {'yes' if summary.abelian else 'no'}")
    print(f"dihedral: {'yes' if summary.dihedral else 'no'}")
    for isom in isos:
        d = isom.derivative_floats()
        fixed = sym.fixed_points(isom)
        if fixed.all_points:
            census = "all points"
        elif isom.orientation == 1:
            census = f"{len(fixed.points)} fixed points"
        else:
            census = f"{len(fixed.segments)} fixed segments in {fixed.segment_components} components"
        print(
            f"  {isom.name_hint():6s} orientation {'+' if isom.orientation == 1 else '-'} "
            f"derivative [[{d[0][0]:+.6f},{d[0][1]:+.6f}],[{d[1][0]:+.6f},{d[1][1]:+.6f}]]  {census}"
        )
    return 0


def _cmd_apply(args) -> int:
    s = _require_valid(_read_surface(args.surface))
    a, b, c, d = args.matrix
    _write_surface(sf.apply_linear(((a, b), (c, d)), s), args.output)
    return 0


def _cmd_solve_ay(args) -> int:
    from .numeric import ALPHA

    a = to_float(ALPHA)
    target = (1.0 / a, 1.0 + a)
    curve = per.solve_tu(target, args.tol)
    r1, r2 = per.shape_ratios(curve, args.tol)
    print(f"t = {curve.t:.11f}")
    print(f"u = {curve.u:.11f}")
    print(f"residual = {max(abs(r1 - target[0]), abs(r2 - target[1])):.3e}")
    return 0


def _cmd_solve_rect(args) -> int:
    t = per.solve_t_rectangle(args.mu, args.tol)
    j1, j2, _ = per.segment_integrals(per.CurveTU(t, 1.0), args.tol)
    print(f"t = {t:.11f}")
    print(f"residual = {abs(j1 - args.mu * j2):.3e}")
    return 0


def _cmd_periods(args) -> int:
    if args.mode == "ratios":
        c = per.CurveTU(args.t, args.u)
        j1, j2, j3 = per.segment_integrals(c)
        r1, r2 = j2 / j1, j3 / j1
        print(f"J1 = {j1!r}")
        print(f"J2 = {j2!r}")
        print(f"J3 = {j3!r}")
        print(f"r1 = J2/J1 = {r1:.11f}")
        print(f"r2 = J3/J1 = {r2:.11f}")
        return 0
    a = complex(args.a_real, args.a_imag)  # silhol
    ratio = per.silhol_ratio(per.CurveA(a))
    print(f"ratio = {ratio.real:.11f} + {ratio.imag:.11f}i")
    print(f"|Im|/|ratio| = {abs(ratio.imag) / abs(ratio):.3e}")
    return 0


def _cmd_origami_check(args) -> int:
    s = _require_valid(_read_surface(args.surface))
    cert = cons.origami_check(s)
    if cert is None:
        print("not an origami")
        return 0
    b1, b2 = cert.basis
    print(f"origami: degree {cert.degree}")
    print(f"lattice basis: ({to_float(b1[0])!r}, {to_float(b1[1])!r}) ({to_float(b2[0])!r}, {to_float(b2[1])!r})")
    return 0


def _cmd_genus2(args) -> int:
    s = _require_valid(_read_surface(args.surface))
    out = sf.cut_and_reglue_square(s, args.square, args.axis)
    _write_surface(out, args.output)
    return 0


def _cell_digest(cell: iso.Cell) -> str:
    return hashlib.sha1(repr(cell.comb_hash).encode()).hexdigest()[:12]


def _cmd_tessellate(args) -> int:
    s = _require_valid(_read_surface(args.surface))
    tess = iso.explore(s, iso.HPoint(args.x, args.y), args.radius)
    print(f"cells: {len(tess.cells)}")
    print(f"walls: {len(tess.all_walls())}")
    if args.json:
        cells = sorted(tess.cells, key=lambda c: (c.sample.x, c.sample.y))
        key_index = {c.key: i for i, c in enumerate(cells)}
        data = {
            "surface": "input",
            "radius": args.radius,
            "cells": [
                {
                    "hash": _cell_digest(c),
                    "sample": [c.sample.x, c.sample.y],
                    "walls": [list(w.normalized_floats()) for w in c.walls],
                }
                for c in cells
            ],
            "adjacency": sorted([key_index[a], key_index[b]] for a, b, _ in tess.adjacency),
        }
        with open(args.json, "w") as fp:
            json.dump(data, fp, indent=1)
            fp.write("\n")
    if args.svg:
        with open(args.svg, "w") as fp:
            fp.write(iso.render_svg(tess))
    return 0


def _finite_scalar(text: str):
    """A -m entry: a scalar_from_str literal of finite value."""
    try:
        x = scalar_from_str(text)
    except (ValueError, ZeroDivisionError):
        x = math.nan
    if not (is_exact(x) or math.isfinite(x)):
        raise argparse.ArgumentTypeError(f"not a finite scalar: {text!r}")
    return x


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative number as a value.

    argparse's own test knows only "-5" and "-0.5", so it takes "-1/2",
    "-5e-1" or "-1e-9" for options.  No option here looks like a number;
    add_subparsers makes subparsers of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)$")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parse_args leaves it unchanged, so
    every run() of the process shares it."""
    parser = _Parser(
        prog="flatsurf",
        description="Flat surfaces: build, inspect, transform, solve, tessellate.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="construct a named surface")
    p.add_argument("what", choices=["ay", "ay-prime", "trapezoid", "parallelogram", "escalator", "rectangle"])
    p.add_argument("--b", type=float, help="trapezoid short base")
    p.add_argument("--B", type=float, help="trapezoid long base")
    p.add_argument("--h", type=float, help="trapezoid height")
    p.add_argument("--s1x", type=float)
    p.add_argument("--s1y", type=float)
    p.add_argument("--s2x", type=float)
    p.add_argument("--s2y", type=float)
    p.add_argument("--t", type=float, help="rectangle-family curve parameter t")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_build)

    p = subs.add_parser("info", help="genus, cone angles, area")
    p.add_argument("surface", nargs="?", default=None)
    p.set_defaults(func=_cmd_info)

    p = subs.add_parser("delaunay", help="Delaunay decomposition census")
    p.add_argument("surface", nargs="?", default=None)
    p.add_argument("--out", default=None, help="write the decomposition as a surface file")
    p.add_argument("--svg", default=None, help="write an SVG net of the cells")
    p.set_defaults(func=_cmd_delaunay)

    p = subs.add_parser("isometries", help="isometry group of the surface")
    p.add_argument("surface", nargs="?", default=None)
    p.set_defaults(func=_cmd_isometries)

    p = subs.add_parser("apply", help="apply a 2x2 linear map")
    p.add_argument("-m", "--matrix", nargs=4, type=_finite_scalar, required=True, metavar=("A", "B", "C", "D"))
    p.add_argument("surface", nargs="?", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_apply)

    p = subs.add_parser("solve-ay", help="solve the integral system for the AY parameters")
    p.add_argument("--tol", type=float, default=quadrature.TOL)
    p.set_defaults(func=_cmd_solve_ay)

    p = subs.add_parser("solve-rect", help="solve the rectangle-case equation for t")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--tol", type=float, default=quadrature.TOL)
    p.set_defaults(func=_cmd_solve_rect)

    p = subs.add_parser("periods", help="segment integrals and the genus-2 period ratio")
    modes = p.add_subparsers(dest="mode", required=True)
    pr = modes.add_parser("ratios")
    pr.add_argument("--t", type=float, required=True)
    pr.add_argument("--u", type=float, required=True)
    pr.set_defaults(func=_cmd_periods)
    ps = modes.add_parser("silhol")
    ps.add_argument("--a-imag", type=float, required=True)
    ps.add_argument("--a-real", type=float, default=0.0)
    ps.set_defaults(func=_cmd_periods)

    p = subs.add_parser("origami-check", help="square-tiled (torus cover) test")
    p.add_argument("surface", nargs="?", default=None)
    p.set_defaults(func=_cmd_origami_check)

    p = subs.add_parser("genus2", help="cut and reglue a square: the genus-2 correspondence")
    p.add_argument("surface", nargs="?", default=None)
    p.add_argument("--square", type=int, required=True)
    p.add_argument("--axis", choices=[sf.HORIZONTAL, sf.VERTICAL], default=sf.HORIZONTAL)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_genus2)

    p = subs.add_parser("tessellate", help="iso-Delaunay tessellation of the half-plane")
    p.add_argument("surface", nargs="?", default=None)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--x", type=float, default=0.0001)
    p.add_argument("--y", type=float, default=1.0001)
    p.add_argument("--svg", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_tessellate)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:  # an OSError, for main to handle
        raise
    except (SurfaceError, dl.DelaunayError, per.PeriodsError, QuadratureError, iso.IsoDelaunayError,
            CliError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`| head`).  Point stdout at devnull so the
        # interpreter's flush at exit does not fail again, and report failure.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
