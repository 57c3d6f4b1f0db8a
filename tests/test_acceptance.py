"""Acceptance criteria.

Each test exercises one criterion at its stated tolerance and runtime
budget and prints one PASS/FAIL line (run with -s to see them live).
"""

import cmath
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from flatsurfkit import delaunay as dl
from flatsurfkit import isodelaunay as iso
from flatsurfkit import periods as per
from flatsurfkit import symmetry as sym
from flatsurfkit.constructions import TrapezoidShape, ay_surface, origami_check, trapezoid_family
from flatsurfkit.numeric import ALPHA, CubicNumber, incircle_det, sign
from flatsurfkit.surface import cone_points, cut_and_reglue_square, genus

A = float(ALPHA)


@contextmanager
def criterion(number: int, title: str, limit: float):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"{status}  criterion {number:2d} [{elapsed:7.2f}s / limit {limit:g}s]  {title}")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s runtime budget"


def test_criterion_01_ay_invariants():
    with criterion(1, "AY surface: genus 3, two exact 6pi cone points", 1.0):
        s = ay_surface()
        assert s.is_exact()
        assert genus(s) == 3
        cones = cone_points(s)
        assert sorted(c.angle_pi for c in cones) == [6, 6]


def test_criterion_02_delaunay_decomposition():
    with criterion(2, "AY Delaunay cells: 2 squares (side (a^2, a)) + 4 trapezoids, exact", 5.0):
        s = ay_surface()
        tri = dl.delaunayize(dl.triangulate(s))
        assert tri.doubles is not None  # only an exact triangulation keeps doubles
        dec = dl.decomposition(tri)
        assert len(dec.polygons) == 6

        a = ALPHA
        square_sides = {(a * a, a), (-a, a * a), (-a * a, -a), (a, -a * a)}
        mirror_sides = {(a, a * a), (-a * a, a), (-a, -a * a), (a * a, -a)}
        squares, trapezoids = [], []
        for p in dec.polygons:
            vecs = set(p.edge_vectors())
            if vecs == square_sides or vecs == mirror_sides:
                squares.append(p)
            else:
                trapezoids.append(p)
        assert len(squares) == 2 and len(trapezoids) == 4

        def length2_profile(p):
            return sorted((v[0] * v[0] + v[1] * v[1] for v in p.edge_vectors()),
                          key=float)

        base = length2_profile(trapezoids[0])
        for p in trapezoids[1:]:
            assert all(sign(x - y) == 0 for x, y in zip(length2_profile(p), base))
        for p in trapezoids:
            ev = p.edge_vectors()
            # one antiparallel base pair and exactly equal-length legs
            pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)
                     if sign(ev[i][0] * ev[j][1] - ev[i][1] * ev[j][0]) == 0]
            assert len(pairs) == 1
            i, j = pairs[0]
            legs = [k for k in range(4) if k not in (i, j)]
            l1 = ev[legs[0]][0] ** 2 + ev[legs[0]][1] ** 2
            l2 = ev[legs[1]][0] ** 2 + ev[legs[1]][1] ** 2
            assert sign(l1 - l2) == 0


def test_criterion_03_pseudo_anosov_invariance():
    with criterion(3, "affine_equivalent: diag(1/a, a) witness, diag(2, 1) none", 10.0):
        s = ay_surface()
        pa = ((ALPHA.inverse(), CubicNumber(0)), (CubicNumber(0), ALPHA))
        assert sym.affine_equivalent(s, s, pa) is not None
        stretch = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
        assert sym.affine_equivalent(s, s, stretch) is None


def test_criterion_04_symmetry_group():
    with criterion(4, "isometry group: dihedral of order 8; tau has 8 fixed points", 10.0):
        isos = sym.isometries(ay_surface())
        summary = sym.group_summary(isos)
        assert summary.order == 8 and summary.dihedral

        def near(m, target):
            return all(abs(m[i][j] - target[i][j]) < 1e-12 for i in range(2) for j in range(2))

        ident = [i for i in isos if near(i.derivative_floats(), ((1, 0), (0, 1)))]
        tau = [i for i in isos if near(i.derivative_floats(), ((-1, 0), (0, -1)))]
        sigmas = [i for i in isos
                  if near(i.derivative_floats(), ((1, 0), (0, -1)))
                  or near(i.derivative_floats(), ((-1, 0), (0, 1)))]
        assert len(ident) == 1 and len(tau) == 1 and len(sigmas) == 2
        for s_inv in sigmas:
            assert s_inv.orientation == -1
            locus = sym.fixed_points(s_inv)
            assert not locus.points and not locus.segments
        rhos = [i for i in isos if i.orientation == -1 and i not in sigmas]
        assert len(rhos) == 2
        for r in rhos:
            for s_inv in sigmas:
                assert sym.element_order(sym.compose(r, s_inv)) == 4
        assert len(sym.fixed_points(tau[0]).points) == 8


def test_criterion_05_integral_solver():
    with criterion(5, "solve_tu((1/a, 1+a)) reproduces t_AY, u_AY to 1e-8", 30.0):
        target = (1.0 / A, 1.0 + A)
        c = per.solve_tu(target)
        assert abs(c.t - 1.91709843377) < 1e-8
        assert abs(c.u - 2.07067976690) < 1e-8
        r1, r2 = per.shape_ratios(c)
        assert max(abs(r1 - target[0]), abs(r2 - target[1])) < 1e-10


def test_criterion_06_rectangle_identity():
    with criterion(6, "u = 1: J3/J1 = 1 at 20 samples; rectangle solver round-trips", 30.0):
        for k in range(20):
            t = 1.0 + (50.0 - 1.0) * (k + 0.5) / 20.0
            j1, _, j3 = per.segment_integrals(per.CurveTU(t, 1.0))
            assert abs(j3 / j1 - 1.0) < 1e-9
        for t0 in (2.0, 5.0):
            r1, _ = per.shape_ratios(per.CurveTU(t0, 1.0))
            assert abs(per.solve_t_rectangle(1.0 / r1) - t0) < 1e-8


def test_criterion_07_parameter_maps():
    with criterion(7, "Phi point checks, escalator a = 1/2, induced k(tu=1) = 0", 1.0):
        c = per.CurveTU(1.7, 2.3)
        tu = c.t * c.u
        assert abs(per.phi_map(c, 1.0)) < 1e-12
        assert cmath.isinf(per.phi_map(c, -tu))
        assert abs(per.phi_map(c, 1j * math.sqrt(tu)) + 1) < 1e-12
        assert abs(per.phi_map(c, -1j * math.sqrt(tu)) - 1) < 1e-12
        assert per.a_from_s((math.sqrt(3) + 1j) / 2) == 0.5
        assert per.induced_q_coefficient(per.CurveTU(2.0, 0.5)) == 0


def test_criterion_08_silhol_ratio():
    with criterion(8, "period ratio real iff a is positive imaginary", 10.0):
        for a in (0.5j, 2j):
            r = per.silhol_ratio(per.CurveA(a))
            assert abs(r.imag) / abs(r) < 1e-8
        r = per.silhol_ratio(per.CurveA(0.5))
        assert abs(r.imag) > 1e-4


def test_criterion_09_genus2_construction():
    with criterion(9, "cut-and-reglue of the AY square: genus 2, four 3pi cones", 1.0):
        xi = cut_and_reglue_square(ay_surface(), 0)
        assert genus(xi) == 2
        assert sorted(c.angle_pi for c in cone_points(xi)) == [3, 3, 3, 3]


_TESSELLATION_CACHE = {}


def _ay_tessellation():
    if "tess" not in _TESSELLATION_CACHE:
        s = ay_surface()
        z0 = iso.HPoint(0.0001, 1.0001)
        # ball covering axis values |z| in [a^2, 1/a^2]
        radius = max(
            z0.hyperbolic_distance(iso.HPoint(0.0, A * A)),
            z0.hyperbolic_distance(iso.HPoint(0.0, 1.0 / (A * A))),
        ) + 0.01
        _TESSELLATION_CACHE["tess"] = (s, iso.explore(s, z0, radius))
    return _TESSELLATION_CACHE["tess"]


def test_criterion_10_iso_delaunay_tessellation():
    with criterion(10, "tessellation: mirror + 1/a^2 periodicity, axis vertices, wall oracle", 300.0):
        s, tess = _ay_tessellation()
        assert len(tess.cells) >= 10

        hashes = sorted(c.comb_hash for c in tess.cells)
        mirror_hashes = []
        pa_hashes = []
        scale = 1.0 / (A * A)
        for c in tess.cells:
            mirrored = iso.cell_at(s, iso.HPoint(-c.sample.x, c.sample.y))
            mirror_hashes.append(mirrored.comb_hash)
            assert mirrored.comb_hash == c.comb_hash  # pointwise, stronger
            moved = iso.cell_at(s, iso.HPoint(c.sample.x * scale, c.sample.y * scale))
            pa_hashes.append(moved.comb_hash)
            assert moved.comb_hash == c.comb_hash
        assert sorted(mirror_hashes) == hashes
        assert sorted(pa_hashes) == hashes

        one = CubicNumber(1)
        assert len(iso.walls_through(tess, one, CubicNumber(0))) == 3
        inv_a2 = (ALPHA * ALPHA).inverse()
        assert len(iso.walls_through(tess, inv_a2, CubicNumber(0))) == 2

        # Every hinge of every supporting wall: the edges whose cached wall
        # has an oriented key in the cell's key.
        rnd = random.Random(17)
        for cell in tess.cells:
            checked = set()
            for edge, wall in cell.triangulation.hinge_cache.items():
                if not isinstance(wall, iso.Wall) or wall.oriented_key() not in cell.key:
                    continue
                checked.add(wall.oriented_key())
                h = dl.hinge(cell.triangulation, edge)
                quad = [(float(p[0]), float(p[1])) for p in (h.p1, h.p2, h.p3, h.p4)]
                for _ in range(100):
                    x = rnd.uniform(-3.0, 3.0)
                    y = rnd.uniform(0.05, 4.0)
                    moved = [(px + x * py, y * py) for px, py in quad]
                    det = incircle_det(*moved)
                    q = float(wall.evaluate(x * x + y * y, x))
                    if abs(q) > 1e-9 and abs(det) > 1e-12:
                        assert (q > 0) == (det > 0)
            assert checked == cell.key


def test_criterion_11_origami_checks():
    with criterion(11, "origami: 2mu = 2 rectangle passes; AY fails (incommensurable)", 5.0):
        rect = trapezoid_family(TrapezoidShape(1.0, 1.0, 0.5))
        cert = origami_check(rect)
        assert cert is not None and cert.degree >= 1
        ay = ay_surface()
        assert origami_check(ay) is None
        # the incommensurability witness: the holonomy coordinates 1 - a
        # (trapezoid base) and a^2 (square side) are Q-independent
        holonomy_x = {CubicNumber.coerce(v[0]) for p in ay.polygons for v in p.edge_vectors()}
        w1 = CubicNumber(1, -1, 0)
        w2 = CubicNumber(0, 0, 1)
        assert any(h == w1 for h in holonomy_x) and any(h == w2 for h in holonomy_x)


def test_concentric_circle_radii_scale_by_alpha_squared():
    # among the explored walls, the circles centered at 0 have radii in
    # geometric progression with ratio 1/alpha^2 = 3.38...
    s, tess = _ay_tessellation()
    radii = []
    for w in tess.all_walls():
        a, b, c = w.normalized_floats()
        if a != 0.0 and abs(b) < 1e-12:
            r2 = -c / a
            if r2 > 0:
                radii.append(math.sqrt(r2))
    radii.sort()
    assert any(abs(r - 1.0) < 1e-9 for r in radii)
    ratio = 1.0 / (A * A)
    consecutive = [radii[i + 1] / radii[i] for i in range(len(radii) - 1)]
    assert consecutive and all(abs(q - ratio) < 1e-6 for q in consecutive)
