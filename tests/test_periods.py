"""Hyperelliptic segment integrals, solvers, and parameter maps."""

import cmath
import inspect
import math
import random
import re

import pytest

from flatsurfkit import periods
from flatsurfkit.numeric import ALPHA
from flatsurfkit.periods import (
    BranchAmbiguityError,
    CurveA,
    CurveS,
    CurveTU,
    PeriodsError,
    a_from_s,
    a_from_tu,
    induced_q_coefficient,
    phi_map,
    psi_map,
    segment_integrals,
    shape_ratios,
    silhol_periods,
    silhol_ratio,
    solve_t_rectangle,
    solve_tu,
)

A = float(ALPHA)
T_AY = 1.91709843377
U_AY = 2.07067976690


def clear_kept_starts():
    """Forget the partials passes the solvers keep at their fixed starts."""
    periods._tu_start.cache_clear()
    periods._rect_start.cache_clear()


class TestSegmentIntegrals:
    def test_ay_curve_satisfies_the_integral_system(self):
        j1, j2, j3 = segment_integrals(CurveTU(T_AY, U_AY))
        assert abs(j1 / j2 - A) < 1e-8
        assert abs(j3 / j1 - (1 + A)) < 1e-8

    def test_rectangle_line_tail_identity(self):
        # x -> t/x fixes the integrand when u = 1, so J3 = J1; near t = 1 and
        # for large t the integrands' singularities come close to the segments
        for t in (1.000001, 1.0001, 1.001, 1.3, 1.5, 2.0, 3.7, 4.9, 49.0, 1e3, 1e4, 3e4, 1e5):
            j1, _, j3 = segment_integrals(CurveTU(t, 1.0))
            assert abs(j3 / j1 - 1.0) < 1e-12, t

    def test_no_tolerance_parameter(self):
        # every period integral is taken at quadrature.TOL, which the
        # solvers' residual and step stops assume
        for fn in (segment_integrals, shape_ratios, solve_tu, solve_t_rectangle, silhol_periods, silhol_ratio):
            assert "tol" not in inspect.signature(fn).parameters, fn.__name__

    def test_integrals_stop_at_the_converged_level(self, monkeypatch):
        # J1 and J3 return on 16 intervals and J2 on 32, where a level was
        # accepted only once the next one agreed with it (99 evaluations);
        # the values stay within 1e-15 of what that rule returned
        evals = []
        inner = periods.integrate

        def counted(f, a, b):
            return inner(lambda *x: evals.append(x[0]) or f(*x), a, b)

        monkeypatch.setattr(periods, "integrate", counted)
        got = segment_integrals(CurveTU(2.3, 1.7))
        assert len(evals) == 67
        for j, pinned in zip(got, ("0.177412560595507", "0.3579206568013992", "0.2523189461954724")):
            assert abs(j - float(pinned)) <= 1e-15

    def test_domain_validation(self):
        with pytest.raises(PeriodsError):
            segment_integrals(CurveTU(0.9, 1.0))
        with pytest.raises(PeriodsError):
            segment_integrals(CurveTU(2.0, -1.0))


class TestShapeRatios:
    def test_ay_values(self):
        r1, r2 = shape_ratios(CurveTU(T_AY, U_AY))
        assert abs(r1 - 1 / A) < 1e-8
        assert abs(r2 - (1 + A)) < 1e-8

    def test_u_one_gives_rectangle(self):
        _, r2 = shape_ratios(CurveTU(2.0, 1.0))
        assert abs(r2 - 1.0) < 1e-9

    @pytest.mark.parametrize("t, u", ((5e102, 1.0), (1e160, 1.0), (1e200, 1.0), (2.0, 1e300)))
    def test_overflowing_integrand_is_a_periods_error(self, t, u):
        # at t = 5e102 J1's integrand overflows only for x > 0.44
        c = CurveTU(t, u)
        with pytest.raises(PeriodsError, match=re.escape(f"period integrand overflows for {c}")):
            shape_ratios(c)


class TestSolveTU:
    def test_arnoux_yoccoz_values(self):
        c = solve_tu((1 / A, 1 + A))
        assert abs(c.t - T_AY) < 1e-8
        assert abs(c.u - U_AY) < 1e-8
        r1, r2 = shape_ratios(c)
        assert max(abs(r1 - 1 / A), abs(r2 - (1 + A))) < 1e-10

    def test_round_trip(self):
        target = shape_ratios(CurveTU(2.5, 1.5))
        c = solve_tu(target)
        assert abs(c.t - 2.5) < 1e-7 and abs(c.u - 1.5) < 1e-7

    def test_rectangle_target_gives_u_one(self):
        r1, _ = shape_ratios(CurveTU(2.0, 1.0))
        c = solve_tu((r1, 1.0))
        assert abs(c.u - 1.0) < 1e-8

    def test_round_trip_grid(self):
        for t0 in (1.2, 2.6, 4.0):
            for u0 in (0.5, 1.75, 4.0):
                c = solve_tu(shape_ratios(CurveTU(t0, u0)))
                assert abs(c.t - t0) < 1e-7 and abs(c.u - u0) < 1e-7

    def test_infeasible_target_rejected(self):
        with pytest.raises(PeriodsError):
            solve_tu((-1.0, 1.5))
        with pytest.raises(PeriodsError):
            solve_tu((1.0, 0.0))

    def test_ay_solve_takes_few_ratio_evaluations(self, monkeypatch):
        # one quadrature pass per trial point gives the ratios and their
        # Jacobian; finite differences took 10 ratio evaluations here
        calls = []
        inner = periods._shape_ratios_and_jacobian

        def counted(c):
            calls.append(c)
            return inner(c)

        monkeypatch.setattr(periods, "_shape_ratios_and_jacobian", counted)
        target = (1 / A, 1 + A)
        c = solve_tu(target)
        r1, r2 = shape_ratios(c)
        assert max(abs(r1 - target[0]), abs(r2 - target[1])) < periods._RESIDUAL_TOL
        assert len(calls) <= 6

    @pytest.mark.parametrize("t0, u0", ((1.05, 0.5), (1.05, 2.0), (1.05, 0.05), (1.2, 0.05), (4.0, 0.05)))
    def test_near_degenerate_round_trip(self, t0, u0):
        # a branch point near a segment's end: J2's segment is short, or
        # -u and -tu crowd J1's end 0
        c = solve_tu(shape_ratios(CurveTU(t0, u0)))
        assert abs(c.t - t0) < 1e-8 and abs(c.u - u0) < 1e-8

    def test_unreachable_target_fails_in_damping(self):
        # r2 = J3/J1 = 1000 with r1 = 1 is outside the family's image
        with pytest.raises(PeriodsError, match="damping failed"):
            solve_tu((1.0, 1000.0))

    @staticmethod
    def _count_passes(monkeypatch):
        passes = {"partials": 0, "value": 0}
        inner = periods._integrals

        def counted(c, j3=True, partials=False):
            passes["partials" if partials else "value"] += 1
            return inner(c, j3, partials)

        monkeypatch.setattr(periods, "_integrals", counted)
        return passes

    def test_halved_trial_points_take_value_only_passes(self, monkeypatch):
        # the target's Newton path halves almost every step: a partials
        # pass at each of them made 172 before the PeriodsError
        passes = self._count_passes(monkeypatch)
        with pytest.raises(PeriodsError, match="damping failed"):
            solve_tu((0.01, 100.0))
        assert passes["partials"] <= 30
        assert passes["value"] > passes["partials"]

    def test_round_trip_passes(self, monkeypatch):
        # the target's value-only pass, then one partials pass per Newton
        # point: every full step is accepted.  The pass at the start is kept,
        # so a second solve makes one partials pass fewer.
        clear_kept_starts()
        passes = self._count_passes(monkeypatch)
        c = solve_tu(shape_ratios(CurveTU(2.3, 1.7)))
        assert abs(c.t - 2.3) < 1e-8 and abs(c.u - 1.7) < 1e-8
        assert passes == {"partials": 5, "value": 1}
        passes.update(partials=0, value=0)
        assert solve_tu(shape_ratios(CurveTU(2.3, 1.7))) == c
        assert passes == {"partials": 4, "value": 1}

    @pytest.mark.parametrize("target", ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf),
                                        (-math.inf, 1.0), (math.nan, 1.0)))
    def test_non_finite_target_is_rejected_before_any_quadrature(self, target, monkeypatch):
        # (inf, 1.0) halved its step down to 1e-8 and raised "damping failed"
        clear_kept_starts()
        passes = self._count_passes(monkeypatch)
        with pytest.raises(PeriodsError, match=re.escape(f"target ratios must be finite: {target}")):
            solve_tu(target)
        assert passes == {"partials": 0, "value": 0}


class TestAnalyticPartials:
    """The partials that the quadrature carries on the nodes of J1, J2, J3."""

    GRID = [(T_AY, U_AY)] + [(t, u) for t in (1.2, 2.6, 4.0) for u in (0.5, 0.8, 2.0, 4.0)]

    @pytest.mark.parametrize("t, u", GRID)
    def test_match_central_differences(self, t, u):
        h = 1e-6
        c = CurveTU(t, u)
        parts = periods._integrals(c, partials=True)
        ratios, jac = periods._shape_ratios_and_jacobian(c)
        shifted = {}
        for dt, du in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
            shifted[dt, du] = segment_integrals(CurveTU(t + dt, u + du))
        for k, (_, grad) in enumerate(parts):
            d_t = (shifted[h, 0.0][k] - shifted[-h, 0.0][k]) / (2 * h)
            d_u = (shifted[0.0, h][k] - shifted[0.0, -h][k]) / (2 * h)
            assert abs(grad.real - d_t) <= 1e-6 * abs(d_t), (k, "t")
            assert abs(grad.imag - d_u) <= 1e-6 * abs(d_u), (k, "u")
        assert ratios == shape_ratios(c)
        for k, row in enumerate(jac):
            r = lambda j: j[k + 1] / j[0]
            d_t = (r(shifted[h, 0.0]) - r(shifted[-h, 0.0])) / (2 * h)
            d_u = (r(shifted[0.0, h]) - r(shifted[0.0, -h])) / (2 * h)
            assert abs(row[0] - d_t) <= 1e-6 * abs(d_t) and abs(row[1] - d_u) <= 1e-6 * abs(d_u), k

    @pytest.mark.parametrize("t, u", GRID)
    def test_values_are_those_of_segment_integrals(self, t, u):
        c = CurveTU(t, u)
        assert tuple(j for j, _ in periods._integrals(c, partials=True)) == segment_integrals(c)


class TestSolveRectangle:
    def test_round_trip(self):
        for t0 in (1.7, 3.0, 6.0):
            r1, _ = shape_ratios(CurveTU(t0, 1.0))
            mu = 1.0 / r1
            t = solve_t_rectangle(mu)
            assert abs(t - t0) < 1e-8

    def test_mu_one_residual(self):
        t = solve_t_rectangle(1.0)
        j1, j2, _ = segment_integrals(CurveTU(t, 1.0))
        assert abs(j1 - j2) < 1e-10

    def test_monotone_scan(self):
        ts = [solve_t_rectangle(mu) for mu in (0.3, 0.5, 0.8, 1.2)]
        assert all(x > 1 for x in ts)
        assert ts == sorted(ts, reverse=True)

    def test_log_uniform_round_trip(self):
        # 25 values of t0 spread log-uniformly in t - 1 over the whole range
        for k in range(25):
            t0 = 1.0 + 10.0 ** (-3.0 + 7.5 * k / 24)
            j1, j2, _ = segment_integrals(CurveTU(t0, 1.0))
            assert abs(solve_t_rectangle(j1 / j2) - t0) < 1e-8 * t0

    @pytest.mark.parametrize("t0", (1.2, 2.0, 3.0, 6.0, 50.0))
    def test_few_integral_evaluations(self, t0, monkeypatch):
        j1, j2, _ = segment_integrals(CurveTU(t0, 1.0))
        calls = []
        inner = periods._integrals

        def counted(c, **kw):
            calls.append(c.t)
            return inner(c, **kw)

        monkeypatch.setattr(periods, "_integrals", counted)
        t = solve_t_rectangle(j1 / j2)
        assert abs(t - t0) < 1e-8
        assert len(calls) <= 8

    def test_root_on_a_grid_point(self):
        # t = 2 is Newton's starting point
        j1, j2, _ = segment_integrals(CurveTU(2.0, 1.0))
        assert abs(solve_t_rectangle(j1 / j2) - 2.0) < 1e-12

    @pytest.mark.parametrize("mu", (5.0, 0.003, math.inf, 1e-300))
    def test_root_outside_the_grid(self, mu):
        # Newton keeps t in [1 + 10**-3, 1 + 10**4.5]
        with pytest.raises(PeriodsError, match=r"t in \[1\.001, 31623\.8\]"):
            solve_t_rectangle(mu)


class TestKeptStarts:
    """Each solver's first partials pass, at a start no target changes, runs
    once per process; a solve that finds it kept returns the same doubles."""

    SEEDS = range(20)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_solve_tu_cold_and_warm(self, seed):
        rng = random.Random(seed)
        target = shape_ratios(CurveTU(rng.uniform(1.2, 4.0), rng.uniform(0.5, 4.0)))
        clear_kept_starts()
        cold = solve_tu(target)
        assert periods._tu_start.cache_info().currsize == 1
        warm = solve_tu(target)
        assert (warm.t, warm.u) == (cold.t, cold.u)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_solve_t_rectangle_cold_and_warm(self, seed):
        j1, j2, _ = segment_integrals(CurveTU(random.Random(seed).uniform(1.5, 6.0), 1.0))
        clear_kept_starts()
        cold = solve_t_rectangle(j1 / j2)
        assert periods._rect_start.cache_info().currsize == 1
        assert solve_t_rectangle(j1 / j2) == cold

    def test_solves_leave_the_kept_passes_unchanged(self):
        kept_tu, kept_rect = periods._tu_start(), periods._rect_start()
        solve_tu((1 / A, 1 + A))
        solve_t_rectangle(0.05)
        assert periods._tu_start() is kept_tu and periods._rect_start() is kept_rect
        assert kept_tu == periods._shape_ratios_and_jacobian(CurveTU(*periods._TU_START))
        assert kept_rect == periods._integrals(CurveTU(2.0, 1.0), j3=False, partials=True)


class TestParameterMaps:
    def test_phi_special_points(self):
        c = CurveTU(2.0, 1.0)
        tu = 2.0
        assert phi_map(c, 1.0) == 0
        assert cmath.isinf(phi_map(c, -tu))
        assert abs(phi_map(c, 1j * math.sqrt(tu)) - (-1)) < 1e-12
        assert abs(phi_map(c, -1j * math.sqrt(tu)) - 1) < 1e-12

    def test_a_from_tu_formula(self):
        got = a_from_tu(CurveTU(2.0, 1.0))
        assert abs(got - 1j * math.sqrt(0.5) * 0.5) < 1e-15

    def test_a_and_its_reciprocal(self):
        c = CurveTU(3.1, 0.8)
        a = a_from_tu(c)
        inv = 1j * math.sqrt(c.t / c.u) * (1 + c.u) / (1 - c.t)
        assert abs(a * inv - 1) < 1e-12

    def test_a_from_tu_positive_imaginary(self):
        for t in (1.2, 2.0, 5.0):
            for u in (0.3, 1.0, 4.0):
                a = a_from_tu(CurveTU(t, u))
                assert a.real == 0 and a.imag > 0

    def test_psi_special_points(self):
        s = (math.sqrt(3) + 1j) / 2
        assert abs(psi_map(s, 1j) - (-1)) < 1e-15
        assert abs(psi_map(s, -1j) - 1) < 1e-15
        assert psi_map(s, s) == 0
        assert cmath.isinf(psi_map(s, -1 / s))

    def test_a_from_s_escalator(self):
        assert a_from_s((math.sqrt(3) + 1j) / 2) == 0.5

    def test_a_from_s_unit_circle(self):
        for theta in (0.4, 1.0, 1.4):
            s = cmath.exp(1j * theta)
            assert abs(a_from_s(s) - s.imag) < 1e-15

    def test_a_from_s_in_unit_interval(self):
        for s in (0.3 + 0.9j, -1.2 + 2.0j, 0.1 + 0.2j):
            assert 0 < a_from_s(s) < 1

    def test_a_from_s_domain(self):
        with pytest.raises(PeriodsError):
            a_from_s(1j)
        with pytest.raises(PeriodsError):
            a_from_s(1.0 - 0.5j)

    def test_induced_q_coefficient(self):
        assert induced_q_coefficient(CurveTU(2.0, 0.5)) == 0
        assert abs(induced_q_coefficient(CurveTU(2.0, 1.0)) - 1j / math.sqrt(2)) < 1e-15
        for t, u in ((1.5, 0.7), (3.0, 2.0)):
            k = induced_q_coefficient(CurveTU(t, u))
            assert k.real == 0


class TestSilholRatio:
    def test_real_on_positive_imaginary_axis(self):
        for a in (0.5j, 2j):
            r = silhol_ratio(CurveA(a))
            assert abs(r.imag) / abs(r) < 1e-8

    def test_not_real_for_real_a(self):
        r = silhol_ratio(CurveA(0.5))
        assert abs(r.imag) > 1e-4

    # silhol_periods as computed by the earlier numerically tracked branch
    # (a 512-point sign table per segment).  0.5, -0.5, -0.3, -2 and 3 put
    # branch points inside a segment; -0.4990234375 puts the root a at
    # s = 0.5 + 2**-10 on [-1, 0], where the branch is fixed at s = 0.5.
    PINNED_PERIODS = {
        0.5j: (3.004032243859447 + 0.6393489912492857j, -0.6030696834669318 - 2.5546441743352037j),
        2j: (3.004032243859447 - 0.6393489912492857j, -1.0887370607735292 - 1.7616135691432306j),
        0.5: (2.5208297172354626 + 0j, -0.6754542869896176 + 2.520829717235463j),
        -0.5: (3.196284004225081 - 4.366205147481309j, -1.169921143256226 + 4.366205147481309j),
        -0.3: (2.068652457972259 - 3.1848660733258365j, -1.1162136153535775 + 3.1848660733258365j),
        -2.0: (3.196284004225081 - 4.366205147481309j, -3.196284004225081 + 0j),
        3.0: (2.3807293824897267 + 0j, -1.5822100371664556j),
        0.7 - 0.4j: (2.670773558519964 - 0.05058480484183574j, 0.4959262786503829 - 2.322073381617236j),
        1e-13 + 0.5j: (3.004032243859311 + 0.6393489912491389j, -0.6030696834669313 - 2.554644174335096j),
        -0.4990234375: (3.1898088183327045 - 4.359573681761388j, -1.1697648634286821 + 4.359573681761386j),
    }

    @pytest.mark.parametrize("a", list(PINNED_PERIODS))
    def test_pinned_periods(self, a):
        got = silhol_periods(CurveA(a))
        for value, want in zip(got, self.PINNED_PERIODS[a]):
            assert abs(value - want) < 1e-12

    @pytest.mark.parametrize("x", (-0.5, -0.3, 0.5, 3.0))
    def test_real_a_as_complex(self, x):
        # 1/complex(x) carries a -0.0 imaginary part for x < 0
        assert silhol_periods(CurveA(complex(x))) == silhol_periods(CurveA(x))

    @pytest.mark.parametrize("a", (0.5 + 1e-16j, -0.5 - 1e-16j))
    def test_root_within_rounding_of_the_path(self, a):
        # the roots a and +-1 inside [0, 1/a] lie about 1e-16 off its line:
        # passed on the left of travel as if on it, whichever side the
        # rounding puts them
        got = silhol_periods(CurveA(a))
        for value, want in zip(got, self.PINNED_PERIODS[a.real]):
            assert abs(value - want) < 1e-12

    def test_branch_point_next_to_an_endpoint(self):
        # a**2 ~ 1.9e-4 puts the root a closer to 0 on [0, 1/a] than the
        # first cell of a 512-point grid; value from a 20001-point grid
        got = silhol_periods(CurveA(-0.013908461946763317))
        assert abs(got[0] - (0.37310928872675675 - 0.941262239484158j)) < 1e-12
        assert abs(got[1] - (-0.568152950757401 + 0.9412622394841582j)) < 1e-12

    def test_branch_ambiguity_near_interior_root(self):
        # a sits 1e-13 off the segment [0, 1/a]: ambiguous continuation
        with pytest.raises(BranchAmbiguityError):
            silhol_ratio(CurveA(0.5 + 1e-13j))

    def test_singular_curve_rejected(self):
        with pytest.raises(PeriodsError):
            silhol_ratio(CurveA(1.0))


class TestCurveDomains:
    def test_curve_s(self):
        with pytest.raises(PeriodsError):
            CurveS(1j)
        with pytest.raises(PeriodsError):
            CurveS(0.5 - 1j)
        assert CurveS(0.5 + 1j).s == 0.5 + 1j

    @pytest.mark.parametrize("call, message", (
        (lambda: a_from_tu(CurveTU(math.inf, 1.0)), "out of domain"),
        (lambda: phi_map(CurveTU(2.0, math.inf), 0.5), "out of domain"),
        (lambda: psi_map(complex(math.inf, 1), 0.5), "s must be finite"),
        (lambda: a_from_s(complex(math.nan, 1)), "s must be finite"),
        (lambda: silhol_ratio(CurveA(complex(math.nan, 0.5))), "a must be finite"),
        (lambda: silhol_ratio(CurveA(complex(0.0, math.inf))), "a must be finite"),
    ), ids=["a_from_tu-t-inf", "phi_map-u-inf", "psi_map-s-inf", "a_from_s-s-nan",
            "silhol-a-nan", "silhol-a-inf"])
    def test_non_finite_parameters_are_rejected(self, call, message):
        # Not NaN, the point at infinity or a quadrature that cannot converge.
        with pytest.raises(PeriodsError, match=message):
            call()
