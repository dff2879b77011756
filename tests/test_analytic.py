import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mcflow import analytic
from mcflow.analytic import (
    SobolevReport,
    SphereProductScene,
    SphereScene,
    ZonalFunction,
    calibrated_sobolev_constant,
    hoffman_spruck_constant,
    sobolev_check_zonal,
    unit_ball_volume,
    unit_sphere_area,
    zonal_integral,
)
from mcflow.errors import (
    NegativeTestFunction,
    PastSingularity,
    UnsupportedDimension,
    ValidationError,
)

# frozen with mpmath (dps=30): zonal integrals of v = 1 + cos(theta) on S^3(1)
MP_INT_V6 = 132.31438400210421
MP_GRAD2 = 14.804406601634038
MP_L2 = 24.674011002723397
MP_INT_V32 = 21.66434346987699
MP_LEMMA31_RHS_BASE = 75.97278722568172  # int(|dv| + 3 v) dmu


def _reference_evaluators(v):
    """v and dv/dtheta by numpy.polynomial's polyval and polyder."""
    P = np.polynomial.polynomial

    def val(th):
        return P.polyval(np.cos(th), v.coefficients)

    def der(th):
        return -np.sin(th) * P.polyval(np.cos(th), P.polyder(v.coefficients))

    return val, der


def _reference_integrals(scene, t, v, order):
    """(lp, grad2, l2), each integrand a lambda through zonal_integral."""
    n = scene.n
    r = scene.state(t).r
    val, der = _reference_evaluators(v)
    exponent = 2.0 * n / (n - 2.0)
    lp = zonal_integral(lambda th: np.abs(val(th)) ** exponent, scene, t, order)
    grad2 = zonal_integral(lambda th: (der(th) / r) ** 2, scene, t, order)
    l2 = zonal_integral(lambda th: val(th) ** 2, scene, t, order)
    return lp, grad2, l2


def _reference_curvature_weighted_sides(scene, t, v, order):
    n = scene.n
    st_ = scene.state(t)
    lp, grad2, l2 = _reference_integrals(scene, t, v, order)
    hterm = st_.h2 ** ((n + 2.0) / 2.0) * st_.vol
    return lp ** ((n - 2.0) / n), grad2 + hterm * l2


def _reference_calibration(n):
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        for coeffs in analytic._CALIBRATION_FUNCTIONS:
            lhs, base = _reference_curvature_weighted_sides(
                SphereScene(n=n, r0=r), 0.0, ZonalFunction(coeffs), 96
            )
            if base > 0:
                worst = max(worst, lhs / base)
    return worst


def _reference_report(scene, t, v, which, order, s=None, c_n=None):
    """The Sobolev checkers with one quadrature per integrand."""
    n = scene.n
    st_ = scene.state(t)
    if which == "curvature_weighted":
        constant = _reference_calibration(n) if c_n is None else c_n
        lhs, base = _reference_curvature_weighted_sides(scene, t, v, order)
        rhs = constant * base
        return SobolevReport(lhs, rhs, lhs <= rhs * (1 + 1e-12), constant)
    if which == "gradient_lower_bound":
        lp, grad2, l2 = _reference_integrals(scene, t, v, order)
        constant = hoffman_spruck_constant(n, n / (n + 1.0), b_real=True)
        bracket = lp ** ((n - 2.0) / n) / constant ** 2 - st_.h2 * (1.0 + 1.0 / s) * l2
        rhs = (n - 2.0) ** 2 / (4.0 * (n - 1.0) ** 2 * (1.0 + s)) * bracket
        return SobolevReport(grad2, rhs, grad2 >= rhs - abs(rhs) * 1e-12, constant)
    val, der = _reference_evaluators(v)
    constant = hoffman_spruck_constant(n, n / (n + 1.0), b_real=False)
    lhs = zonal_integral(
        lambda th: np.abs(val(th)) ** (n / (n - 1.0)), scene, t, order
    ) ** ((n - 1.0) / n)
    habs = math.sqrt(st_.h2)
    rhs = constant * zonal_integral(
        lambda th: np.abs(der(th)) / st_.r + np.abs(val(th)) * habs, scene, t, order
    )
    return SobolevReport(lhs, rhs, lhs <= rhs * (1 + 1e-12), constant)


class TestConstants:
    def test_low_dim_closed_forms(self):
        assert unit_sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-15)
        assert unit_sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-15)
        assert unit_sphere_area(3) == pytest.approx(2 * math.pi ** 2, rel=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)

    def test_gamma_formula_matches_recurrence_table(self):
        for n in range(1, 17):
            assert unit_sphere_area(n) == pytest.approx(
                analytic.SPHERE_AREA_TABLE[n], rel=1e-13
            )
            assert unit_ball_volume(n) == pytest.approx(
                analytic.BALL_VOLUME_TABLE[n], rel=1e-13
            )

    def test_ball_sphere_relation(self):
        for n in range(2, 12):
            assert unit_ball_volume(n) == pytest.approx(
                unit_sphere_area(n - 1) / n, rel=1e-13
            )


class TestSphereState:
    def test_unit_two_sphere_at_zero(self):
        st_ = SphereScene(n=2, r0=1.0).state(0.0)
        assert st_.h2 == pytest.approx(4.0, rel=1e-15)
        assert st_.a2 == pytest.approx(2.0, rel=1e-15)
        assert st_.aring2 == 0.0
        assert st_.T == pytest.approx(0.25, rel=1e-15)
        assert st_.vol == pytest.approx(4 * math.pi, rel=1e-15)

    def test_three_sphere_mid_flow(self):
        st_ = SphereScene(n=3, r0=1.0).state(1.0 / 12.0)
        assert st_.r ** 2 == pytest.approx(0.5, rel=1e-14)
        assert st_.h2 == pytest.approx(18.0, rel=1e-14)

    def test_blowup_near_collapse(self):
        scene = SphereScene(n=2, r0=1.0)
        st_ = scene.state(scene.collapse_time * (1 - 1e-12))
        assert st_.r < 2e-6
        assert st_.h2 > 1e11

    def test_past_singularity(self):
        scene = SphereScene(n=2, r0=1.0)
        with pytest.raises(PastSingularity):
            scene.state(scene.collapse_time)
        with pytest.raises(PastSingularity):
            scene.state(-1e-9)

    @pytest.mark.parametrize(
        "closed_form",
        [
            lambda t: SphereScene(n=2).state(t),
            lambda t: SphereProductScene(p=2, q=1).state(t),
            lambda t: SphereScene(n=2).spacetime_integral(4.0, t),
        ],
        ids=["sphere_state", "product_state", "spacetime_integral"],
    )
    def test_nan_time_rejected(self, closed_form):
        with pytest.raises(PastSingularity):
            closed_form(math.nan)

    @pytest.mark.parametrize(
        "make",
        [
            lambda r: SphereScene(n=3, r0=r),
            lambda r: SphereProductScene(p=2, q=1, a0=r),
            lambda r: SphereProductScene(p=2, q=1, b0=r),
        ],
        ids=["sphere", "product_a0", "product_b0"],
    )
    @pytest.mark.parametrize("r", [math.inf, math.nan, 0.0])
    def test_radius_must_be_positive_and_finite(self, make, r):
        with pytest.raises(ValidationError):
            make(r)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SphereScene(n=1000),
            lambda: SphereScene(n=10**400),
            lambda: SphereScene(n=2, r0=1e-200),
            lambda: SphereProductScene(p=2**62),
            lambda: SphereProductScene(p=40, a0=1e10),
            lambda: SphereScene(n=300, r0=1e-3),
        ],
        ids=[
            "n_1000", "n_10_400", "collapse_time_underflows", "p_2_62", "vol_overflows",
            "vol_underflows",
        ],
    )
    def test_closed_form_out_of_float_range_rejected(self, make):
        with pytest.raises(ValidationError):
            make()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 6),
        r0=st.floats(0.2, 5.0),
        lam=st.floats(0.1, 4.0),
        frac=st.floats(0.0, 0.95),
    )
    def test_parabolic_scaling(self, n, r0, lam, frac):
        scene = SphereScene(n=n, r0=r0)
        t = frac * scene.collapse_time
        scaled = SphereScene(n=n, r0=lam * r0)
        a = scene.state(t)
        b = scaled.state(lam ** 2 * t)
        assert b.r == pytest.approx(lam * a.r, rel=1e-12)
        assert b.h2 == pytest.approx(a.h2 / lam ** 2, rel=1e-12)
        assert b.vol == pytest.approx(a.vol * lam ** n, rel=1e-12)


class TestSphereProductState:
    def test_clifford_ratio_constant(self):
        scene = SphereProductScene(p=1, q=1, a0=1.0, b0=1.0)
        for t in (0.0, 0.1, 0.2, 0.24):
            st_ = scene.state(t)
            assert st_.aring2 / st_.h2 == pytest.approx(0.5, rel=1e-13)

    def test_s2xs1_at_zero(self):
        st_ = SphereProductScene(p=2, q=1).state(0.0)
        assert st_.h2 == pytest.approx(5.0, rel=1e-15)
        assert st_.a2 == pytest.approx(3.0, rel=1e-15)

    def test_s2xs2_violates_pinching(self):
        st_ = SphereProductScene(p=2, q=2).state(0.0)
        n = 4
        assert st_.a2 == pytest.approx(4.0, rel=1e-15)
        assert st_.a2 > st_.h2 / (n - 1)  # 4 > 8/3

    def test_homothetic_when_balanced(self):
        # p/a0^2 == q/b0^2 shrinks homothetically
        scene = SphereProductScene(p=2, q=1, a0=math.sqrt(2.0), b0=1.0)
        ratios = [
            scene.state(t).aring2 / scene.state(t).h2
            for t in np.linspace(0.0, 0.9 * scene.collapse_time, 7)
        ]
        assert np.ptp(ratios) < 1e-13

    def test_collapse_time_is_first_factor(self):
        scene = SphereProductScene(p=2, q=1, a0=1.0, b0=3.0)
        assert scene.collapse_time == pytest.approx(0.25, rel=1e-15)
        with pytest.raises(PastSingularity):
            scene.state(0.25)


class TestSceneFormComponents:
    @pytest.mark.parametrize(
        "scene",
        [
            SphereScene(n=2, r0=1.5, d=2),
            SphereScene(n=3, r0=0.7),
            SphereProductScene(p=1, q=1),
            SphereProductScene(p=2, q=1, a0=1.2, b0=0.8, extra_codim=1),
        ],
    )
    def test_tensor_scalars_match_state(self, scene):
        t = 0.3 * scene.collapse_time
        h = scene.form_components(t)
        st_ = scene.state(t)
        tr = np.trace(h, axis1=1, axis2=2)
        assert float(np.einsum("kab,kab->", h, h)) == pytest.approx(st_.a2, rel=1e-13)
        assert float(tr @ tr) == pytest.approx(st_.h2, rel=1e-13)
        n = scene.n
        aring = h - tr[:, None, None] * np.eye(n) / n
        assert float(np.einsum("kab,kab->", aring, aring)) == pytest.approx(
            st_.aring2, rel=1e-12, abs=1e-14
        )
        assert np.abs(np.trace(aring, axis1=1, axis2=2)).max() < 1e-14


class TestSpacetimeNorm:
    def test_zero_at_zero(self):
        scene = SphereScene(n=2, r0=1.0)
        assert scene.spacetime_integral(4.0, 0.0) ** (1.0 / 4.0) == 0.0

    def test_three_sphere_log_slice(self):
        # alpha = n+2 = 5, t_end with log(T/(T-t)) = 1
        scene = SphereScene(n=3, r0=1.0)
        t_end = scene.collapse_time * (1 - math.exp(-1))
        expected = (81.0 * 2.0 * math.pi ** 2 / 2.0) ** 0.2
        assert scene.spacetime_integral(5.0, t_end) ** (1.0 / 5.0) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("r0", [0.7, 1.0, 1.6])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_closed_form_matches_quadrature(self, n, r0):
        scene = SphereScene(n=n, r0=r0)
        area = unit_sphere_area(n)
        for alpha in (1.0, 2.0, 3.5, n + 1.0, n + 2.0, n + 2.5, n + 6.0):

            def integrand(t):
                return n ** alpha * area * math.sqrt(r0 ** 2 - 2.0 * n * t) ** (n - alpha)

            for frac in (0.1, 0.5, 0.9, 0.99):
                t_end = frac * scene.collapse_time
                quad, _ = integrate.quad(integrand, 0.0, t_end, limit=200)
                assert scene.spacetime_integral(alpha, t_end) == pytest.approx(quad, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_logarithm_matches_closed_form(self, n):
        scene = SphereScene(n=n, r0=1.3)
        for alpha in (1.0, n + 1.5, n + 2.0, n + 2.0 + 1e-9, n + 6.0, 40.0):
            for frac in (1e-12, 0.1, 0.9, 0.999999):
                t_end = frac * scene.collapse_time
                value = scene.spacetime_integral(alpha, t_end)
                assert scene._log_spacetime_integral(alpha, t_end) == pytest.approx(
                    math.log(value), rel=1e-13, abs=1e-13
                )

    def test_integral_evaluates_where_a_factor_overflows(self):
        # n^(n+1) is past the float range, the integral (about e^593) is not
        scene = SphereScene(n=150)
        t_end = 0.5 * scene.collapse_time
        value = scene.spacetime_integral(152.0, t_end)
        assert math.log(value) == pytest.approx(
            151 * math.log(150) + math.log(unit_sphere_area(150) * 0.5 * math.log(2.0)),
            rel=1e-14,
        )

    def test_integral_past_the_float_range_raises(self):
        with pytest.raises(ValidationError) as err:
            SphereScene(n=2).spacetime_integral(2000.0, 0.1)
        assert err.value.field == "alpha"

    def test_quadrature_route_matches_log_formula(self):
        # the closed form (expm1 route) evaluated just off alpha = n+2
        scene = SphereScene(n=2, r0=1.3)
        t_end = 0.7 * scene.collapse_time
        exact = scene.spacetime_integral(4.0, t_end)
        near = scene.spacetime_integral(4.0 + 1e-9, t_end)
        assert near == pytest.approx(exact, rel=1e-6)

    def test_monotone_divergence(self):
        # integral grows like log(T/(T-t)): ratio of eps = 1e-9 to 1e-1 is 9
        scene = SphereScene(n=2, r0=1.0)
        fractions = 1 - np.logspace(-1, -9, 9)
        values = [
            scene.spacetime_integral(4.0, f * scene.collapse_time)
            for f in fractions
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        # T - t_end cancellation limits accuracy near collapse
        assert values[-1] / values[0] == pytest.approx(9.0, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        frac1=st.floats(0.01, 0.98),
        frac2=st.floats(0.01, 0.98),
        alpha_off=st.floats(0.0, 3.0),
    )
    def test_strictly_increasing_in_time(self, frac1, frac2, alpha_off):
        if abs(frac1 - frac2) < 1e-3:
            return
        scene = SphereScene(n=3, r0=1.0)
        alpha = 5.0 + alpha_off
        lo, hi = sorted([frac1, frac2])
        a = scene.spacetime_integral(alpha, lo * scene.collapse_time) ** (1.0 / alpha)
        b = scene.spacetime_integral(alpha, hi * scene.collapse_time) ** (1.0 / alpha)
        assert b > a


class TestHoffmanSpruck:
    def test_branch_ratio_is_half_pi(self):
        for n in range(2, 9):
            for alpha in (0.25, 0.5, n / (n + 1.0)):
                ratio = hoffman_spruck_constant(n, alpha, True) / hoffman_spruck_constant(
                    n, alpha, False
                )
                assert ratio == pytest.approx(math.pi / 2, rel=1e-15)

    def test_n3_value(self):
        # hand evaluation: 2 * (4/3) * 4^(1/3) * (3/2) * omega_3^(-1/3) = 4 (3/pi)^(1/3)
        expected = 4.0 * (3.0 / math.pi) ** (1.0 / 3.0)
        assert hoffman_spruck_constant(3, 0.75, b_real=False) == pytest.approx(
            expected, rel=1e-14
        )
        assert expected == pytest.approx(3.9389800873707862, rel=1e-14)

    def test_diverges_as_alpha_to_one(self):
        # C ~ (1 - alpha)^(-1/n): eps 1e-1 -> 1e-12 grows by 10^(11/4)
        values = [hoffman_spruck_constant(4, 1 - eps) for eps in (1e-1, 1e-4, 1e-8, 1e-12)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e2 * values[0]

    def test_domain_errors(self):
        with pytest.raises(UnsupportedDimension):
            hoffman_spruck_constant(1, 0.5)
        with pytest.raises(ValidationError):
            hoffman_spruck_constant(3, 1.0)


class TestZonal:
    def test_polynomial_evaluation(self):
        v = ZonalFunction((1.0, 2.0, 1.0))  # (1 + cos)^2 at theta=0 -> 4
        assert v.value(0.0) == pytest.approx(4.0)
        assert v.value(math.pi) == pytest.approx(0.0, abs=1e-15)
        theta = np.linspace(0.1, 3.0, 7)
        step = 1e-6
        fd = (v.value(theta + step) - v.value(theta - step)) / (2 * step)
        assert np.allclose(v.theta_derivative(theta), fd, atol=1e-8)

    def test_degree_cap(self):
        with pytest.raises(ValidationError):
            ZonalFunction(tuple(range(18)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValidationError) as err:
            ZonalFunction((1.0, bad))
        assert err.value.field == "coefficients"

    def test_minimum_is_exact_at_interior_double_roots(self):
        # 7 (c - 0.3)^2 (c + 0.6)^2 touches zero twice inside [-1, 1]
        roots = [0.3, 0.3, -0.6, -0.6]
        v = ZonalFunction(tuple(7.0 * np.polynomial.polynomial.polyfromroots(roots)))
        assert abs(v.minimum()) < 1e-13
        assert ZonalFunction((0.5, -2.0)).minimum() == -1.5
        assert ZonalFunction((2.0,)).minimum() == 2.0

    @pytest.mark.parametrize(
        "coefficients",
        [(), (0.0, 0.0), (3.0,), (0.0, 2.0), (1.0, -2.0, 0.0, 0.0), (0.0, 0.0, 1.5, -0.5, 0.25),
         (0.0, 1.0, 0.0, -3.0, 0.0), (2.0, -1.0, 0.5, 0.3)],
    )
    def test_roots_are_those_np_roots_finds(self, coefficients):
        got = analytic._roots(list(coefficients))
        want = np.roots(list(coefficients)[::-1])
        assert sorted(got.tolist(), key=repr) == sorted(want.tolist(), key=repr)

    def test_quadrature_exact_volume(self):
        for n in (2, 3, 4, 5):
            scene = SphereScene(n=n, r0=1.3)
            vol = zonal_integral(lambda th: np.ones_like(th), scene, 0.0)
            assert vol == pytest.approx(
                unit_sphere_area(n) * 1.3 ** n, rel=1e-13
            )


class TestSobolevCheckers:
    def test_curvature_weighted_constant_function_closed_form(self):
        scene = SphereScene(n=3, r0=1.0)
        c = 2.5
        rep = sobolev_check_zonal(scene, 0.0, ZonalFunction((c,)), "curvature_weighted", c_n=1.0)
        st_ = scene.state(0.0)
        n = 3
        assert rep.lhs == pytest.approx(
            c ** 2 * st_.vol ** ((n - 2) / n), rel=1e-12
        )
        assert rep.rhs == pytest.approx(
            c ** 2 * st_.h2 ** ((n + 2) / 2) * st_.vol ** 2, rel=1e-12
        )

    def test_curvature_weighted_against_mpmath_oracle(self):
        scene = SphereScene(n=3, r0=1.0)
        v = ZonalFunction((1.0, 1.0))
        rep = sobolev_check_zonal(scene, 0.0, v, "curvature_weighted", c_n=1.0)
        assert rep.lhs == pytest.approx(MP_INT_V6 ** (1.0 / 3.0), rel=1e-10)
        hterm = 5.0 ** 2.5 * 2 * math.pi ** 2  # |H|^5 * Vol on S^3(1), |H| = 3... checked below
        assert rep.rhs == pytest.approx(
            MP_GRAD2 + 3.0 ** 5 * 2 * math.pi ** 2 * MP_L2, rel=1e-10
        )
        assert rep.holds  # with C_n = 1 on this data

    def test_curvature_weighted_default_constant_holds_on_battery(self):
        constant = calibrated_sobolev_constant(3)
        assert constant > 0
        scene = SphereScene(n=3, r0=0.8)
        rep = sobolev_check_zonal(scene, 0.0, ZonalFunction((1.0, 0.5)), "curvature_weighted")
        assert rep.holds

    def test_curvature_weighted_scaling_homogeneity(self):
        scene = SphereScene(n=4, r0=1.1)
        lam = 3.7
        a = sobolev_check_zonal(scene, 0.0, ZonalFunction((1.0, 1.0)), "curvature_weighted", c_n=2.0)
        b = sobolev_check_zonal(
            scene, 0.0, ZonalFunction((lam, lam)), "curvature_weighted", c_n=2.0
        )
        assert b.lhs == pytest.approx(lam ** 2 * a.lhs, rel=1e-12)
        assert b.rhs == pytest.approx(lam ** 2 * a.rhs, rel=1e-12)
        assert a.holds == b.holds

    def test_gradient_lower_bound_matches_oracle_pieces(self):
        scene = SphereScene(n=3, r0=1.0)
        v = ZonalFunction((1.0, 1.0))
        rep = sobolev_check_zonal(scene, 0.0, v, "gradient_lower_bound", s=1.0)
        assert rep.lhs == pytest.approx(MP_GRAD2, rel=1e-10)
        cn = hoffman_spruck_constant(3, 0.75, b_real=True)
        bracket = MP_INT_V6 ** (1.0 / 3.0) / cn ** 2 - 9.0 * 2.0 * MP_L2
        expected = (1.0 / 16.0) / 2.0 * bracket
        assert rep.rhs == pytest.approx(expected, rel=1e-10)
        assert rep.holds

    def test_hoffman_spruck_checker_holds_and_requires_nonnegative(self):
        scene = SphereScene(n=3, r0=1.0)
        v = ZonalFunction((1.0, 1.0))
        rep = sobolev_check_zonal(scene, 0.0, v, "hoffman_spruck")
        assert rep.lhs == pytest.approx(MP_INT_V32 ** (2.0 / 3.0), rel=1e-10)
        assert rep.constant == pytest.approx(
            hoffman_spruck_constant(3, 0.75, b_real=False), rel=1e-15
        )
        # |grad v| is a square root in cos(theta), so the rule is not
        # polynomial-exact here; order-64 Jacobi reaches ~1e-8
        assert rep.rhs == pytest.approx(rep.constant * MP_LEMMA31_RHS_BASE, rel=2e-7)
        assert rep.holds
        with pytest.raises(NegativeTestFunction):
            sobolev_check_zonal(scene, 0.0, ZonalFunction((0.0, 1.0)), "hoffman_spruck")

    def test_hoffman_spruck_rejects_a_dip_between_sample_angles(self):
        # (c - c0)^2 - 1e-9 is negative only for |c - c0| < 3.2e-5, with c0
        # between the cosines of two neighbouring angles of linspace(0, pi, 10000)
        c0 = math.cos(5000.5 * math.pi / 9999)
        v = ZonalFunction((c0 ** 2 - 1e-9, -2.0 * c0, 1.0))
        assert v.minimum() == pytest.approx(-1e-9, abs=1e-15)
        with pytest.raises(NegativeTestFunction):
            sobolev_check_zonal(SphereScene(n=3), 0.0, v, "hoffman_spruck")

    def test_hoffman_spruck_accepts_interior_double_roots(self):
        roots = [0.3, 0.3, -0.6, -0.6]
        v = ZonalFunction(tuple(7.0 * np.polynomial.polynomial.polyfromroots(roots)))
        assert sobolev_check_zonal(SphereScene(n=3), 0.0, v, "hoffman_spruck").holds

    @pytest.mark.parametrize("s", [None, 0.0, -1.0, math.nan])
    def test_gradient_lower_bound_requires_positive_s(self, s):
        with pytest.raises(ValidationError) as err:
            sobolev_check_zonal(
                SphereScene(n=3), 0.0, ZonalFunction((1.0,)), "gradient_lower_bound", s=s
            )
        assert err.value.field == "s"

    @pytest.mark.parametrize("c_n", [math.inf, math.nan])
    def test_curvature_weighted_requires_a_finite_constant(self, c_n):
        with pytest.raises(ValidationError) as err:
            sobolev_check_zonal(
                SphereScene(n=3), 0.0, ZonalFunction((1.0,)), "curvature_weighted", c_n=c_n
            )
        assert err.value.field == "c_n"

    def test_reports_match_one_quadrature_per_integrand_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for i in range(60):
            n = 3 + i % 3
            order = 2048 if i % 4 == 3 else 64
            r0 = float(rng.uniform(0.5, 2.0))
            t = float(rng.uniform(0.0, 0.9)) * r0 * r0 / (2 * n)
            coeffs = rng.uniform(-1.0, 1.0, 5)
            coeffs[0] = 1.0 + np.abs(coeffs[1:]).sum()  # nonnegative v
            v = ZonalFunction(tuple(coeffs[:1] if i % 10 == 0 else coeffs))
            s = float(rng.uniform(0.1, 3.0))
            scene = SphereScene(n=n, r0=r0)
            for which, kwargs in (
                ("hoffman_spruck", {}),
                ("gradient_lower_bound", {"s": s}),
                ("curvature_weighted", {"c_n": 1.7}),
                ("curvature_weighted", {}),
            ):
                got = sobolev_check_zonal(scene, t, v, which, order=order, **kwargs)
                want = _reference_report(scene, t, v, which, order, **kwargs)
                assert got == want, (i, which)

    def test_dimension_guards(self):
        scene = SphereScene(n=2, r0=1.0)
        with pytest.raises(UnsupportedDimension):
            sobolev_check_zonal(scene, 0.0, ZonalFunction((1.0,)), "curvature_weighted")
        with pytest.raises(UnsupportedDimension):
            sobolev_check_zonal(scene, 0.0, ZonalFunction((1.0,)), "gradient_lower_bound", s=1.0)


class TestSharedCache:
    """The checkers at one (v, t, order) share the jet and the integrals."""

    POINT = (SphereScene(n=4, r0=1.3), 0.05, ZonalFunction((2.0, 0.3, -0.2, 0.1)), 64)

    @staticmethod
    def _reports(scene, t, v, order):
        return [
            sobolev_check_zonal(scene, t, v, "hoffman_spruck", order=order),
            sobolev_check_zonal(scene, t, v, "gradient_lower_bound", s=0.7, order=order),
            sobolev_check_zonal(scene, t, v, "curvature_weighted", order=order),
            sobolev_check_zonal(scene, t, v, "curvature_weighted", c_n=1.7, order=order),
        ]

    @staticmethod
    def _clear():
        for cached in (
            analytic._zonal_jet,
            analytic._sobolev_integrals,
            analytic.unit_sphere_area,
            analytic.hoffman_spruck_constant,
        ):
            cached.cache_clear()

    def test_one_point_computes_the_jet_and_the_integrals_once(self):
        scene, t, v, order = self.POINT
        calibrated_sobolev_constant(scene.n)  # its battery has a cache of its own
        self._clear()
        self._reports(scene, t, v, order)
        assert analytic._zonal_jet.cache_info().misses == 1
        assert analytic._sobolev_integrals.cache_info().misses == 1

    def test_cached_arrays_are_read_only(self):
        scene, _, v, order = self.POINT
        for array in analytic._zonal_jet(v, order, scene.n):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_reports_are_equal_before_and_after_cache_clear(self):
        first = self._reports(*self.POINT)
        self._clear()
        assert self._reports(*self.POINT) == first
        assert self._reports(*self.POINT) == first  # now from the cache


class TestFlowConsistency:
    @pytest.mark.parametrize(
        "scene",
        [SphereScene(n=2, r0=1.0), SphereScene(n=3, r0=1.4), SphereProductScene(p=2, q=1)],
    )
    def test_volume_decay_matches_h2_integral(self, scene):
        T = scene.collapse_time
        for frac in (0.1, 0.4, 0.6):
            t = frac * T
            dt = 1e-5 * T
            dvol = (scene.state(t + dt).vol - scene.state(t - dt).vol) / (2 * dt)
            st_ = scene.state(t)
            flux = -st_.h2 * st_.vol  # |H| is constant on these scenes
            assert dvol == pytest.approx(flux, rel=1e-10)
