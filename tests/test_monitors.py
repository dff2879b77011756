import json
import math
import sys
import tracemalloc
import warnings

import mpmath as mp

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from mcflow import monitors

from mcflow.analytic import (
    SphereProductScene,
    SphereScene,
    unit_ball_volume,
    unit_sphere_area,
)
from mcflow.errors import UnsupportedDimension, ValidationError, WindowNotCovered
from mcflow.flow import FlowTrace, TraceRecord
from mcflow.mesh import DiscreteImmersion
from mcflow.monitors import (
    HOLDS,
    INFORMATIONAL,
    VIOLATED,
    SpacetimeAccumulator,
    blowup_estimate,
    geodesic_diameter,
    inequality_suite,
    lp_norm,
    moser_ratio,
    pinching_andrews_baker,
    pinching_linear,
    power_sum,
    state_view,
)
from mcflow.flow import FlowState, SchemeConfig, StopRule, run_until
from mcflow.scenes import clifford_torus, ellipsoid, icosphere, polygon_circle


def synthetic_sphere_trace(n=2, r0=1.0, steps=400, t_frac=0.9):
    """Trace records sampled from the closed-form shrinking sphere."""
    scene = SphereScene(n=n, r0=r0)
    cfg = SchemeConfig(
        cfl=math.inf, dt_max=t_frac * scene.collapse_time / steps,
        stop=StopRule(t_end=t_frac * scene.collapse_time),
    )
    return scene, run_until(FlowState(immersion=scene), cfg)


class TestLpNorm:
    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(0.01, 50.0), p=st.floats(1.0, 6.0))
    def test_constant_field(self, c, p):
        weights = np.array([0.5, 1.5, 2.0, 0.25])
        vol = weights.sum()
        field = np.full(4, c)
        assert lp_norm(field, p, weights) == pytest.approx(c * vol ** (1 / p), rel=1e-12)

    def test_aring_noise_floor_on_sphere(self, icosphere4, icosphere4_forms):
        _, _, forms = icosphere4_forms
        w = icosphere4.vertex_weights
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(np.sqrt(forms.aring2), p, w) <= 1e-1

    def test_h_l2_on_unit_sphere(self, icosphere4, icosphere4_forms):
        _, _, forms = icosphere4_forms
        w = icosphere4.vertex_weights
        value = lp_norm(np.sqrt(forms.h2), 2.0, w)
        assert value == pytest.approx(4 * math.sqrt(math.pi), rel=1e-2)


def _rescaled_lp_norm(values, p, weights):
    """Independent L^p norm: max|f| (sum w (|f| / max|f|)^p)^(1/p), whose sum
    stays between min w and the volume."""
    top = np.abs(values).max()
    return top * float(weights @ (np.abs(values) / top) ** p) ** (1.0 / p)


class TestPowersOutOfFloatRange:
    @pytest.mark.parametrize(
        "build, p",
        [
            (lambda: ellipsoid([0.3, 0.1, 0.1], subdiv=2), 2000.0),  # the sum overflows
            (lambda: icosphere(subdiv=3), 200.0),  # the sum underflows
        ],
        ids=["overflow", "underflow"],
    )
    def test_lp_norm_matches_the_rescaled_sum(self, build, p):
        imm = build()
        view = state_view(imm)
        aring = np.sqrt(np.clip(view.aring2, 0.0, None))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning among them
            got = lp_norm(aring, p, view.weights)
        assert got == pytest.approx(_rescaled_lp_norm(aring, p, view.weights), rel=1e-12)
        assert 0.99 * aring.max() < got <= aring.max()

    def test_power_sum_of_an_underflowing_sum_gives_its_logarithm(self):
        habs, weights = np.array([0.0, 1e-4, 2e-4]), np.array([0.2, 0.5, 0.25])
        total, log_total = power_sum(habs, 100.0, weights)  # 2e-4^100 = e^-852
        assert total == 0.0
        want = np.logaddexp(
            math.log(0.5) - 400 * math.log(10.0), math.log(0.25) + 100 * math.log(2e-4)
        )
        assert log_total == pytest.approx(want, rel=1e-14)
        assert power_sum(np.zeros(3), 100.0, weights) == (0.0, None)

    @pytest.mark.parametrize(
        "n, r0",
        [(60, 1e-4), (144, 1.0), (150, 1.0), (200, 1.0)],
        ids=["power_overflows", "n_144", "n_150", "n_200"],
    )
    def test_chen_reports_past_the_float_range(self, n, r0):
        # |H|^n Vol = n^n |S^n| on every round sphere, though |H|^60 overflows
        # at r = 1e-4 and n^n is no float from n = 144 on
        reports = {r.name: r for r in inequality_suite(state_view(SphereScene(n=n, r0=r0)))}
        chen, hmax = reports["chen_total_mean_curvature"], reports["hmax_lower_bound"]
        with mp.workdps(30):
            half = mp.mpf(n) / 2
            bound = mp.mpf(n) ** n * mp.pi ** half / mp.gamma(half + 1)
            integral = mp.mpf(n) ** n * 2 * mp.pi ** (half + 0.5) / mp.gamma(half + 0.5)
        for got, want in ((chen.values["bound"], bound), (chen.values["integral"], integral)):
            if want < sys.float_info.max:
                assert got == pytest.approx(float(want), rel=1e-12)
            else:
                assert got is None
        ratio = unit_sphere_area(n) / unit_ball_volume(n)
        assert chen.values["ratio"] == pytest.approx(ratio, rel=1e-12)
        assert hmax.values["ratio"] == pytest.approx(ratio ** (2.0 / n), rel=1e-12)
        assert chen.verdict == hmax.verdict == HOLDS
        json.dumps([vars(r) for r in reports.values()], allow_nan=False)


class TestSpacetimeAccumulator:
    def test_zero_integrand_unchanged(self):
        acc = SpacetimeAccumulator(alpha=4.0)
        for _ in range(5):
            acc.update(0.0, 0.1)
        assert acc.value == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 0.5)), min_size=1, max_size=30
        )
    )
    def test_never_decreases(self, updates):
        acc = SpacetimeAccumulator(alpha=4.0)
        last = 0.0
        for integrand, dt in updates:
            acc.update(integrand, dt)
            assert acc.value >= last
            last = acc.value

    def test_power_sum_is_the_direct_sum_where_it_is_finite(self):
        habs, weights = np.array([0.0, 2.0, 3.0]), np.array([0.2, 0.5, 0.25])
        assert power_sum(habs, 4.0, weights) == (float(weights @ habs ** 4.0), None)
        total, log_total = power_sum(habs, 700.0, weights)  # 3^700 = e^769
        assert total == math.inf
        want = np.logaddexp(math.log(0.5) + 700 * math.log(2.0), math.log(0.25) + 700 * math.log(3.0))
        assert log_total == pytest.approx(want, rel=1e-14)

    def test_overflowing_step_is_summed_from_logarithms(self):
        acc = SpacetimeAccumulator(alpha=4.0)
        acc.update(math.inf, 0.0, 710.0)
        acc.update(math.inf, 1e-3, 712.0)
        want = 0.5e-3 * math.exp(700.0) * (math.exp(10.0) + math.exp(12.0))
        assert acc.value == pytest.approx(want, rel=1e-12)
        acc.update(1e300, 1e-3)  # a finite end after an overflowed one
        step = 0.5e-3 * math.exp(700.0) * (math.exp(12.0) + 1e300 * math.exp(-700.0))
        assert acc.value == pytest.approx(want + step, rel=1e-12)
        with pytest.raises(ValidationError) as err:
            acc.update(math.inf, 1.0, 720.0)
        assert err.value.field == "alpha"

    def test_sphere_run_matches_closed_form(self):
        scene, trace = synthetic_sphere_trace(steps=600)
        n = 2
        got = trace.records[-1].st_integral_alpha[4.0]
        want = scene.spacetime_integral(4.0, trace.records[-1].t)
        assert got == pytest.approx(want, rel=1e-6)  # sphere path is closed form

    def test_divergence_slope_matches_constant(self):
        # trapezoid accumulation vs log(1/eps): slope = n^{n+1} A_n / 2 = 16 pi
        scene = SphereScene(n=2, r0=1.0)
        T = scene.collapse_time
        times = T * (1 - np.logspace(-0.3, -3, 400))
        acc = SpacetimeAccumulator(alpha=4.0)
        prev_t = 0.0
        values, logs = [], []
        for t in times:
            st_ = scene.state(t)
            acc.update(st_.h2 ** 2 * st_.vol, t - prev_t)
            prev_t = t
            values.append(acc.value)
            logs.append(math.log(T / (T - t)))
        slope = np.polyfit(logs[100:], values[100:], 1)[0]
        assert slope == pytest.approx(16 * math.pi, rel=0.1)


class TestPinching:
    def test_sphere_boundary_case(self):
        view = state_view(SphereScene(n=3, r0=1.0), 0.0)
        rep = pinching_linear(view, a=1.0 / 3.0, b=0.0)
        assert rep.verdict == HOLDS
        assert rep.values["max_margin"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_andrews_baker_for_n4(self):
        view = state_view(SphereProductScene(p=2, q=2), 0.0)
        lin = pinching_linear(view, a=1.0 / 3.0, b=0.0)
        ab = pinching_andrews_baker(view)
        assert lin.values["max_margin"] == pytest.approx(ab.values["max_margin"], rel=1e-13)
        assert lin.verdict == ab.verdict == VIOLATED  # 4 > 8/3

    def test_s2xs1_violates_n3_constant(self):
        view = state_view(SphereProductScene(p=2, q=1), 0.0)
        rep = pinching_andrews_baker(view)
        assert rep.verdict == VIOLATED  # 3 > 20/9
        assert rep.values["max_margin"] == pytest.approx(3.0 - 20.0 / 9.0, rel=1e-12)

    def test_spheres_satisfy_dimensional_constant(self):
        for n in (3, 4, 6):
            view = state_view(SphereScene(n=n, r0=0.7), 0.0)
            assert pinching_andrews_baker(view).verdict == HOLDS

    def test_mesh_surface_unsupported(self, icosphere4):
        view = state_view(icosphere4)
        with pytest.raises(UnsupportedDimension):
            pinching_andrews_baker(view)

    def test_report_determinism(self, icosphere4):
        a = pinching_linear(state_view(icosphere4), 1.0, 0.0)
        b = pinching_linear(state_view(icosphere4), 1.0, 0.0)
        assert a == b


class TestInequalitySuite:
    def test_unit_sphere_values(self, icosphere4):
        view = state_view(icosphere4)
        reports = {r.name: r for r in inequality_suite(view)}
        chen = reports["chen_total_mean_curvature"]
        assert chen.verdict == HOLDS
        assert chen.values["integral"] == pytest.approx(16 * math.pi, rel=2e-2)
        assert chen.values["ratio"] == pytest.approx(4.0, rel=2e-2)
        hmax = reports["hmax_lower_bound"]
        assert hmax.verdict == HOLDS
        assert hmax.values["ratio"] == pytest.approx(4.0, rel=2e-2)
        top = reports["topping_ratio"]
        assert top.verdict == INFORMATIONAL
        assert top.values["ratio"] > 0

    def test_gradient_zero_on_analytic_scenes(self):
        view = state_view(SphereProductScene(p=2, q=1), 0.0)
        reports = {r.name: r for r in inequality_suite(view)}
        assert reports["gradient_a_vs_aring"].verdict == HOLDS
        assert reports["gradient_a_vs_aring"].values["raw_margin"] == 0.0
        assert reports["gradient_h_vs_aring"].verdict == HOLDS

    def test_gradient_holds_on_mesh_battery(self, icosphere4, ellipsoid3):
        for imm in (icosphere4, ellipsoid3):
            view = state_view(imm)
            reports = {r.name: r for r in inequality_suite(view)}
            assert reports["gradient_a_vs_aring"].verdict == HOLDS
            assert reports["gradient_h_vs_aring"].verdict == HOLDS

    @pytest.mark.parametrize("frac", [0.0, 0.8, 0.99])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_hmax_bound_holds_on_round_spheres(self, n, frac):
        # |H|^n Vol = n^n |S^n| on every round sphere, so the ratio of
        # max|H|^2 to (n^n omega_n / Vol)^(2/n) is (|S^n| / omega_n)^(2/n) at all t
        scene = SphereScene(n=n, r0=0.9)
        view = state_view(scene, frac * scene.collapse_time)
        hmax = {r.name: r for r in inequality_suite(view)}["hmax_lower_bound"]
        assert hmax.verdict == HOLDS
        want = (unit_sphere_area(n) / unit_ball_volume(n)) ** (2.0 / n)
        assert hmax.values["ratio"] == pytest.approx(want, rel=1e-12)

    def test_hmax_bound_holds_on_s2xs1(self):
        view = state_view(SphereProductScene(p=2, q=1), 0.0)
        hmax = {r.name: r for r in inequality_suite(view)}["hmax_lower_bound"]
        assert hmax.verdict == HOLDS

    def test_view_fits_once_and_derives_on_demand(self, monkeypatch):
        fits, derivs = [], []
        fit, derive = monitors.jet_forms, monitors.derivative_data

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        def counting_derive(*args, **kwargs):
            derivs.append(args)
            return derive(*args, **kwargs)

        monkeypatch.setattr(monitors, "jet_forms", counting_fit)
        monkeypatch.setattr(monitors, "derivative_data", counting_derive)
        view = state_view(icosphere(subdiv=2))
        pinching_linear(view, 1.0, 0.0)
        assert len(derivs) == 0
        first = inequality_suite(view)
        second = inequality_suite(view)
        assert len(derivs) == 1
        assert len(fits) == 1
        assert [vars(r) for r in first] == [vars(r) for r in second]
        assert "gradient_a_vs_aring" in {r.name for r in first}

    def test_diameter_of_circle_graph(self):
        imm = polygon_circle(segments=128)
        # half the circumference of the inscribed polygon
        assert geodesic_diameter(imm) == pytest.approx(math.pi, rel=1e-3)

    def test_mesh_topping_ratio_matches_the_exact_sphere(self, icosphere4):
        def topping(body):
            reports = inequality_suite(state_view(body))
            return next(r for r in reports if r.name == "topping_ratio").values["ratio"]

        exact = topping(SphereScene(n=2))
        assert exact == pytest.approx(0.125, rel=1e-12)  # pi r / (8 pi r)
        assert topping(icosphere4) == pytest.approx(exact, rel=2e-2)


def _jittered_polygon(segments, seed):
    """Polygon on the unit circle with angles 2 pi (k + u_k) / segments, |u_k| <= 0.35."""
    jitter = np.random.default_rng(seed).uniform(-0.35, 0.35, segments)
    return polygon_circle(angles=2.0 * np.pi * (np.arange(segments) + jitter) / segments)


def _two_copies(imm, shift):
    """Disjoint union of a mesh and its translate by ``shift``."""
    return DiscreteImmersion(
        vertices=np.vstack([imm.vertices, imm.vertices + shift]),
        elements=np.vstack([imm.elements, imm.elements + imm.num_vertices]),
        intrinsic_dim=imm.intrinsic_dim,
    )


@pytest.fixture
def heat_sources(monkeypatch):
    """List that grows by the source of every heat solve in monitors."""
    sources = []
    real = scipy.sparse.linalg.splu

    class Counting:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            hot = np.flatnonzero(rhs)
            if len(hot) == 1 and rhs[hot[0]] == 1.0:
                sources.append(int(hot[0]))
            return self.lu.solve(rhs)

    def factor(matrix, *args, **kwargs):
        return Counting(real(matrix, *args, **kwargs))

    monkeypatch.setattr(scipy.sparse.linalg, "splu", factor)
    return sources


class TestGraphDiameter:
    """``geodesic_diameter`` against the Riemannian diameter; its sources; its
    memory; a disconnected mesh."""

    def test_gap_to_pi_shrinks_on_icospheres(self, icosphere4):
        meshes = [icosphere(subdiv=2), icosphere(subdiv=3), icosphere4, icosphere(subdiv=5)]
        gaps = [abs(geodesic_diameter(imm) - math.pi) / math.pi for imm in meshes]
        assert all(fine < coarse for coarse, fine in zip(gaps, gaps[1:])), gaps
        assert gaps[2] < 1e-2

    @pytest.mark.parametrize("resolution", [16, 32, 64])
    def test_clifford_torus_within_1_5_percent(self, resolution, clifford64):
        imm = clifford64 if resolution == 64 else clifford_torus(1.0, 1.0, resolution=resolution)
        # antipodal points in both unit circles
        assert geodesic_diameter(imm) == pytest.approx(math.pi * math.sqrt(2.0), rel=1.5e-2)

    def test_codimension_does_not_change_the_diameter(self, icosphere4):
        plane = random_rotation(5, seed=7)[:, :3]
        lifted = DiscreteImmersion(
            vertices=icosphere4.vertices @ plane.T,
            elements=icosphere4.elements,
            intrinsic_dim=2,
        )
        assert abs(geodesic_diameter(lifted) - geodesic_diameter(icosphere4)) <= 1e-12

    @pytest.mark.parametrize(
        "build",
        [
            lambda: polygon_circle(segments=64),
            lambda: polygon_circle(segments=256),
            lambda: polygon_circle(segments=1024),
            lambda: _jittered_polygon(64, seed=3),
            lambda: _jittered_polygon(256, seed=4),
            lambda: _jittered_polygon(1024, seed=5),
            # vertices more than _HEAT_HOPS hops apart
            lambda: polygon_circle(segments=4095),
        ],
        ids=["64gon", "256gon", "1024gon", "jittered64", "jittered256", "jittered1024", "4095gon"],
    )
    def test_polygon_is_half_its_length(self, build):
        imm = build()
        half = 0.5 * imm.element_measures.sum()
        assert geodesic_diameter(imm) == pytest.approx(half, rel=1e-3)

    @pytest.mark.parametrize("segments", [13, 51])
    def test_odd_polygon_with_a_level_far_segment(self, segments):
        # from some sweep's source the heat is equal at both ends of the far
        # segment, so X is zero there; vertices lie at most (L - h) / 2 apart
        imm = polygon_circle(segments=segments)
        length, h = imm.element_measures.sum(), imm.element_measures[0]
        got = geodesic_diameter(imm)
        assert 0.5 * (length - h) - 1e-12 <= got <= 0.5 * length

    def test_prunes_most_sources_on_ellipsoid(self, heat_sources):
        imm = ellipsoid([1.2, 1.0, 0.9], subdiv=4)
        geodesic_diameter(imm)
        # one heat solve per sweep, each from a new farthest vertex
        assert heat_sources[0] == 0
        assert len(heat_sources) == len(set(heat_sources))
        assert len(heat_sources) < imm.num_vertices / 2

    def test_transient_memory_is_bounded(self, clifford64):
        clifford64.topology.edges
        tracemalloc.start()
        try:
            geodesic_diameter(clifford64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize(
        "build, shift",
        [
            (lambda: polygon_circle(segments=64), [3.0, 0.0]),
            (lambda: icosphere(subdiv=2), [3.0, 0.0, 0.0]),
        ],
        ids=["two_polygons", "two_icospheres"],
    )
    def test_disconnected_mesh_has_no_finite_diameter(self, build, shift):
        imm = _two_copies(build(), np.array(shift))
        assert geodesic_diameter(imm) == math.inf
        reports = inequality_suite(state_view(imm))
        topping = next(r for r in reports if r.name == "topping_ratio")
        assert topping.values["diameter"] is None
        assert topping.values["ratio"] is None
        assert topping.verdict == INFORMATIONAL
        json.dumps([vars(r) for r in reports], allow_nan=False)


class TestMoserRatio:
    def test_constant_curvature_window_formula(self):
        scene, trace = synthetic_sphere_trace(steps=500, t_frac=0.5)
        t_last = trace.records[-1].t
        rep = moser_ratio(trace)
        assert rep.verdict == INFORMATIONAL
        # lhs is the endpoint value; rhs from the closed-form integral
        lhs = max(r.h2_max for r in trace.records if r.t >= t_last / 2)
        assert rep.values["lhs_h2_max"] == pytest.approx(lhs, rel=1e-12)
        want = scene.spacetime_integral(4.0, t_last) ** 0.5
        assert rep.values["rhs_base"] == pytest.approx(want, rel=1e-9)

    def test_parabolic_scale_covariance(self):
        # lhs scales by 1/lambda^2; the spacetime (n+2)-integral is scale
        # invariant, so the reported ratio carries degree -2
        lam = 1.7
        _, a = synthetic_sphere_trace(r0=1.0, steps=400, t_frac=0.6)
        _, b = synthetic_sphere_trace(r0=lam, steps=400, t_frac=0.6)
        ra, rb = moser_ratio(a), moser_ratio(b)
        assert rb.values["lhs_h2_max"] == pytest.approx(
            ra.values["lhs_h2_max"] / lam ** 2, rel=1e-9
        )
        assert rb.values["rhs_base"] == pytest.approx(ra.values["rhs_base"], rel=1e-9)
        assert rb.values["ratio"] == pytest.approx(
            ra.values["ratio"] / lam ** 2, rel=1e-9
        )

    def test_window_not_covered(self):
        _, trace = synthetic_sphere_trace(steps=50, t_frac=0.3)
        with pytest.raises(WindowNotCovered):
            moser_ratio(trace, window=(0.2, 0.4))

    def test_literally_constant_curvature(self):
        # hand-built records with |H|^2 = c^2 and volume V over [0, T0]:
        # ratio = c^2 / (c^{n+2} V T0)^{2/(n+2)}
        c2, vol, t0, n = 3.0, 5.0, 0.8, 2
        times = np.linspace(0.0, t0, 9)
        records = [
            TraceRecord(
                t=float(t),
                dt=float(t and times[1]),
                vol=vol,
                h2_max=c2,
                h2_min=c2,
                a2_max=c2 / n,
                aring_p_norms={},
                st_integral_alpha={4.0: float(c2 ** 2 * vol * t)},
                scheme="synthetic",
            )
            for t in times
        ]
        trace = FlowTrace(
            records=records,
            snapshots=[],
            final_state=None,
            status="stopped",
            stop_reason="t_end",
            intrinsic_dim=n,
        )
        rep = moser_ratio(trace)
        want = c2 / (c2 ** 2 * vol * t0) ** 0.5
        assert rep.values["ratio"] == pytest.approx(want, rel=1e-12)


class TestBlowupEstimate:
    def test_exact_on_analytic_sphere(self):
        for n, r0 in ((2, 1.0), (3, 2.0), (5, 0.6)):
            scene, trace = synthetic_sphere_trace(n=n, r0=r0, steps=200, t_frac=0.8)
            est = blowup_estimate(trace)
            assert est["T_hat"] == pytest.approx(scene.collapse_time, rel=1e-12)
            assert est["T_hat_stabilized"] == pytest.approx(scene.collapse_time, rel=1e-12)

    def test_converges_on_near_sphere_mesh_flow(self):
        from mcflow.flow import FlowState, run_until
        from mcflow.scenes import ellipsoid

        imm = ellipsoid([1.1, 1.0, 1.0], subdiv=3)
        cfg = SchemeConfig(cfl=0.02, stop=StopRule(max_a2=400.0))
        trace = run_until(FlowState(immersion=imm), cfg)
        series = blowup_estimate(trace)["series"]
        tail = series[-10:]
        for a, b in zip(tail, tail[1:]):
            assert abs(b - a) / abs(b) <= 1e-2


class TestParabolicCovarianceOfMonitors:
    def test_scalar_degrees_against_closed_forms(self):
        lam = 2.3
        scene = SphereScene(n=3, r0=1.0)
        scaled = SphereScene(n=3, r0=lam)
        t = 0.4 * scene.collapse_time
        a = state_view(scene, t)
        b = state_view(scaled, lam ** 2 * t)
        assert b.h2[0] == pytest.approx(a.h2[0] / lam ** 2, rel=1e-12)
        assert b.vol == pytest.approx(a.vol * lam ** 3, rel=1e-12)
        ia = scene.spacetime_integral(5.0, t)
        ib = scaled.spacetime_integral(5.0, lam ** 2 * t)
        assert ib == pytest.approx(ia, rel=1e-12)  # alpha = n+2 is the invariant power
