import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from conftest import random_rotation
from mcflow.analytic import SphereProductScene, SphereScene
from mcflow import flow, mesh, monitors
from mcflow.curvature import jet_forms
from mcflow.errors import (
    MaxStepsExceeded,
    SolverFailure,
    StepRejected,
    UnsupportedDimension,
    ValidationError,
)
from mcflow.flow import (
    FlowState,
    SchemeConfig,
    StopRule,
    TraceRecord,
    estimator_discrepancy,
    laplace_mean_curvature,
    redistribute,
    run_until,
    step_explicit,
    step_semi_implicit,
)
from mcflow.mesh import DiscreteImmersion
from mcflow.monitors import pinching_linear
from mcflow.rescale import roundness_metrics
from mcflow.scenes import (
    clifford_torus,
    embed_immersion,
    icosphere,
    perturb_radially,
    polygon_circle,
)

ICO4_EDGE_SQ = (1.0514622 / 16.0) ** 2  # squared edge length of the subdiv-4 icosphere


def mean_radius(imm, weights=None):
    w = imm.vertex_weights if weights is None else weights
    centroid = (w[:, None] * imm.vertices).sum(axis=0) / w.sum()
    return float(w @ np.linalg.norm(imm.vertices - centroid, axis=1) / w.sum())


def fourier_curve(coeffs_cos, coeffs_sin, segments=256):
    t = 2 * np.pi * np.arange(segments) / segments
    r = np.ones_like(t)
    for k, c in enumerate(coeffs_cos, start=1):
        r += c * np.cos(k * t)
    for k, c in enumerate(coeffs_sin, start=1):
        r += c * np.sin(k * t)
    verts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    els = np.column_stack([np.arange(segments), (np.arange(segments) + 1) % segments])
    return DiscreteImmersion(verts, els.astype(np.int64), 1)


class TestExplicitStep:
    def test_icosphere_single_step(self, icosphere4):
        state = step_explicit(FlowState(immersion=icosphere4), 1e-3)
        assert mean_radius(state.immersion) == pytest.approx(1.0 - 2e-3, abs=1e-4)
        assert state.t == 1e-3
        assert state.step_index == 1

    def test_translation_equivariance_exact(self):
        imm = icosphere(subdiv=2)
        shift = np.array([3.0, -1.0, 2.0])
        a = step_explicit(FlowState(immersion=imm), 1e-3)
        b = step_explicit(FlowState(immersion=imm.transformed(translation=shift)), 1e-3)
        assert np.allclose(
            b.immersion.vertices, a.immersion.vertices + shift, atol=1e-12
        )

    def test_circle_single_step(self):
        imm = polygon_circle(segments=256, r0=1.0)
        state = step_explicit(FlowState(immersion=imm), 1e-3)
        r_new = np.linalg.norm(state.immersion.vertices, axis=1)
        assert np.abs(r_new - math.sqrt(1 - 2e-3)).max() < 5e-6

    def test_blows_up_beyond_diffusion_limit(self, icosphere4):
        # ten steps at dt ~ 10x the diffusion limit wreck the mesh
        state = FlowState(immersion=icosphere4)
        try:
            for _ in range(12):
                state = step_explicit(state, 10 * ICO4_EDGE_SQ / 2)
            _, forms = jet_forms(state.immersion)
            spread = forms.h2.max() / forms.h2.min()
        except StepRejected:
            spread = math.inf
        assert spread > 1e3


class TestSemiImplicitStep:
    def test_stable_at_ten_times_explicit_limit(self, icosphere4):
        # dt tracks 10x the instantaneous diffusion limit for 100 steps;
        # each step stays within 1% of the closed-form radius update
        cfl = 10 * ICO4_EDGE_SQ  # dt = cfl r^2 / n = 10 * (h_t^2 / 2)
        cfg = SchemeConfig(scheme="semi_implicit", cfl=cfl, stop=StopRule(step_cap=100))
        trace = run_until(FlowState(immersion=icosphere4), cfg)
        assert len(trace.records) == 101
        prev = trace.records[0]
        for rec in trace.records[1:]:
            r_prev = math.sqrt(prev.vol / (4 * math.pi))
            r_pred = math.sqrt(r_prev ** 2 - 4 * rec.dt)
            r_now = math.sqrt(rec.vol / (4 * math.pi))
            assert abs(r_now - r_pred) / r_pred <= 1e-2
            assert rec.dt >= 5 * (ICO4_EDGE_SQ * r_prev ** 2) / 2
            assert rec.h2_max / rec.h2_min < 1.2  # mesh stays round
            prev = rec

    def test_richardson_order_two_against_shared_operator(self):
        # same spatial operator on both sides isolates the time discretization
        imm = icosphere(subdiv=2)
        state = FlowState(immersion=imm)

        def gap(dt):
            a = step_semi_implicit(state, dt)
            b = step_explicit(state, dt, h_field=laplace_mean_curvature(state.immersion))
            return np.abs(a.immersion.vertices - b.immersion.vertices).max()

        ratio = gap(2e-3) / gap(1e-3)
        assert 3.3 < ratio < 4.7

    def test_coordinate_subspace_preserved_exactly(self):
        imm = embed_immersion(icosphere(subdiv=2), 5)
        state = step_semi_implicit(FlowState(immersion=imm), 5e-3)
        assert np.abs(state.immersion.vertices[:, 3:]).max() == 0.0

    def test_programming_error_propagates(self, monkeypatch):
        def broken_assembly(imm):
            raise TypeError("broken assembly")

        monkeypatch.setattr(mesh, "laplace_beltrami", broken_assembly)
        with pytest.raises(TypeError, match="broken assembly"):
            step_semi_implicit(FlowState(immersion=icosphere(subdiv=1)), 1e-3)

    def test_factorization_error_is_a_solver_failure(self, monkeypatch):
        def singular_factor(system):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr("scipy.sparse.linalg.splu", singular_factor)
        with pytest.raises(SolverFailure, match="implicit solve failed: Factor is exactly"):
            step_semi_implicit(FlowState(immersion=polygon_circle(segments=16)), 1e-3)

    def test_unconverged_solve_is_a_solver_failure(self, monkeypatch):
        # a sphere has a nonzero warm-start residual, so no iteration is a failure
        monkeypatch.setattr(flow, "_PCG_MAX_ITER", 0)
        with pytest.raises(SolverFailure, match="implicit solve failed: PCG did not converge"):
            step_semi_implicit(FlowState(immersion=icosphere(subdiv=1)), 1e-3)

    def test_radius_tracks_oracle_with_small_cfl(self, icosphere4):
        cfg = SchemeConfig(
            scheme="semi_implicit", cfl=0.005, stop=StopRule(t_end=0.05)
        )
        trace = run_until(FlowState(immersion=icosphere4), cfg)
        rec = trace.records[-1]
        r2_exact = 1.0 - 4.0 * rec.t
        r2_mesh = rec.vol / (4 * math.pi)
        assert abs(r2_mesh - r2_exact) <= 5e-3


def _splu_step(imm, dt):
    """Reference backward-Euler vertices: one sparse LU, one solve per coordinate."""
    mass, stiffness = imm.vertex_weights, imm.stiffness
    solver = splu((sparse.diags(mass) + dt * stiffness).tocsc())
    return np.column_stack(
        [solver.solve(mass * imm.vertices[:, c]) for c in range(imm.ambient_dim)]
    )


def _criterion8_scene(subdiv):
    return embed_immersion(perturb_radially(icosphere(subdiv=subdiv), [(2, 0, 0.05)]), 5)


@pytest.fixture(scope="module")
def collapse_trace():
    """The criterion-8 scene at subdivision 3, flowed to max|A|^2 = 2000."""
    cfg = SchemeConfig(cfl=0.02, stop=StopRule(max_a2=2000.0))
    return run_until(FlowState(immersion=_criterion8_scene(3)), cfg)


class TestIterativeSolve:
    @pytest.mark.parametrize("case", ["icosphere4_r5", "criterion8", "criterion8_collapse"])
    def test_matches_a_direct_solve(self, case, request):
        if case == "icosphere4_r5":
            imm = embed_immersion(icosphere(subdiv=4), 5)
        elif case == "criterion8":
            imm = _criterion8_scene(4)
        else:
            imm = request.getfixturevalue("collapse_trace").final_state.immersion
        _, forms = jet_forms(imm)
        dt = 0.02 / forms.a2.max()
        got = step_semi_implicit(FlowState(immersion=imm), dt).immersion.vertices
        assert np.abs(got - _splu_step(imm, dt)).max() <= 1e-12

    def test_curve_step_is_the_direct_solve_bit_for_bit(self):
        imm = polygon_circle(segments=256, ambient_dim=4, subspace=random_rotation(4, 5)[:, :2])
        got = step_semi_implicit(FlowState(immersion=imm), 2e-3).immersion.vertices
        assert np.array_equal(got, _splu_step(imm, 2e-3))

    def test_volume_never_increases_to_collapse(self, collapse_trace):
        trace = collapse_trace
        assert trace.stop_reason == "max_a2"
        vols = [r.vol for r in trace.records]
        assert all(b <= a for a, b in zip(vols, vols[1:]))

    def test_zero_coordinates_stay_zero_through_a_run(self):
        imm = embed_immersion(icosphere(subdiv=2), 5)
        cfg = SchemeConfig(cfl=0.02, stop=StopRule(max_a2=300.0))
        trace = run_until(FlowState(immersion=imm), cfg, snapshot_every=1)
        assert trace.stop_reason == "max_a2"
        assert len(trace.snapshots) == len(trace.records)
        for snap in trace.snapshots:
            assert np.all(snap.immersion.vertices[:, 3:] == 0.0)


class TestRunUntil:
    def test_step_cap_honored_exactly(self):
        imm = icosphere(subdiv=2)
        cfg = SchemeConfig(stop=StopRule(step_cap=7))
        trace = run_until(FlowState(immersion=imm), cfg)
        assert trace.stop_reason == "step_cap"
        assert len(trace.records) == 8  # initial sample + 7 accepted steps

    def test_no_digest_is_computed_while_stepping(self, monkeypatch):
        real = monitors._digest
        calls = []

        def counting(*parts):
            calls.append(parts)
            return real(*parts)

        monkeypatch.setattr(monitors, "_digest", counting)
        cfg = SchemeConfig(stop=StopRule(step_cap=5))
        trace = run_until(FlowState(immersion=icosphere(subdiv=2)), cfg, snapshot_every=1)
        assert len(trace.records) == 6 and calls == []
        # a report hashes the final state once, from the same parts as before
        view = trace.final_view
        digest = real(2, view.a2, view.h2, view.aring2, view.weights, float(view.weights.sum()))
        assert pinching_linear(view, 1.0).digest == digest
        assert pinching_linear(view, 2.0).digest == digest
        assert len(calls) == 1

    def test_vol_strictly_decreasing(self, icosphere4):
        cfg = SchemeConfig(stop=StopRule(step_cap=20))
        trace = run_until(FlowState(immersion=icosphere4), cfg)
        vols = [r.vol for r in trace.records]
        assert all(b < a for a, b in zip(vols, vols[1:]))

    def test_max_a2_stop(self, icosphere4):
        cfg = SchemeConfig(cfl=0.02, stop=StopRule(max_a2=200.0))
        trace = run_until(FlowState(immersion=icosphere4), cfg)
        assert trace.stop_reason == "max_a2"
        assert trace.records[-1].a2_max >= 200.0
        # r^2 at the stop is near n / maxA2
        r2 = trace.records[-1].vol / (4 * math.pi)
        assert r2 == pytest.approx(2.0 / 200.0, rel=0.15)

    def test_dt_policy_bound(self, icosphere4):
        cfg = SchemeConfig(cfl=0.01, dt_max=1e-3, stop=StopRule(step_cap=15))
        trace = run_until(FlowState(immersion=icosphere4), cfg)
        prev = trace.records[0]
        for rec in trace.records[1:]:
            assert rec.dt <= min(cfg.cfl / prev.a2_max, cfg.dt_max) + 1e-15
            prev = rec

    def test_t_end_reached(self, icosphere4):
        cfg = SchemeConfig(cfl=0.05, stop=StopRule(t_end=0.0123))
        trace = run_until(FlowState(immersion=icosphere4), cfg)
        assert trace.records[-1].t == pytest.approx(0.0123, abs=1e-12)

    def test_max_steps_safety(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_STEPS", 5)
        imm = icosphere(subdiv=1)
        cfg = SchemeConfig(cfl=1e-6, stop=StopRule(t_end=1e9))
        with pytest.raises(MaxStepsExceeded):
            run_until(FlowState(immersion=imm), cfg)

    def test_exact_scene_past_collapse_hits_max_steps(self, monkeypatch):
        # the collapse clip halves dt toward T = 0.25, so t_end = 0.5 never
        # fires; the step guard must end the run
        monkeypatch.setattr(flow, "MAX_STEPS", 500)
        cfg = SchemeConfig(stop=StopRule(t_end=0.5))
        with pytest.raises(MaxStepsExceeded):
            run_until(FlowState(immersion=SphereScene(n=2)), cfg)

    @pytest.mark.parametrize("scene", [SphereScene(n=1, d=2), SphereProductScene(p=2, q=1)])
    def test_exact_scene_stays_before_collapse(self, scene):
        cfg = SchemeConfig(cfl=0.05, redistribute_every=3, stop=StopRule(step_cap=60))
        trace = run_until(FlowState(immersion=scene), cfg, snapshot_every=1)
        assert trace.stop_reason == "step_cap"
        assert trace.snapshots == []
        assert trace.final_state.immersion is scene
        assert all(r.scheme == "analytic" for r in trace.records)
        assert 0.0 < trace.records[-1].t < scene.collapse_time
        assert trace.records[-1].h2_max == scene.state(trace.records[-1].t).h2

    def test_discrete_volume_decay_identity(self, icosphere4):
        # per-step |dVol/dt + integral(|H|^2)| <= 5% of the integral
        cfg = SchemeConfig(cfl=0.01, stop=StopRule(step_cap=25))
        trace = run_until(FlowState(immersion=icosphere4), cfg, alphas=(2.0, 4.0))
        for prev, rec in zip(trace.records, trace.records[1:]):
            flux = (
                rec.st_integral_alpha[2.0] - prev.st_integral_alpha[2.0]
            ) / rec.dt  # trapezoid mean of the |H|^2 integral over the step
            dvol = (rec.vol - prev.vol) / rec.dt
            assert abs(dvol + flux) <= 0.05 * flux

    def test_oracle_gap_shrinks_under_refinement(self):
        gaps = []
        for subdiv in (2, 3):
            imm = icosphere(subdiv=subdiv)
            cfg = SchemeConfig(cfl=0.004, stop=StopRule(t_end=0.04))
            trace = run_until(FlowState(immersion=imm), cfg)
            worst = max(
                abs(r.vol / (4 * math.pi) - (1.0 - 4.0 * r.t)) for r in trace.records
            )
            gaps.append(worst)
        assert gaps[1] < gaps[0]

    def test_trace_commutes_with_isometry(self):
        imm = icosphere(subdiv=2)
        q = random_rotation(3, seed=11)
        shift = np.array([0.4, -2.0, 1.1])
        cfg = SchemeConfig(cfl=0.02, stop=StopRule(step_cap=10))
        a = run_until(FlowState(immersion=imm), cfg)
        b = run_until(FlowState(immersion=imm.transformed(rotation=q, translation=shift)), cfg)
        for ra, rb in zip(a.records, b.records):
            for attr in ("t", "dt", "vol", "h2_max", "h2_min", "a2_max"):
                va, vb = getattr(ra, attr), getattr(rb, attr)
                assert abs(va - vb) <= 1e-10 * max(abs(va), 1.0)

    def test_singular_stop_on_collapse(self):
        # drive a tiny sphere hard into collapse: elements degenerate
        imm = icosphere(subdiv=1, r0=0.05)
        cfg = SchemeConfig(
            scheme="semi_implicit", cfl=0.9, dt_max=1.0, stop=StopRule(t_end=10.0)
        )
        trace = run_until(FlowState(immersion=imm), cfg)
        assert trace.status == "singular" or trace.records[-1].a2_max > 1e4

    def test_non_finite_step_ends_singular(self, monkeypatch):
        monkeypatch.setattr(flow, "_pcg", lambda system, x, r: np.full_like(x, np.nan))
        cfg = SchemeConfig(scheme="semi_implicit", stop=StopRule(step_cap=3))
        trace = run_until(FlowState(immersion=icosphere(subdiv=1)), cfg)
        assert trace.status == "singular"
        assert trace.stop_reason == (
            "step rejected: implicit step degenerated: non-finite vertex coordinates"
        )
        assert len(trace.records) == 1

    def test_element_measures_computed_once_per_vertex_array(self, monkeypatch):
        computed = []
        compute = DiscreteImmersion.element_measures.func

        def counting(imm):
            computed.append(imm.num_vertices)
            return compute(imm)

        monkeypatch.setattr(DiscreteImmersion.element_measures, "func", counting)
        steps = 4
        cfg = SchemeConfig(scheme="semi_implicit", stop=StopRule(step_cap=steps))
        run_until(FlowState(immersion=icosphere(subdiv=2)), cfg)
        assert len(computed) == steps + 1  # the initial immersion, then one per step

    @pytest.mark.parametrize("scheme", sorted(flow.SCHEMES))
    @pytest.mark.parametrize(
        "monitors", [None, {"p_list": (1.0, 2.0, 4.0), "alphas": (4.0, 5.0)}]
    )
    def test_stiffness_assembled_once_per_step(self, scheme, monitors, stiffness_assemblies):
        steps = 4
        cfg = SchemeConfig(scheme=scheme, stop=StopRule(step_cap=steps))
        trace = run_until(FlowState(immersion=icosphere(subdiv=2)), cfg, **(monitors or {}))
        assert len(trace.records) == steps + 1
        assert stiffness_assemblies == [162] * steps  # the final state is never stepped


def _nan_from_the_third_solve(monkeypatch):
    real, solves = flow._pcg, []

    def failing(system, x, r):
        solves.append(1)
        return real(system, x, r) if len(solves) < 3 else np.full_like(x, np.nan)

    monkeypatch.setattr(flow, "_pcg", failing)


LAST_SNAPSHOT_CASES = {
    # (immersion, scheme, snapshot_every, patch)
    "step_cap": (lambda: icosphere(subdiv=2), {"stop": StopRule(step_cap=3)}, 2, None),
    "singular": (
        lambda: icosphere(subdiv=2),
        {"stop": StopRule(step_cap=10)},
        3,
        _nan_from_the_third_solve,
    ),
    "redistributed_curve": (
        lambda: polygon_circle(segments=32),
        {"stop": StopRule(step_cap=4), "redistribute_every": 2},
        3,
        None,
    ),
    "last_step_on_the_grid": (lambda: icosphere(subdiv=2), {"stop": StopRule(step_cap=4)}, 2, None),
}


@pytest.mark.parametrize(
    "build,scheme,every,patch", LAST_SNAPSHOT_CASES.values(), ids=LAST_SNAPSHOT_CASES.keys()
)
def test_last_snapshot_is_the_final_state(monkeypatch, build, scheme, every, patch):
    if patch is not None:
        patch(monkeypatch)
    trace = run_until(FlowState(immersion=build()), SchemeConfig(**scheme), snapshot_every=every)
    assert trace.status == ("singular" if patch else "stopped")
    assert trace.snapshots[-1].step == trace.final_state.step_index
    # the final reports read the last snapshot's fit from the final view
    assert trace.snapshots[-1].immersion is trace.final_view.body


class TestCurveFlow:
    def test_circle_shrinks_on_oracle(self):
        imm = polygon_circle(segments=256, r0=1.0)
        cfg = SchemeConfig(
            scheme="semi_implicit", cfl=0.01, redistribute_every=10, stop=StopRule(t_end=0.2)
        )
        trace = run_until(FlowState(immersion=imm), cfg)
        rec = trace.records[-1]
        # circle: r^2 = 1 - 2t, length = 2 pi r
        r_exact = math.sqrt(1 - 2 * rec.t)
        assert rec.vol / (2 * math.pi) == pytest.approx(r_exact, rel=5e-3)

    def test_explicit_curve_run(self):
        imm = polygon_circle(segments=128, r0=1.0)
        cfg = SchemeConfig(
            scheme="explicit", cfl=0.5, dt_max=5e-4, stop=StopRule(step_cap=40)
        )
        trace = run_until(FlowState(immersion=imm), cfg)
        rec = trace.records[-1]
        assert rec.vol / (2 * math.pi) == pytest.approx(math.sqrt(1 - 2 * rec.t), rel=1e-2)

    def test_explicit_run_is_bounded_by_the_mesh(self):
        # cfl / max|A|^2 alone gives dt = 0.02 here, 16x the mesh bound h^2 / 2
        imm = polygon_circle(segments=128, r0=1.0, ambient_dim=4)
        cfg = SchemeConfig(
            scheme="explicit", cfl=0.02, redistribute_every=0, stop=StopRule(t_end=0.375)
        )
        trace = run_until(FlowState(immersion=imm), cfg)
        assert trace.stop_reason == "t_end"
        lengths = [rec.vol for rec in trace.records]
        exact = [2 * math.pi * math.sqrt(1 - 2 * rec.t) for rec in trace.records]
        assert max(abs(a / b - 1) for a, b in zip(lengths, exact)) <= 5e-3
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))
        h = imm.element_measures[0]
        assert max(rec.dt for rec in trace.records) <= 0.5 * h ** 2 * (1 + 1e-12)


@pytest.fixture(scope="module")
def clifford_torus_runs():
    """Semi-implicit runs of the unit Clifford torus in R^4 (resolution 16) to
    t = 3/8, keyed by cfl; its circles shrink as a^2 = b^2 = 1 - 2t."""
    runs = {}
    for cfl in (0.02, 0.01):
        cfg = SchemeConfig(scheme="semi_implicit", cfl=cfl, stop=StopRule(t_end=0.375))
        imm = clifford_torus(resolution=16)
        runs[cfl] = run_until(FlowState(immersion=imm), cfg, snapshot_every=10)
    return runs


class TestCliffordTorusOracle:
    """A mesh flow with a 2-dimensional normal bundle against its closed form."""

    def test_radii_error_is_first_order_in_cfl(self, clifford_torus_runs):
        errors = {}
        for cfl, trace in clifford_torus_runs.items():
            state = trace.final_state
            assert state.t == pytest.approx(0.375, abs=1e-12) and state.immersion.codim == 2
            x = state.immersion.vertices
            radii = np.linalg.norm(x.reshape(-1, 2, 2), axis=2)
            errors[cfl] = np.abs(radii - math.sqrt(1.0 - 2.0 * state.t)).max()
        # backward-Euler lag: 8.09e-3 at cfl 0.02, 4.08e-3 at cfl 0.01
        assert errors[0.02] <= 1e-2
        assert 1.8 <= errors[0.02] / errors[0.01] <= 2.2

    def test_pinch_ratio_does_not_fall(self, clifford_torus_runs):
        # |A|^2 = |H|^2 lies outside the pinching |A|^2 <= 4/(3n) |H|^2 under
        # which the flow rounds off: the torus shrinks self-similarly, so
        # max|Aring|^2/|H|^2 (1/2 exactly) stays put, where that of the
        # perturbed sphere of criterion 8 falls more than tenfold
        for trace in clifford_torus_runs.values():
            assert len(trace.snapshots) >= 10
            assert trace.snapshots[-1].t == pytest.approx(0.375, abs=1e-12)
            for snap in trace.snapshots:
                pinch = roundness_metrics(snap.immersion)["pinch_ratio"]
                assert abs(pinch - 0.49608) <= 1e-3, snap.t


class TestRedistribute:
    def test_uniform_circle_fixed_point(self):
        imm = polygon_circle(segments=256)
        out = redistribute(imm)
        assert np.abs(out.vertices - imm.vertices).max() <= 1e-10

    def test_clustered_circle_uniformized(self):
        angles = 2 * np.pi * np.linspace(0, 1, 256, endpoint=False) ** 1.5
        imm = polygon_circle(angles=angles)
        out = redistribute(imm)
        seg = out.element_measures
        assert seg.max() / seg.min() <= 1.01

    @settings(max_examples=15, deadline=None)
    @given(
        c1=st.floats(-0.15, 0.15),
        c2=st.floats(-0.1, 0.1),
        s3=st.floats(-0.08, 0.08),
    )
    def test_length_preserved(self, c1, c2, s3):
        imm = fourier_curve([c1, c2], [0.0, 0.0, s3])
        before = imm.element_measures.sum()
        after = redistribute(imm).element_measures.sum()
        assert abs(after - before) / before <= 1e-6

    def test_requires_curve(self, icosphere4):
        with pytest.raises(UnsupportedDimension):
            redistribute(icosphere4)

    def test_redistributed_run_builds_one_topology(self, topology_builds):
        rng = np.random.default_rng(3)
        angles = 2 * np.pi * (np.arange(64) + rng.uniform(-0.3, 0.3, 64)) / 64
        imm = polygon_circle(angles=angles, ambient_dim=4)
        cfg = SchemeConfig(cfl=0.01, redistribute_every=2, stop=StopRule(step_cap=6))
        trace = run_until(FlowState(immersion=imm), cfg)
        assert topology_builds == [64]
        assert trace.final_state.immersion.topology is imm.topology


class TestEstimatorDiscrepancy:
    def test_resolved_sphere_is_small(self, icosphere4, icosphere4_forms):
        _, _, forms = icosphere4_forms
        assert estimator_discrepancy(icosphere4, forms) < 0.1

    def test_laplace_h_points_inward(self, icosphere4):
        h = laplace_mean_curvature(icosphere4)
        dots = np.einsum("vd,vd->v", h, icosphere4.vertices)
        assert (dots < 0).all()


class TestSchemeConfigValidation:
    def test_explicit_cfl_cap(self):
        with pytest.raises(ValidationError):
            SchemeConfig(scheme="explicit", cfl=0.6, stop=StopRule(step_cap=1))

    def test_exactly_one_stop(self):
        with pytest.raises(ValidationError):
            StopRule()
        with pytest.raises(ValidationError):
            StopRule(t_end=1.0, step_cap=5)

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            SchemeConfig(scheme="leapfrog", stop=StopRule(step_cap=1))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StopRule(t_end=math.nan),
            lambda: StopRule(max_a2=math.nan),
            lambda: StopRule(step_cap=math.nan),
            lambda: SchemeConfig(cfl=math.nan),
            lambda: SchemeConfig(dt_max=math.nan),
        ],
        ids=["t_end_nan", "max_a2_nan", "step_cap_nan", "cfl_nan", "dt_max_nan"],
    )
    def test_nan_and_out_of_range_values(self, make):
        with pytest.raises(ValidationError):
            make()


class TestTraceRecordSchema:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False), min_size=12, max_size=12))
    def test_json_round_trip(self, values):
        rec = TraceRecord(
            t=values[0],
            dt=values[1],
            vol=values[2],
            h2_max=values[3],
            h2_min=values[4],
            a2_max=values[5],
            aring_p_norms=dict(zip((1.0, 2.0, 10.0), values[6:9])),
            st_integral_alpha=dict(zip((4.0, 5.0, 12.0), values[9:12])),
            scheme="semi_implicit",
        )
        # "10.0" sorts before "2.0" as a string; json sorts the float keys
        line = json.dumps(vars(rec), sort_keys=True)
        assert line.index('"2.0"') < line.index('"10.0"')
        assert line.index('"5.0"') < line.index('"12.0"')
        assert TraceRecord.from_json_dict(json.loads(line)) == rec
        cols = rec.columns()
        assert list(cols) == [
            "t", "dt", "vol", "h2_max", "h2_min", "a2_max",
            "aring_1", "aring_2", "aring_10", "st_integral_4", "st_integral_5", "st_integral_12",
        ]
        assert cols["aring_10"] == values[8] and cols["st_integral_12"] == values[11]
