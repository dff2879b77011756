import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflow.curvature import jet_forms
from mcflow.errors import PastSingularity, ZeroMeanCurvature
from mcflow.flow import FlowState, SchemeConfig, StopRule, run_until
from mcflow.mesh import DiscreteImmersion
from mcflow.rescale import (
    estimate_center,
    parabolic_rescale,
    roundness_metrics,
    subspace_dimension,
    weighted_centroid,
)
from mcflow.scenes import embed_immersion, icosphere, perturb_radially


class TestEstimateCenter:
    def test_sphere_center_recovered(self):
        center = np.array([1.0, -2.0, 0.5])
        imm = icosphere(subdiv=3, center=center)
        cfg = SchemeConfig(cfl=0.02, stop=StopRule(step_cap=5))
        trace = run_until(FlowState(immersion=imm), cfg, snapshot_every=1)
        info = estimate_center(trace)
        assert np.allclose(info["center"], center, atol=1e-12)
        assert info["drift"] <= 1e-12

    def test_translation_covariance(self):
        imm = icosphere(subdiv=2)
        shift = np.array([5.0, 1.0, -3.0])
        assert np.allclose(
            weighted_centroid(imm.transformed(translation=shift)),
            weighted_centroid(imm) + shift,
            atol=1e-12,
        )

    def test_drift_settles_on_asymmetric_flow(self):
        imm = perturb_radially(icosphere(subdiv=3), [(3, 1, 0.08)])
        cfg = SchemeConfig(cfl=0.02, stop=StopRule(max_a2=800.0))
        trace = run_until(FlowState(immersion=imm), cfg, snapshot_every=5)
        info = estimate_center(trace)
        assert info["drift"] <= 1e-3  # relative to r0 = 1
        assert info["distance_to_h2_peak"] is not None


class TestParabolicRescale:
    def test_exact_sphere_becomes_unit(self, icosphere4):
        # r(t) = sqrt(2n(T - t)) so the rescaled sphere is the unit sphere
        T = 0.25
        for t in (0.0, 0.1, 0.2):
            lam = math.sqrt(4 * (T - t))
            shrunk = icosphere4.transformed(scale=lam)
            state = parabolic_rescale(shrunk, t, np.zeros(3), T)
            assert state.lam == pytest.approx(lam, rel=1e-15)
            radii = np.linalg.norm(state.immersion.vertices, axis=1)
            assert np.abs(radii - 1.0).max() < 1e-12
            _, forms = jet_forms(state.immersion)
            assert np.abs(forms.h2 - 4.0).max() < 6e-2
            assert np.abs(forms.a2 - 2.0).max() < 6e-2

    def test_scaling_laws_exact(self, icosphere4, icosphere4_forms):
        _, _, forms = icosphere4_forms
        t, T_hat = 0.1, 0.3
        state = parabolic_rescale(icosphere4, t, np.zeros(3), T_hat)
        lam = state.lam
        _, rescaled_forms = jet_forms(state.immersion)
        assert np.allclose(rescaled_forms.h2, lam ** 2 * forms.h2, rtol=1e-12)
        assert np.allclose(rescaled_forms.a2, lam ** 2 * forms.a2, rtol=1e-12)
        w = icosphere4.vertex_weights
        w_rescaled = state.immersion.vertex_weights
        assert np.allclose(w_rescaled, w / lam ** 2, rtol=1e-12)
        # pinch ratio is scale invariant
        a = roundness_metrics(icosphere4, forms)["pinch_ratio"]
        b = roundness_metrics(state.immersion, rescaled_forms)["pinch_ratio"]
        assert b == pytest.approx(a, rel=1e-9)

    def test_clifford_factor_radius(self, clifford64):
        # a0 = b0 = 1: T = 1/2; factor radii rescale to 1/sqrt(2)
        T = 0.5
        t = 0.3
        a_t = math.sqrt(1 - 2 * t)
        shrunk = clifford64.with_vertices(clifford64.vertices * a_t)
        state = parabolic_rescale(shrunk, t, np.zeros(4), T)
        first = np.linalg.norm(state.immersion.vertices[:, :2], axis=1)
        second = np.linalg.norm(state.immersion.vertices[:, 2:], axis=1)
        assert np.abs(first - 1 / math.sqrt(2)).max() < 1e-12
        assert np.abs(second - 1 / math.sqrt(2)).max() < 1e-12

    def test_identity_at_unit_scale(self, icosphere4):
        t = 0.7
        T_hat = t + 1.0 / 4.0  # lambda = sqrt(2n(T-t)) = 1 for n = 2
        state = parabolic_rescale(icosphere4, t, np.zeros(3), T_hat)
        assert state.lam == 1.0
        assert np.array_equal(state.immersion.vertices, icosphere4.vertices)

    def test_past_singularity(self, icosphere4):
        with pytest.raises(PastSingularity):
            parabolic_rescale(icosphere4, 0.3, np.zeros(3), 0.25)


class TestRoundness:
    def test_unit_sphere(self, icosphere4, icosphere4_forms):
        _, _, forms = icosphere4_forms
        metrics = roundness_metrics(icosphere4, forms)
        assert metrics["pinch_ratio"] <= 5e-4
        assert metrics["radial_cv"] <= 1e-6
        assert metrics["hausdorff_to_unit_sphere"] <= 1e-6

    def test_clifford_pinch_ratio(self, clifford64, clifford64_forms):
        _, _, forms = clifford64_forms
        metrics = roundness_metrics(clifford64, forms)
        assert metrics["pinch_ratio"] == pytest.approx(0.5, abs=5e-2)

    def test_memory_stays_linear_in_vertices(self):
        # a full SVD of the (V, 3) offsets would hold a V x V factor: 839 MB here
        sphere = icosphere(subdiv=5)
        _, forms = jet_forms(sphere)
        tracemalloc.start()
        try:
            metrics = roundness_metrics(sphere, forms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2 ** 20
        assert metrics["hausdorff_to_unit_sphere"] <= 1e-6

    def test_zero_mean_curvature_guard(self):
        verts = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        segs = np.column_stack([np.arange(8), np.arange(1, 9)]).astype(np.int64)
        line = DiscreteImmersion(verts, segs, 1, closed=False)
        with pytest.raises(ZeroMeanCurvature):
            roundness_metrics(line)


class TestSubspaceDimension:
    def test_sphere_in_coordinate_subspace(self):
        imm = embed_immersion(icosphere(subdiv=3), 5)
        out = subspace_dimension(imm.vertices)
        assert out["dim"] == 3
        assert out["residual"] <= 1e-8

    def test_full_dimensional_cloud(self):
        rng = np.random.default_rng(0)
        out = subspace_dimension(rng.standard_normal((200, 4)))
        assert out["dim"] == 4
        assert out["residual"] == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        tol1=st.floats(1e-12, 0.9),
        tol2=st.floats(1e-12, 0.9),
        seed=st.integers(0, 1000),
    )
    def test_tolerance_monotonicity(self, tol1, tol2, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((50, 3)) * np.array([1.0, 0.3, 1e-4])
        lo, hi = sorted([tol1, tol2])
        assert subspace_dimension(pts, hi)["dim"] <= subspace_dimension(pts, lo)["dim"]
