"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance NN] PASS/FAIL` line (visible with -s or in
captured output).  Expensive flow runs are shared through module fixtures.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from mcflow import runner
from mcflow.analytic import (
    SphereProductScene,
    SphereScene,
    hoffman_spruck_constant,
    unit_sphere_area,
)
from mcflow.config import config_from_dict
from mcflow.curvature import gauss_residual, jet_forms
from mcflow.flow import FlowState, SchemeConfig, StopRule, run_until
from mcflow.monitors import (
    HOLDS,
    blowup_estimate,
    inequality_suite,
    state_view,
)
from mcflow.rescale import (
    estimate_center,
    parabolic_rescale,
    roundness_metrics,
    subspace_dimension,
)
from mcflow.scenes import (
    clifford_torus,
    ellipsoid,
    embed_immersion,
    icosphere,
    perturb_radially,
)

T_SPHERE = 0.25  # collapse time of the unit 2-sphere


def _report(num, label, ok, detail=""):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {label} {detail}".rstrip())
    assert ok, f"criterion {num}: {label} {detail}"


@pytest.fixture(scope="module")
def sphere_oracle_runs():
    """Criterion-2 runs: icosphere subdiv 4 in R^3 and the same data in R^5."""
    runs = {}
    for name, ambient in (("r3", 3), ("r5", 5)):
        imm = icosphere(subdiv=4, r0=1.0)
        if ambient > 3:
            imm = embed_immersion(imm, ambient)
        # backward-Euler lag in r^2 is ~6*cfl*t, so cfl = 2e-3 keeps the
        # late-time relative volume gap under the 1% budget
        cfg = SchemeConfig(
            scheme="semi_implicit", cfl=0.002, stop=StopRule(t_end=3.0 / 16.0)
        )
        runs[name] = run_until(
            FlowState(immersion=imm), cfg, alphas=(2.0, 4.0)
        )
    return runs


@pytest.fixture(scope="module")
def perturbed_collapse_run():
    """Criterion-8 run: perturbed icosphere embedded in R^5, driven to high
    curvature."""
    imm = perturb_radially(icosphere(subdiv=4, r0=1.0), [(2, 0, 0.05)])
    imm = embed_immersion(imm, 5)
    cfg = SchemeConfig(scheme="semi_implicit", cfl=0.02, stop=StopRule(max_a2=2000.0))
    return run_until(FlowState(immersion=imm), cfg, snapshot_every=10)


def test_criterion_01_analytic_backend_exactness():
    combos_ok = True
    worst = 0.0
    sphere_combos = [(1, 1, 1.0), (2, 1, 1.0), (2, 2, 0.7), (3, 1, 1.3), (3, 2, 2.0), (4, 1, 0.5)]
    for n, d, r0 in sphere_combos:
        scene = SphereScene(n=n, d=d, r0=r0)
        T = r0 ** 2 / (2.0 * n)
        for t in np.linspace(0.0, 0.99 * T, 100):
            st = scene.state(t)
            r2 = r0 ** 2 - 2.0 * n * t
            for got, want in (
                (st.r ** 2, r2),
                (st.h2, n ** 2 / r2),
                (st.a2, n / r2),
                (st.vol, unit_sphere_area(n) * r2 ** (n / 2.0)),
                (st.T, T),
            ):
                worst = max(worst, abs(got - want) / abs(want))
    product_combos = [(1, 1, 1.0, 1.0), (2, 1, 1.0, 1.0), (2, 2, 0.8, 1.1), (3, 1, 1.0, 2.0)]
    for p, q, a0, b0 in product_combos:
        scene = SphereProductScene(p=p, q=q, a0=a0, b0=b0)
        for t in np.linspace(0.0, 0.99 * scene.collapse_time, 100):
            st = scene.state(t)
            a2, b2 = a0 ** 2 - 2 * p * t, b0 ** 2 - 2 * q * t
            h2 = p ** 2 / a2 + q ** 2 / b2
            a2_norm = p / a2 + q / b2
            worst = max(worst, abs(st.h2 - h2) / h2)
            worst = max(worst, abs(st.a2 - a2_norm) / a2_norm)
    clifford = SphereProductScene(p=1, q=1, a0=1.0, b0=1.0)
    for t in np.linspace(0.0, 0.99 * clifford.collapse_time, 100):
        st = clifford.state(t)
        worst = max(worst, abs(st.aring2 / st.h2 - 0.5))
    combos_ok = worst <= 1e-12
    _report(1, "analytic backend exactness", combos_ok, f"worst rel err {worst:.2e}")


def test_criterion_02_mesh_flow_tracks_sphere_oracle(sphere_oracle_runs):
    worst_r2, worst_vol = 0.0, 0.0
    for trace in sphere_oracle_runs.values():
        for rec in trace.records:
            r2_exact = 1.0 - 4.0 * rec.t
            r2_mesh = rec.vol / (4.0 * math.pi)
            worst_r2 = max(worst_r2, abs(r2_mesh - r2_exact))
            worst_vol = max(
                worst_vol, abs(rec.vol - 4.0 * math.pi * r2_exact) / (4.0 * math.pi * r2_exact)
            )
    ok = worst_r2 <= 1e-2 and worst_vol <= 1e-2
    _report(
        2,
        "mesh flow vs shrinking-sphere oracle (R^3 and R^5)",
        ok,
        f"|r2 gap| {worst_r2:.3e}, vol rel {worst_vol:.3e}",
    )


def test_criterion_03_discrete_volume_decay(sphere_oracle_runs):
    worst = 0.0
    for trace in sphere_oracle_runs.values():
        for prev, rec in zip(trace.records, trace.records[1:]):
            flux = (rec.st_integral_alpha[2.0] - prev.st_integral_alpha[2.0]) / rec.dt
            dvol = (rec.vol - prev.vol) / rec.dt
            worst = max(worst, abs(dvol + flux) / flux)
    _report(3, "per-step volume decay identity", worst <= 0.05, f"worst rel {worst:.3e}")


def test_criterion_04_spacetime_integral_oracle(sphere_oracle_runs):
    slope_expected = 16.0 * math.pi  # n^{n+1} A_n / 2 for n = 2
    trace = sphere_oracle_runs["r3"]
    logs, vals, end_gap = [], [], 0.0
    for rec in trace.records:
        want = slope_expected * math.log(T_SPHERE / (T_SPHERE - rec.t))
        got = rec.st_integral_alpha[4.0]
        if rec.t > 0.02:
            end_gap = abs(got - want) / want
        logs.append(math.log(T_SPHERE / (T_SPHERE - rec.t)))
        vals.append(got)
    slope = float(np.polyfit(logs, vals, 1)[0])
    ok = end_gap <= 0.05 and abs(slope - slope_expected) / slope_expected <= 0.10
    _report(
        4,
        "spacetime |H|^4 integral matches log law",
        ok,
        f"final gap {end_gap:.3e}, slope {slope:.3f} vs {slope_expected:.3f}",
    )


def test_criterion_05_blowup_estimator(sphere_oracle_runs):
    scene = SphereScene(n=2, r0=1.0)
    cfg = SchemeConfig(cfl=0.05, stop=StopRule(t_end=0.2))
    analytic_trace = run_until(FlowState(immersion=scene), cfg)
    est0 = analytic_trace.records[0]
    exact0 = est0.t + 2.0 / (2.0 * est0.h2_max)
    mesh_est = blowup_estimate(sphere_oracle_runs["r3"])["T_hat_stabilized"]
    gap = abs(mesh_est - T_SPHERE) / T_SPHERE
    ok = abs(exact0 - T_SPHERE) <= 1e-15 and gap <= 2e-2
    _report(
        5,
        "collapse-time estimator",
        ok,
        f"analytic exact, mesh rel gap {gap:.3e}",
    )


def test_criterion_06_identity_suite():
    worst_trace, worst_decomp = 0.0, 0.0
    battery = [
        icosphere(subdiv=4, r0=1.0),
        ellipsoid([1.2, 1.0, 0.9], subdiv=4),
        clifford_torus(1.0, 1.0, resolution=64),
    ]
    for imm in battery:
        _, forms = jet_forms(imm)
        tr = np.einsum("vkaa->vk", forms.aring)
        scale = np.maximum(np.sqrt(forms.a2)[:, None], 1e-300)
        worst_trace = max(worst_trace, float(np.abs(tr / scale).max()))
        decomp = np.abs(forms.a2 - forms.aring2 - forms.h2 / imm.intrinsic_dim)
        worst_decomp = max(worst_decomp, float((decomp / forms.a2).max()))
    product = SphereProductScene(p=2, q=1)
    h = product.form_components(0.0)
    tr = np.trace(h, axis1=1, axis2=2)
    aring = h - tr[:, None, None] * np.eye(3) / 3
    a2 = float(np.einsum("kab,kab->", h, h))
    worst_trace = max(
        worst_trace, float(np.abs(np.trace(aring, axis1=1, axis2=2)).max()) / math.sqrt(a2)
    )
    aring2 = float(np.einsum("kab,kab->", aring, aring))
    h2 = float(tr @ tr)
    worst_decomp = max(worst_decomp, abs(a2 - aring2 - h2 / 3) / a2)

    orders = []
    residuals = []
    for subdiv in (3, 4):
        imm = icosphere(subdiv=subdiv)
        _, forms = jet_forms(imm)
        residuals.append(float(np.abs(gauss_residual(imm, forms)).mean()))
    order = math.log2(residuals[0] / residuals[1])
    ok = worst_trace <= 1e-12 and worst_decomp <= 1e-12 and order >= 1.5
    _report(
        6,
        "identity suite on the battery",
        ok,
        f"trace {worst_trace:.2e}, decomp {worst_decomp:.2e}, gauss order {order:.2f}",
    )


def test_criterion_07_inequality_suite():
    failures = []
    chen_ratio = hmax_ratio = None
    battery = [
        ("sphere", icosphere(subdiv=4, r0=1.0)),
        ("ellipsoid", ellipsoid([1.2, 1.0, 0.9], subdiv=4)),
        ("clifford", clifford_torus(1.0, 1.0, resolution=64)),
        ("s2xs1", SphereProductScene(p=2, q=1)),
    ]
    for name, item in battery:
        reports = {r.name: r for r in inequality_suite(state_view(item))}
        for check in (
            "chen_total_mean_curvature",
            "hmax_lower_bound",
            "gradient_a_vs_aring",
            "gradient_h_vs_aring",
        ):
            if reports[check].verdict != HOLDS:
                failures.append(f"{name}:{check}")
        if name == "sphere":
            chen_ratio = reports["chen_total_mean_curvature"].values["integral"] / (
                16.0 * math.pi
            )
            hmax_ratio = reports["hmax_lower_bound"].values["ratio"]
    ok = (
        not failures
        and abs(chen_ratio - 1.0) <= 2e-2
        and abs(hmax_ratio - 4.0) / 4.0 <= 2e-2
    )
    _report(
        7,
        "inequality suite on the battery",
        ok,
        f"failures {failures or 'none'}, sphere chen/16pi {chen_ratio:.4f}, "
        f"hmax ratio {hmax_ratio:.4f}",
    )


def test_criterion_08_rescaled_convergence_demo(perturbed_collapse_run):
    trace = perturbed_collapse_run
    t_hat = blowup_estimate(trace)["T_hat_stabilized"]
    center = estimate_center(trace)["center"]
    pinches = []
    final_metrics = None
    for snap in trace.snapshots:
        if snap.t >= t_hat:
            continue
        state = parabolic_rescale(snap.immersion, snap.t, center, t_hat)
        _, forms = jet_forms(state.immersion)
        metrics = roundness_metrics(state.immersion, forms)
        pinches.append(metrics["pinch_ratio"])
        final_metrics = metrics
    sub = subspace_dimension(trace.snapshots[-1].immersion.vertices)
    ok = (
        trace.records[-1].a2_max >= 2000.0
        and pinches[-1] < pinches[0] / 10.0
        and final_metrics["radial_cv"] <= 2e-2
        and sub["dim"] == 3
        and sub["residual"] <= 1e-8
    )
    _report(
        8,
        "rescaled flow rounds off (perturbed sphere in R^5)",
        ok,
        f"pinch {pinches[0]:.4f}->{pinches[-1]:.5f}, cv {final_metrics['radial_cv']:.4f}, "
        f"dim {sub['dim']} res {sub['residual']:.1e}",
    )


def test_criterion_09_hoffman_spruck_constants():
    mp.mp.dps = 40
    worst = 0.0
    ratio_worst = 0.0
    for n in range(2, 9):
        for alpha in (0.25, 0.5, n / (n + 1.0)):
            omega = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
            base = (
                mp.mpf(2) ** (n - 2)
                / mp.mpf(alpha)
                * (1 - mp.mpf(alpha)) ** (-mp.mpf(1) / n)
                * mp.mpf(n)
                / (n - 1)
                * omega ** (-mp.mpf(1) / n)
            )
            for b_real, want in ((False, base), (True, base * mp.pi / 2)):
                got = hoffman_spruck_constant(n, alpha, b_real)
                worst = max(worst, float(abs(got - want) / want))
            ratio = hoffman_spruck_constant(n, alpha, True) / hoffman_spruck_constant(
                n, alpha, False
            )
            ratio_worst = max(ratio_worst, abs(ratio - math.pi / 2) / (math.pi / 2))
    ok = worst <= 1e-12 and ratio_worst <= 1e-15
    _report(
        9,
        "explicit Sobolev constant vs high-precision oracle",
        ok,
        f"worst rel {worst:.2e}, branch ratio off by {ratio_worst:.2e}",
    )


def test_criterion_10_reproducibility(tmp_path):
    raw = {
        "scene": {"kind": "icosphere", "r0": 1.0, "subdiv": 3},
        "stop": {"step_cap": 30},
        "scheme": {"cfl": 0.01},
        "seed": 42,
    }
    cfg = config_from_dict(raw)
    runner.run(cfg, tmp_path / "a")
    runner.run(cfg, tmp_path / "b")
    identical = (tmp_path / "a" / "trace.ndjson").read_bytes() == (
        tmp_path / "b" / "trace.ndjson"
    ).read_bytes()

    from conftest import random_rotation

    imm = icosphere(subdiv=3, r0=1.0)
    q = random_rotation(3, seed=7)
    shift = np.array([0.3, -1.2, 2.5])
    cfg2 = SchemeConfig(cfl=0.01, stop=StopRule(step_cap=30))
    base = run_until(FlowState(immersion=imm), cfg2, alphas=(4.0,))
    moved = run_until(
        FlowState(immersion=imm.transformed(rotation=q, translation=shift)),
        cfg2,
        alphas=(4.0,),
    )
    worst = 0.0
    for ra, rb in zip(base.records, moved.records):
        for va, vb in (
            (ra.t, rb.t),
            (ra.dt, rb.dt),
            (ra.vol, rb.vol),
            (ra.h2_max, rb.h2_max),
            (ra.h2_min, rb.h2_min),
            (ra.a2_max, rb.a2_max),
            (ra.aring_p_norms[2.0], rb.aring_p_norms[2.0]),
            (ra.st_integral_alpha[4.0], rb.st_integral_alpha[4.0]),
        ):
            worst = max(worst, abs(va - vb) / max(abs(va), 1e-30))
    ok = identical and worst <= 1e-10
    _report(
        10,
        "byte-identical reruns; isometry-invariant scalar columns",
        ok,
        f"identical={identical}, worst column gap {worst:.2e}",
    )
