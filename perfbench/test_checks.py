"""Self-tests of the benchmark's correctness checks and span reduction.

Each check must accept an exact output and reject a slightly wrong one.
Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import checks
import run
import tracing

TIMES = np.linspace(0.0, 3.0 / 16.0, 50)


def test_sphere_area_trace_off_by_two_percent_is_rejected():
    exact = [checks.sphere_area(t) for t in TIMES]
    assert checks.worst_relative_gap(TIMES, exact, checks.sphere_area) == 0.0
    off = [1.02 * v for v in exact]
    assert checks.worst_relative_gap(TIMES, off, checks.sphere_area) > 1e-2


def test_h4_integral_closed_form_matches_quadrature():
    # |H|^4 * area = (4/r^2)^2 * 4*pi*r^2 = 64*pi / (1 - 4t) on the unit 2-sphere
    for t in (0.02, 0.1, 3.0 / 16.0):
        quad, _ = integrate.quad(lambda s: 64.0 * math.pi / (1.0 - 4.0 * s), 0.0, t)
        assert checks.sphere_h4_integral(t) == pytest.approx(quad, rel=1e-12)
    late = [1.06 * checks.sphere_h4_integral(t) for t in TIMES]
    assert checks.worst_relative_gap(TIMES, late, checks.sphere_h4_integral, t_min=0.02) > 5e-2


def test_vertices_pushed_off_the_plane_are_rejected():
    rng = np.random.default_rng(0)
    basis, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    pts = rng.standard_normal((100, 3)) @ basis.T
    assert checks.plane_residual(pts, basis) <= 1e-12
    normal = np.linalg.svd(basis.T)[2][-1]  # a unit vector orthogonal to the plane
    pts[7] += 1e-6 * normal
    assert checks.plane_residual(pts, basis) > 1e-12


def test_curve_whose_length_grew_is_rejected():
    times = np.linspace(0.0, 0.25, 40)
    grown = [checks.circle_length(0.0) * (1.0 + 0.01 * t) for t in times]
    assert checks.worst_relative_gap(times, grown, checks.circle_length) > 5e-3


def test_uneven_spacing_shows_in_the_cv():
    angles = 2 * np.pi * np.arange(256) / 256
    even = np.column_stack([np.cos(angles), np.sin(angles)])
    assert checks.spacing_cv(even) < 1e-12
    jitter = angles + 0.3 * 2 * np.pi / 256 * np.random.default_rng(1).uniform(-1, 1, 256)
    uneven = np.column_stack([np.cos(jitter), np.sin(jitter)])
    assert checks.spacing_cv(uneven) > 0.1


def test_trace_order_and_parse_faults():
    good = [{"t": 0.0, "vol": 3.0}, {"t": 0.1, "vol": 2.0}, {"t": 0.2, "vol": 1.0}]
    assert checks.trace_order_faults(good) == []
    stalled = [good[0], {"t": 0.0, "vol": 2.0}]
    grew = [good[0], {"t": 0.1, "vol": 3.5}]
    assert checks.trace_order_faults(stalled) and checks.trace_order_faults(grew)
    text = "\n".join(json.dumps(r) for r in good) + '\n{"t": 0.3, "vol"'
    records, faults = checks.parse_ndjson(text)
    assert len(records) == 3 and len(faults) == 1


def test_identity_residual_above_tolerance_is_seen():
    reports = [
        {"name": "sphere:tracefree_trace", "values": {"max_rel": 1e-15}},
        {"name": "sphere:norm_decomposition", "values": {"max_rel": 1e-11}},
        {"name": "sphere:structural_residuals", "values": {"gauss_mean_abs": 1.0}},
    ]
    assert checks.identity_worst(reports) == 1e-11
    assert checks.identity_worst([]) == math.inf


def test_analytic_records_off_the_closed_form_are_rejected():
    n, r0 = 2, 1.1
    recs = [{"t": t, "h2_max": n * n / (r0 * r0 - 2 * n * t)} for t in np.linspace(0, 0.2, 9)]
    assert checks.analytic_sphere_gap(recs, n, r0) <= 1e-15
    recs[4]["h2_max"] *= 1 + 1e-9
    assert checks.analytic_sphere_gap(recs, n, r0) > 1e-12
    prod = [{"t": 0.05, "h2_max": 4 / (1 - 0.2) + 1 / (1 - 0.1)}]
    assert checks.analytic_product_gap(prod, 2, 1, 1.0, 1.0) <= 1e-15


def test_oracle_record_gap():
    r0, t = 1.0, 0.05
    rec = {"r": math.sqrt(r0 * r0 - 6 * t), "h2": 9 / (r0 * r0 - 6 * t), "T": 1 / 6}
    assert checks.oracle_sphere_gap(rec, 3, r0, t) <= 1e-15
    rec["T"] = 1 / 6 * (1 + 1e-10)
    assert checks.oracle_sphere_gap(rec, 3, r0, t) > 1e-12


def test_perturbed_sphere_area_by_independent_rule():
    assert checks.perturbed_sphere_area(0.0) == pytest.approx(4 * math.pi, rel=1e-13)
    eps, c = 0.05, 0.25 * math.sqrt(5 / math.pi)
    theta = np.linspace(0.0, math.pi, 200001)
    r = 1 + eps * c * (3 * np.cos(theta) ** 2 - 1)
    dr = -eps * c * 6 * np.cos(theta) * np.sin(theta)
    area = integrate.trapezoid(2 * math.pi * r * np.sqrt(r * r + dr * dr) * np.sin(theta), theta)
    assert checks.perturbed_sphere_area(eps) == pytest.approx(area, rel=1e-9)


def test_affine_dimension_sees_a_lifted_point():
    rng = np.random.default_rng(2)
    basis, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    pts = rng.standard_normal((50, 3)) @ basis.T
    assert checks.affine_dimension(pts) == 3
    pts[0] += 1e-3 * np.linalg.svd(basis.T)[2][-1]
    assert checks.affine_dimension(pts) == 4


def test_faults_treat_nan_as_failure():
    faults = checks.Faults()
    faults.at_most(float("nan"), 1.0, "nan gap")
    faults.at_least(float("nan"), 1.0, "nan value")
    faults.at_most(0.5, 1.0, "fine")
    assert len(faults.items) == 2


def test_span_reduction():
    tr = tracing.Tracer()
    # round [0, 10]: a(1..5) holding b(2..3) and b(3.5..4); a(6..9)
    tr.spans = [
        ["bench.round", 0.0, 10.0, -1],
        ["x.a", 1.0, 5.0, 0],
        ["x.b", 2.0, 3.0, 1],
        ["x.b", 3.5, 4.0, 1],
        ["x.a", 6.0, 9.0, 0],
    ]
    assert tr.durations(["x.a"]) == [4.0, 3.0]
    assert tr.durations(["x.a", "x.b"]) == [4.0, 3.0]  # outermost only
    assert tr.self_times("x.a") == [2.5, 3.0]
    assert tr.covered(0.0, 10.0) == 7.0
    metrics = tracing.layer_metrics(tr, rounds=1, steps=0)
    assert metrics["trace.uncovered_share"] == pytest.approx(0.3)
    assert metrics["curvature.jet_forms.calls"] == 0  # a missing span reads 0


def test_unreadable_suite_output_is_a_fault_not_a_crash():
    sys.path.insert(0, str(run.SRC))
    import workloads

    faults = checks.Faults()
    assert workloads._last_json(faults, "", "empty output") is None
    assert workloads._last_json(faults, "[{}]\nTraceback", "garbled output") is None
    assert workloads._report_values(faults, None, "sphere:topping_ratio") is None
    report = {"name": "sphere:topping_ratio", "values": {"diameter": 2.0}}
    assert workloads._report_values(faults, [report], "sphere:topping_ratio") == {"diameter": 2.0}
    assert len(faults.items) == 3


class _Rings:
    """A topology stand-in whose ring_neighborhoods may or may not store results."""

    def __init__(self, cached: bool):
        self.cached = cached
        self.store = {}

    def ring_neighborhoods(self, ring):
        if self.cached and ring in self.store:
            return self.store[ring]
        self.store[ring] = (np.arange(4), np.ones(4, dtype=bool))
        return self.store[ring]


@pytest.mark.parametrize("cached, hits", [(True, 3), (False, 0)])
def test_ring_hits_follow_what_the_program_returns(cached, hits):
    tr = tracing.Tracer()
    topo = _Rings(cached)
    traced = tr.wrap(_Rings.ring_neighborhoods, "mesh.MeshTopology.ring_neighborhoods")
    for ring in (2, 2, 2, 2, 1):
        traced(topo, ring)
    assert (tr.ring_calls, tr.ring_hits, len(tr.ring_miss_s)) == (5, hits, 5 - hits)


def test_tail_mean_averages_the_slowest_tenth_less_its_top():
    assert run.tail_mean([float(k) for k in range(1, 21)]) == 19.5
    assert run.tail_mean([3.0, 1.0]) == 3.0
    # one preempted sample among a hundred does not move it
    assert run.tail_mean([1.0] * 99 + [1000.0]) == 1.0
    assert run.tail_mean([float(k) for k in range(100)]) == 93.5


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    traced = tracing.layer_metrics(tracing.Tracer(), rounds=1, steps=0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: tracing.layer_unit(k) for k in traced
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
