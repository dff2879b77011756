"""The four benchmark workloads.

Each workload is a round function: it makes its inputs from the run's
seeded generator, drives mcflow only through ``mcflow.run_until``,
``mcflow.cli.main`` (in process) and ``mcflow.sobolev_check_zonal``, checks
the outputs and returns a ``Round``.  A run repeats whole rounds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import mcflow
import mcflow.cli
import mcflow.scenes

import checks

OK_EXIT_CODES = (0, 2)  # 2 is a monitor verdict, not a failed operation


@dataclass
class Round:
    run_s: float = 0.0
    setup_s: float | None = None  # round start to the first operation
    samples_ms: list = field(default_factory=list)  # one per unit operation
    steps: int = 0  # accepted mesh-flow steps
    attempted: int = 0
    failed: int = 0
    oracle_err: float = 0.0


@dataclass
class Context:
    rng: np.random.Generator
    out_dir: str
    faults: checks.Faults
    tracer: object = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def random_basis(rng: np.random.Generator, ambient: int, k: int) -> np.ndarray:
    """Orthonormal (ambient x k) frame of a seeded random k-plane."""
    q, r = np.linalg.qr(rng.standard_normal((ambient, k)))
    return q * np.sign(np.diag(r))


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# --- flow workloads (run_until) -------------------------------------------

def _flow_round(ctx: Context, build, cfg, probe: bool):
    """Build a scene and run it; returns the round and the trace (None on failure)."""
    rnd = Round()
    stamps: list[float] = []
    start = time.perf_counter()
    try:
        with ctx.span("scenes.build"):
            imm = build()
        if probe:
            cfg = mcflow.SchemeConfig(
                scheme=cfg.scheme, cfl=cfg.cfl, stop=mcflow.StopRule(step_cap=1)
            )
        trace = mcflow.run_until(
            mcflow.FlowState(immersion=imm),
            cfg,
            on_record=lambda rec: stamps.append(time.perf_counter()),
        )
    except Exception:
        _report_failure("run_until")
        rnd.attempted = max(len(stamps) - 1, 0) + 1
        rnd.failed = 1
        return rnd, None
    end = time.perf_counter()
    rnd.run_s = end - start
    rnd.setup_s = stamps[0] - start
    rnd.samples_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
    rnd.steps = len(trace.records) - 1
    rnd.attempted = rnd.steps
    if trace.status != "stopped":
        ctx.faults.require(False, f"flow ended {trace.status}: {trace.stop_reason}")
    return rnd, trace


def oracle_flow(ctx: Context, probe: bool = False) -> Round:
    """Unit 2-sphere (V = 2562) in a seeded 3-plane of R^5, toward t = 3/16."""
    basis = random_basis(ctx.rng, 5, 3)
    cfg = mcflow.SchemeConfig(
        scheme="semi_implicit", cfl=2e-3, stop=mcflow.StopRule(t_end=3.0 / 16.0)
    )
    rnd, trace = _flow_round(
        ctx,
        lambda: mcflow.scenes.icosphere(subdiv=4, r0=1.0, ambient_dim=5, subspace=basis),
        cfg,
        probe,
    )
    if trace is None or probe:
        return rnd
    f = ctx.faults
    times = [r.t for r in trace.records]
    rnd.oracle_err = checks.worst_relative_gap(
        times, [r.vol for r in trace.records], checks.sphere_area
    )
    f.at_most(rnd.oracle_err, 1e-2, "oracle_flow area vs 4*pi*(1-4t)")
    h4 = [r.st_integral_alpha[4.0] for r in trace.records]
    f.at_most(
        checks.worst_relative_gap(times, h4, checks.sphere_h4_integral, t_min=0.02),
        5e-2,
        "oracle_flow |H|^4 integral vs 16*pi*log(T/(T-t))",
    )
    f.at_most(abs(times[-1] - 3.0 / 16.0), 1e-12, "oracle_flow final time")
    f.at_most(
        checks.plane_residual(trace.final_state.immersion.vertices, basis),
        1e-12,
        "oracle_flow distance from the 3-plane",
    )
    f.at_least(rnd.steps, 100, "oracle_flow accepted steps")
    return rnd


CURVE_VERTICES = 1024


def curve_flow(ctx: Context, probe: bool = False) -> Round:
    """Jittered 1024-gon on the unit circle in a seeded 2-plane of R^4."""
    basis = random_basis(ctx.rng, 4, 2)
    jitter = ctx.rng.uniform(-0.35, 0.35, CURVE_VERTICES)
    angles = 2.0 * math.pi * (np.arange(CURVE_VERTICES) + jitter) / CURVE_VERTICES
    initial_cv = checks.spacing_cv(np.column_stack([np.cos(angles), np.sin(angles)]))
    cfg = mcflow.SchemeConfig(
        scheme="semi_implicit",
        cfl=2e-3,
        redistribute_every=5,
        stop=mcflow.StopRule(t_end=0.25),
    )
    rnd, trace = _flow_round(
        ctx,
        lambda: mcflow.scenes.polygon_circle(angles=angles, ambient_dim=4, subspace=basis),
        cfg,
        probe,
    )
    if trace is None or probe:
        return rnd
    f = ctx.faults
    times = [r.t for r in trace.records]
    rnd.oracle_err = checks.worst_relative_gap(
        times, [r.vol for r in trace.records], checks.circle_length
    )
    f.at_most(rnd.oracle_err, 5e-3, "curve_flow length vs 2*pi*sqrt(1-2t)")
    final = trace.final_state.immersion.vertices
    f.at_most(checks.plane_residual(final, basis), 1e-12, "curve_flow distance from the 2-plane")
    f.at_most(
        checks.spacing_cv(final @ basis),
        initial_cv / 10.0,
        f"curve_flow spacing CV after redistribution (initial {initial_cv:.3e})",
    )
    f.at_least(rnd.steps, 100, "curve_flow accepted steps")
    return rnd


# --- CLI workloads ----------------------------------------------------------

def cli(ctx: Context, rnd: Round, *argv) -> tuple[int | None, str]:
    """Run ``mcflow.cli.main`` in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    rnd.attempted += 1
    try:
        with ctx.span(f"bench.cli.{argv[0]}"), contextlib.redirect_stdout(buf):
            code = mcflow.cli.main(list(argv))
    except Exception:
        _report_failure("mcflow " + " ".join(argv[:3]))
        code = None
    if code not in OK_EXIT_CODES:
        rnd.failed += 1
    return code, buf.getvalue()


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _read_csv_columns(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, i] for i, name in enumerate(rows[0])}


COLLAPSE_AMPLITUDE = 0.05


def collapse_pipeline(ctx: Context, probe: bool = False) -> Round:
    """Perturbed icosphere (V = 642) in R^5 to max|A|^2 = 2000; run, rescale, plot."""
    rnd = Round()
    start = time.perf_counter()
    basis = random_basis(ctx.rng, 5, 3)
    run_dir = _fresh_dir(os.path.join(ctx.out_dir, "collapse"))
    config = {
        "scene": {
            "kind": "icosphere",
            "subdiv": 3,
            "r0": 1.0,
            "ambient_dim": 5,
            "embed_subspace": basis.tolist(),
            "perturbation": {"modes": [[2, 0, COLLAPSE_AMPLITUDE]]},
        },
        "scheme": {"scheme": "semi_implicit", "cfl": 0.02},
        "stop": {"maxA2": 2000.0},
        "snapshot_every": 10,
    }
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    out = os.path.join(run_dir, "run")
    rnd.setup_s = time.perf_counter() - start

    t0 = time.perf_counter()
    code_run, _ = cli(ctx, rnd, "run", "--config", config_path, "--out", out)
    t_run = time.perf_counter() - t0
    code_rescale, _ = cli(ctx, rnd, "rescale", "--trace", out)
    code_plot, plot_out = cli(ctx, rnd, "plot", "--trace", out, "--vars", "t,vol,st_integral_4")
    rnd.run_s = time.perf_counter() - t0
    if rnd.failed:
        return rnd

    f = ctx.faults
    f.require(code_run == 0, f"collapse run exit code {code_run}")
    f.require(code_rescale == 0, f"collapse rescale exit code {code_rescale}")
    f.require(code_plot == 0, f"collapse plot exit code {code_plot}")
    with open(os.path.join(out, "MANIFEST.json")) as fh:
        manifest = json.load(fh)
    f.require(manifest.get("status") == "complete", f"MANIFEST status {manifest.get('status')}")
    for artifact in ("trace.ndjson", "snapshots", "monitors.json", "summary.json"):
        f.require(
            artifact in manifest.get("artifacts", []) and os.path.exists(os.path.join(out, artifact)),
            f"MANIFEST artifact {artifact} missing",
        )
    with open(os.path.join(out, "trace.ndjson")) as fh:
        records, parse_faults = checks.parse_ndjson(fh.read())
    for fault in parse_faults + checks.trace_order_faults(records):
        f.require(False, fault)
    if not records:
        return rnd
    rnd.steps = len(records) - 1
    rnd.samples_ms = [1e3 * t_run / max(rnd.steps, 1)]
    f.at_least(records[-1]["a2_max"], 2000.0, "collapse final max|A|^2")
    area = checks.perturbed_sphere_area(COLLAPSE_AMPLITUDE)
    rnd.oracle_err = abs(records[0]["vol"] - area) / area
    f.at_most(rnd.oracle_err, 2e-2, "collapse initial area vs quadrature")

    with open(os.path.join(out, "rescaled", "roundness.json")) as fh:
        series = json.load(fh)["series"]
    f.require(len(series) >= 2, "collapse rescale produced fewer than two snapshots")
    if len(series) >= 2:
        f.at_least(
            series[0]["pinch_ratio"] / series[-1]["pinch_ratio"], 10.0, "collapse pinch ratio fall"
        )
        last = _read_csv_columns(os.path.join(out, "rescaled", series[-1]["file"]))
        pts = np.column_stack([v for k, v in last.items() if k.startswith("x")])
        w = last["weight"]
        radii = np.linalg.norm(pts - (w[:, None] * pts).sum(axis=0) / w.sum(), axis=1)
        cv = float(radii.std() / radii.mean())
        f.at_most(cv, 2e-2, "collapse final radial CV")
        f.at_most(
            abs(cv - series[-1]["radial_cv"]) / cv, 1e-6, "collapse reported radial CV vs CSV"
        )
        f.require(
            checks.affine_dimension(pts) == 3, "collapse final snapshot is not 3-dimensional"
        )

    plot_path = plot_out.strip().splitlines()[-1]
    cols = np.loadtxt(plot_path, ndmin=2)
    f.require(cols.shape == (len(records), 3), f"plot shape {cols.shape}")
    if cols.shape == (len(records), 3):
        want = np.array([[r["t"], r["vol"], r["st_integral_alpha"]["4.0"]] for r in records])
        f.require(np.array_equal(cols, want), "plot columns differ from the trace")
    shutil.rmtree(run_dir, ignore_errors=True)
    return rnd


# The grid runs in six chunks, before each of the five commands and at the
# end, so that its per-point times sample the whole round rather than a few
# short stretches of machine speed.  Every tenth point integrates with a
# 2048-node rule instead of the default 64, which takes about twice as
# long: those points make the slowest tenth of the samples, so the tail
# mean measures a quadrature cost rather than which points the host
# happened to slow down.
SOBOLEV_POINTS = 4800
SOBOLEV_CHUNKS = 6
SOBOLEV_ORDER = 64
SOBOLEV_HEAVY_ORDER = 2048


def check_battery(ctx: Context, probe: bool = False) -> Round:
    """Both check suites, analytic runs, the oracle and a zonal Sobolev grid."""
    rnd = Round()
    f = ctx.faults
    start = time.perf_counter()
    work = _fresh_dir(os.path.join(ctx.out_dir, "battery"))
    rng = ctx.rng
    # n = 2 only: for n = 3 the hmax_lower_bound monitor compares max|H|^2
    # with a bound that scales like max|H|^n and calls small round spheres
    # violated, so the verdict would depend on the seeded radius.
    n_sph = 2
    r0 = float(rng.uniform(0.8, 1.2))
    sphere_cfg = {
        "scene": {"kind": "analytic_sphere", "n": n_sph, "r0": r0},
        "scheme": {"cfl": 0.05},
        "stop": {"t_end": 0.8 * r0 * r0 / (2 * n_sph)},
    }
    a0, b0 = (float(x) for x in rng.uniform(0.8, 1.2, 2))
    product_cfg = {
        "scene": {"kind": "analytic_sphere_product", "p": 2, "q": 1, "a0": a0, "b0": b0},
        "scheme": {"cfl": 0.05},
        "stop": {"t_end": 0.8 * min(a0 * a0 / 4, b0 * b0 / 2)},
    }
    paths = {}
    for name, cfg in (("sphere", sphere_cfg), ("product", product_cfg)):
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh)
    r_oracle = float(rng.uniform(0.8, 1.2))
    t_oracle = float(rng.uniform(0.0, 0.9)) * r_oracle ** 2 / 6.0
    grid = _sobolev_grid(rng)
    size = SOBOLEV_POINTS // SOBOLEV_CHUNKS
    chunks = [grid[i : i + size] for i in range(0, SOBOLEV_POINTS, size)]
    rnd.setup_s = time.perf_counter() - start

    _sobolev_chunk(ctx, rnd, chunks.pop())
    code, out = cli(ctx, rnd, "check", "--suite", "identities")
    if code in OK_EXIT_CODES:
        f.require(code == 0, f"identities suite exit code {code}")
        reports = _last_json(f, out, "identities suite")
        if reports is not None:
            f.at_most(checks.identity_worst(reports), 1e-12, "identity residual")

    _sobolev_chunk(ctx, rnd, chunks.pop())
    code, out = cli(ctx, rnd, "check", "--suite", "inequalities", "--full")
    if code in OK_EXIT_CODES:
        f.require(code == 0, f"inequalities suite exit code {code}")
        reports = _last_json(f, out, "inequalities suite")
        chen = _report_values(f, reports, "sphere:chen_total_mean_curvature")
        if chen is not None:
            rnd.oracle_err = abs(chen["integral"] - 16 * math.pi) / (16 * math.pi)
            f.at_most(rnd.oracle_err, 2e-2, "sphere Chen integral vs 16*pi")
        for scene, extent in (("sphere", 2.0), ("clifford_torus", 2.0 * math.sqrt(2.0))):
            ratio = _report_values(f, reports, f"{scene}:topping_ratio")
            if ratio is not None:
                f.at_least(
                    ratio["diameter"], extent - 1e-12,
                    f"{scene} graph diameter vs largest vertex distance",
                )

    for name, cfg in (("sphere", sphere_cfg), ("product", product_cfg)):
        _sobolev_chunk(ctx, rnd, chunks.pop())
        out_dir = os.path.join(work, f"run_{name}")
        code, _ = cli(ctx, rnd, "run", "--config", paths[name], "--out", out_dir)
        if code not in OK_EXIT_CODES:
            continue
        with open(os.path.join(out_dir, "trace.ndjson")) as fh:
            records, faults = checks.parse_ndjson(fh.read())
        for fault in faults + checks.trace_order_faults(records):
            f.require(False, f"{name}: {fault}")
        s = cfg["scene"]
        if name == "sphere":
            f.require(code == 0, f"analytic sphere run exit code {code}")
            gap = checks.analytic_sphere_gap(records, s["n"], s["r0"])
        else:
            # On S^2(a) x S^1(b), |A|^2/|H|^2 = (2/a^2 + 1/b^2)/(4/a^2 + 1/b^2)
            # exceeds 1/2, so both pinching conditions (a = 1/(n-1) = 1/2 and
            # c(3) = 4/9) fail for every a, b, and every other monitor holds.
            with open(os.path.join(out_dir, "monitors.json")) as fh:
                verdicts = {r["name"]: r["verdict"] for r in json.load(fh)}
            violated = sorted(k for k, v in verdicts.items() if v == "violated")
            f.require(code == 2, f"analytic product run exit code {code}")
            f.require(
                violated == ["pinching_andrews_baker", "pinching_linear"],
                f"analytic product verdicts {verdicts}",
            )
            gap = checks.analytic_product_gap(records, 2, 1, s["a0"], s["b0"])
        f.at_most(gap, 1e-12, f"analytic {name} records vs closed form")

    _sobolev_chunk(ctx, rnd, chunks.pop())
    scene = json.dumps({"kind": "analytic_sphere", "n": 3, "r0": r_oracle})
    code, out = cli(ctx, rnd, "oracle", "--scene", scene, "--t", repr(t_oracle))
    record = _last_json(f, out, "oracle") if code in OK_EXIT_CODES else None
    if record is not None:
        gap = checks.oracle_sphere_gap(record, 3, r_oracle, t_oracle)
        f.at_most(gap, 1e-12, "oracle record vs closed form")

    _sobolev_chunk(ctx, rnd, chunks.pop())
    rnd.run_s = time.perf_counter() - start - rnd.setup_s
    shutil.rmtree(work, ignore_errors=True)
    return rnd


def _last_json(f: checks.Faults, out: str, what: str):
    """The JSON value on the last line of a command's output, or None and a fault."""
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        f.require(False, f"{what}: last output line is not JSON")
        return None


def _report_values(f: checks.Faults, reports, name: str) -> dict | None:
    """The values of the suite report ``name``, or None and a fault."""
    report = checks.find_report(reports or [], name)
    f.require(report is not None, f"suite report {name} missing")
    return report["values"] if report is not None else None


def _sobolev_chunk(ctx: Context, rnd: Round, points) -> None:
    for point in points:
        rnd.attempted += 1
        t0 = time.perf_counter()
        try:
            faults = _sobolev_point(*point)
        except Exception:
            _report_failure("sobolev_check_zonal")
            rnd.failed += 1
            continue
        rnd.samples_ms.append(1e3 * (time.perf_counter() - t0))
        for fault in faults:
            ctx.faults.require(False, fault)


def _sobolev_grid(rng: np.random.Generator) -> list[tuple]:
    """Seeded points: dimension, radius, time, nonnegative zonal coefficients, s, order."""
    grid = []
    for i in range(SOBOLEV_POINTS):
        n = 3 + i % 3
        order = SOBOLEV_HEAVY_ORDER if i % 10 == 9 else SOBOLEV_ORDER
        r0 = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(0.0, 0.9)) * r0 * r0 / (2 * n)
        coeffs = rng.uniform(-1.0, 1.0, 5)
        coeffs[0] = 1.0 + np.abs(coeffs[1:]).sum()  # v >= 1 - sum|c_k| + sum|c_k| > 0
        grid.append(
            (n, r0, t, tuple(float(c) for c in coeffs), float(rng.uniform(0.1, 3.0)), order)
        )
    return grid


def _sobolev_point(n, r0, t, coeffs, s, order) -> list[str]:
    """All three checkers on one point; HS and the gradient bound are theorems."""
    scene = mcflow.SphereScene(n=n, r0=r0)
    v = mcflow.ZonalFunction(coeffs)
    v2 = mcflow.ZonalFunction(tuple(2.0 * c for c in coeffs))
    faults = []
    hs = mcflow.sobolev_check_zonal(scene, t, v, "hoffman_spruck", order=order)
    if not hs.holds:
        faults.append(f"Hoffman-Spruck fails at n={n} t={t:.4g}")
    glb = mcflow.sobolev_check_zonal(scene, t, v, "gradient_lower_bound", s=s, order=order)
    if not glb.holds:
        faults.append(f"gradient lower bound fails at n={n} t={t:.4g}")
    cw = mcflow.sobolev_check_zonal(scene, t, v, "curvature_weighted", order=order)
    cw2 = mcflow.sobolev_check_zonal(scene, t, v2, "curvature_weighted", order=order)
    # both sides are 2-homogeneous in v
    for side in ("lhs", "rhs"):
        one, two = getattr(cw, side), getattr(cw2, side)
        if not (one > 0 and abs(two - 4.0 * one) <= 1e-12 * 4.0 * one):
            faults.append(f"curvature-weighted {side} not 2-homogeneous at n={n}")
    return faults


WORKLOADS = {
    "oracle_flow": oracle_flow,
    "collapse_pipeline": collapse_pipeline,
    "check_battery": check_battery,
    "curve_flow": curve_flow,
}
FLOW_WORKLOADS = ("oracle_flow", "curve_flow")
