"""Run orchestration: drive flows, persist artifacts, assemble check suites.

Artifact layout of one run directory::

    MANIFEST.json     status, config and python/numpy/scipy versions
                      (rewritten on completion)
    trace.ndjson      one record per accepted step, line-atomic appends
    snapshots/        CSV snapshots + connectivity sidecars + index.json
    monitors.json     final monitor reports
    summary.json      collapse-time estimate, roundness, spacetime norms
"""

from __future__ import annotations

import json
import os
import platform

import numpy as np
import scipy

from . import analytic, rescale as rsc, scenes
from .config import RunConfig, SceneSpec, _parse_json
from .curvature import codazzi_residual, gauss_residual, tracefree_decompose
from .errors import (
    McflowError,
    NonFiniteValue,
    ParseError,
    UnknownQuantity,
    ValidationError,
)
from .flow import (
    FlowState,
    FlowTrace,
    Snapshot,
    TraceRecord,
    estimator_discrepancy,
    run_until,
)
from .mesh import read_snapshot, write_snapshot
from .monitors import (
    HOLDS,
    INFORMATIONAL,
    VIOLATED,
    MonitorReport,
    blowup_estimate,
    inequality_suite,
    moser_ratio,
    pinching_andrews_baker,
    pinching_linear,
    state_view,
)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


def _json(obj, indent=None) -> str:
    """Standard JSON text of obj, keys sorted; NonFiniteValue for a NaN or inf."""
    try:
        return json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False, default=_jsonable)
    except ValueError as exc:
        raise NonFiniteValue(str(exc)) from None


def _dump(obj, path):
    text = _json(obj, indent=2)  # before the file opens, so a refusal leaves it whole
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value)!r}")


# ---------------------------------------------------------------------------
# the run command

def run(config: RunConfig, out_dir) -> int:
    """Execute one configured flow and write all artifacts; returns exit code."""
    body = config.scene.body  # built when the config loaded; scene errors come first
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    snap_dir = os.path.join(out_dir, "snapshots")
    manifest_path = os.path.join(out_dir, "MANIFEST.json")
    manifest = {
        "status": "running",
        "config": config.to_dict(),
        "artifacts": ["trace.ndjson"],
        "error": None,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    _dump(manifest, manifest_path)

    trace_path = os.path.join(out_dir, "trace.ndjson")
    try:
        # records stream to disk line-by-line so an interrupted run still
        # leaves a valid NDJSON prefix next to the MANIFEST
        with open(trace_path, "w") as fh:

            def emit(rec):
                fh.write(_json(vars(rec)) + "\n")
                fh.flush()

            trace = run_until(
                FlowState(immersion=body),
                config.scheme,
                p_list=config.monitors.p_list,
                alphas=config.monitors.alphas,
                snapshot_every=config.snapshot_every,
                on_record=emit,
            )
        reports, summary = _final_reports(config, trace)
        if trace.snapshots:
            _write_snapshots(trace, snap_dir)
            manifest["artifacts"].append("snapshots")
        _dump([vars(r) for r in reports], os.path.join(out_dir, "monitors.json"))
        _dump(summary, os.path.join(out_dir, "summary.json"))
        manifest["artifacts"].extend(["monitors.json", "summary.json"])
        manifest["status"] = "complete"
        _dump(manifest, manifest_path)
    except McflowError as exc:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        _dump(manifest, manifest_path)
        return EXIT_NUMERICAL
    except KeyboardInterrupt:
        manifest["status"] = "interrupted"
        _dump(manifest, manifest_path)
        raise

    violated = [
        r.name for r in reports if r.verdict == VIOLATED
    ]
    return EXIT_VIOLATION if violated else EXIT_OK


def _write_snapshots(trace: FlowTrace, snap_dir: str) -> None:
    os.makedirs(snap_dir, exist_ok=True)
    index = []
    for snap in trace.snapshots:
        name = f"step_{snap.step:06d}.csv"
        write_snapshot(snap.immersion, os.path.join(snap_dir, name), snap.scalars)
        index.append({"step": snap.step, "t": snap.t, "file": name})
    _dump(index, os.path.join(snap_dir, "index.json"))


def _final_reports(config: RunConfig, trace: FlowTrace):
    reports: list[MonitorReport] = []
    n = trace.intrinsic_dim
    summary: dict = {
        "status": trace.status,
        "stop_reason": trace.stop_reason,
        "t_final": trace.records[-1].t,
        "spacetime_norms": {
            a: value ** (1.0 / a) for a, value in trace.records[-1].st_integral_alpha.items()
        },
    }

    view = trace.final_view
    if view.forms is not None:
        gap = estimator_discrepancy(view.body, view.forms)
        summary["estimator_discrepancy_median"] = gap
        summary["under_resolved"] = gap > 0.10

    reports.append(pinching_linear(view, config.monitors.a, config.monitors.b))
    if n >= 3:
        reports.append(pinching_andrews_baker(view))
    reports.extend(inequality_suite(view))
    try:
        reports.append(moser_ratio(trace))
    except McflowError:
        pass

    blowup = blowup_estimate(trace)
    summary["T_hat"] = blowup["T_hat"]
    summary["T_hat_stabilized"] = blowup["T_hat_stabilized"]

    if trace.snapshots:
        center_info = rsc.estimate_center(trace)
        summary["center"] = center_info["center"].tolist()
        summary["center_drift"] = center_info["drift"]
        summary["center_distance_to_h2_peak"] = center_info["distance_to_h2_peak"]
        last = trace.snapshots[-1]
        if last.t < blowup["T_hat_stabilized"]:
            state = rsc.parabolic_rescale(
                last.immersion, last.t, center_info["center"], blowup["T_hat_stabilized"]
            )
            # the pinch ratio is invariant under the rescaling, and run_until
            # ends every run that takes snapshots with one of its final
            # state, so the last snapshot reuses the final fit
            summary["roundness"] = rsc.roundness_metrics(state.immersion, view.forms)
            summary["subspace"] = rsc.subspace_dimension(state.immersion.vertices)

    summary["verdicts"] = {r.name: r.verdict for r in reports}
    return reports, summary


# ---------------------------------------------------------------------------
# trace directory helpers

def read_trace_records(trace_dir) -> list[TraceRecord]:
    """The records of ``trace.ndjson``; a line that is no record raises ParseError."""
    path = os.path.join(str(trace_dir), "trace.ndjson")
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(TraceRecord.from_json_dict(json.loads(line)))
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                message = f"{path}:{lineno}: not a trace record: {exc}"
                raise ParseError(message, line=lineno) from None
    return records


def _read_json(path: str):
    with open(path) as fh:
        return _parse_json(fh.read(), f"JSON in {path}")


def _lookup(obj, path: str, *keys):
    """``obj[k0][k1]...``; a missing key raises ParseError naming ``path``."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f"{path}: no {'.'.join(keys)} entry")
        obj = obj[key]
    return obj


def load_trace(trace_dir) -> FlowTrace:
    """Records plus snapshots of a finished run directory.

    A MANIFEST or snapshot index that does not parse, lacks a key or holds
    an entry of the wrong shape raises ParseError naming the file.
    """
    trace_dir = str(trace_dir)
    records = read_trace_records(trace_dir)
    manifest_path = os.path.join(trace_dir, "MANIFEST.json")
    manifest = _read_json(manifest_path)
    status = _lookup(manifest, manifest_path, "status")
    snapshots = []
    index_path = os.path.join(trace_dir, "snapshots", "index.json")
    if os.path.exists(index_path):
        index = _read_json(index_path)
        if not isinstance(index, list):
            raise ParseError(f"{index_path}: not a list of snapshots")
        for entry in index:
            fields = [_lookup(entry, index_path, key) for key in ("step", "t", "file")]
            if not all(map(isinstance, fields, (int, (int, float), str))):
                raise ParseError(f"{index_path}: not a snapshot entry: {entry!r}")
            step, t, name = fields
            imm, scalars = read_snapshot(os.path.join(trace_dir, "snapshots", name))
            if snapshots and np.array_equal(imm.elements, snapshots[0].immersion.elements):
                imm = snapshots[0].immersion.with_vertices(imm.vertices)  # share one topology
            snapshots.append(Snapshot(step, t, imm, scalars))
    if snapshots:
        # the sidecars give n, so a mesh_file run never re-reads its source mesh
        n = snapshots[0].immersion.intrinsic_dim
    else:
        scene = _lookup(manifest, manifest_path, "config", "scene")
        n = SceneSpec.from_dict(scene).body.intrinsic_dim
    return FlowTrace(
        records=records,
        snapshots=snapshots,
        final_state=None,
        status=status,
        stop_reason="",
        intrinsic_dim=n,
    )


def rescale_trace(trace_dir, T_hat=None, center=None, out_dir=None) -> dict:
    """Rescale every stored snapshot and emit the roundness time series."""
    trace = load_trace(trace_dir)
    if not trace.snapshots:
        raise ValidationError("trace directory has no snapshots", field="trace")
    if T_hat is None:
        T_hat = blowup_estimate(trace)["T_hat_stabilized"]
    if center is None:
        center = rsc.estimate_center(trace)["center"]
    center = np.asarray(center, dtype=float)
    dim = trace.snapshots[0].immersion.ambient_dim
    if center.shape != (dim,) or not np.isfinite(center).all():
        raise ValidationError(f"center must be {dim} finite coordinates", field="center")
    if not np.isfinite(T_hat):
        raise ValidationError(f"T_hat must be finite, not {T_hat}", field="T_hat")
    out_dir = os.path.join(str(trace_dir), "rescaled") if out_dir is None else str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    series = []
    for snap in trace.snapshots:
        if snap.t >= T_hat:
            continue
        state = rsc.parabolic_rescale(snap.immersion, snap.t, center, T_hat)
        view = state_view(state.immersion)
        metrics = rsc.roundness_metrics(state.immersion, view.forms)
        name = f"rescaled_{snap.step:06d}.csv"
        write_snapshot(state.immersion, os.path.join(out_dir, name), view.scalars())
        series.append(
            {"step": snap.step, "t": snap.t, "lambda": state.lam, "file": name, **metrics}
        )
    result = {"T_hat": float(T_hat), "center": center.tolist(), "series": series}
    _dump(result, os.path.join(out_dir, "roundness.json"))
    return result


def emit_plotdata(trace_dir, quantities, out_dir=None) -> str:
    """Whitespace-separated columns of trace quantities (``TraceRecord.columns``)."""
    if not quantities:
        raise ValidationError("empty quantity list", field="vars")
    records = read_trace_records(trace_dir)
    if not records:
        raise ValidationError("trace has no records", field="trace")
    table = [rec.columns() for rec in records]
    for name in quantities:
        if any(name not in cols for cols in table):
            have = ", ".join(table[0])
            raise UnknownQuantity(f"unknown quantity {name!r}; the trace has {have}", field="vars")
    out_dir = os.path.join(str(trace_dir), "plots") if out_dir is None else str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "_".join(quantities) + ".dat")
    with open(path, "w") as fh:
        for cols in table:
            fh.write(" ".join(repr(float(cols[q])) for q in quantities) + "\n")
    return path


# ---------------------------------------------------------------------------
# check suites

def _identity_reports(name: str, body) -> list[MonitorReport]:
    """Tracefree-trace and norm-decomposition identities (hard 1e-12 checks),
    plus informational structural residuals."""
    reports = []
    view = state_view(body)
    n, digest, forms = view.n, view.digest, view.forms
    if forms is None:
        # the exact scene as one homogeneous point of the same field layout
        h = body.form_components(0.0)[None]
        forms = tracefree_decompose(h)
        gauss = 0.0
    else:
        gauss = float(np.abs(gauss_residual(body, forms)).mean())
    codazzi = float(codazzi_residual(view.derivatives).mean())
    trace_comp = np.einsum("vkaa->vk", forms.aring)
    scale = np.maximum(np.sqrt(forms.a2)[:, None], 1e-300)
    trace_rel = float(np.abs(trace_comp / scale).max())
    decomp_rel = float(
        (np.abs(forms.a2 - forms.aring2 - forms.h2 / n) / np.maximum(forms.a2, 1e-300)).max()
    )

    reports.append(
        MonitorReport(
            name=f"{name}:tracefree_trace",
            digest=digest,
            values={"max_rel": trace_rel, "tol": 1e-12},
            verdict=HOLDS if trace_rel <= 1e-12 else VIOLATED,
            anchor="trace(Aring^alpha) = 0",
        )
    )
    reports.append(
        MonitorReport(
            name=f"{name}:norm_decomposition",
            digest=digest,
            values={"max_rel": decomp_rel, "tol": 1e-12},
            verdict=HOLDS if decomp_rel <= 1e-12 else VIOLATED,
            anchor="|A|^2 = |Aring|^2 + |H|^2/n",
        )
    )
    reports.append(
        MonitorReport(
            name=f"{name}:structural_residuals",
            digest=digest,
            values={"gauss_mean_abs": gauss, "codazzi_mean": codazzi},
            verdict=INFORMATIONAL,
            anchor="intrinsic curvature vs form product; derivative symmetry",
        )
    )
    return reports


def default_battery(fast: bool = True) -> list[tuple[str, object]]:
    """Battery scenes: mesh sphere, ellipsoid, Clifford torus, analytic product."""
    subdiv = 3 if fast else 4
    resolution = 32 if fast else 64
    return [
        ("sphere", scenes.icosphere(subdiv=subdiv, r0=1.0)),
        ("ellipsoid", scenes.ellipsoid([1.2, 1.0, 0.9], subdiv=subdiv)),
        ("clifford_torus", scenes.clifford_torus(1.0, 1.0, resolution=resolution)),
        ("s2xs1", analytic.SphereProductScene(p=2, q=1)),
    ]


def check_suite(suite: str, scene: SceneSpec | None = None, fast: bool = True):
    """Run the identities or inequalities suite; returns (reports, exit_code)."""
    if scene is not None:
        battery = [(scene.kind, scene.body)]
    else:
        battery = default_battery(fast=fast)

    reports: list[MonitorReport] = []
    for name, item in battery:
        if suite == "identities":
            reports.extend(_identity_reports(name, item))
        elif suite == "inequalities":
            view = state_view(item)
            suite_reports = inequality_suite(view)
            for rep in suite_reports:
                rep.name = f"{name}:{rep.name}"
            reports.extend(suite_reports)
            if view.n >= 3:
                rep = pinching_andrews_baker(view)
                rep.name = f"{name}:{rep.name}"
                rep.verdict = INFORMATIONAL  # battery includes non-pinched scenes
                reports.extend([rep])
        else:
            raise ValidationError(f"unknown suite {suite!r}", field="suite")
    code = EXIT_VIOLATION if any(r.verdict == VIOLATED for r in reports) else EXIT_OK
    return reports, code


def oracle_record(scene: SceneSpec, t: float) -> dict:
    """Closed-form state of an analytic scene as a JSON-ready record."""
    if not scene.is_analytic:
        raise ValidationError("oracle requires an analytic scene", field="scene")
    return scene.body.oracle_record(t)
