import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflow import cli, config as config_mod, curvature, flow, runner
from mcflow.analytic import SphereScene, unit_sphere_area
from mcflow.config import config_from_dict, load_config, parse_scene
from mcflow.errors import (
    McflowError,
    NonFiniteValue,
    ParseError,
    UnknownQuantity,
    ValidationError,
)
from mcflow.flow import FlowTrace
from mcflow.mesh import DiscreteImmersion, write_snapshot
from mcflow.monitors import VIOLATED
from mcflow.scenes import icosphere


def test_import_leaves_feature_subpackages_unloaded():
    # scipy subpackages load on first use; so does concurrent.futures (which
    # loads logging), with the fit threads
    deferred = (
        "concurrent.futures",
        "scipy.sparse",
        "scipy.special",
        "scipy.integrate",
        "scipy.interpolate",
        "scipy.optimize",
        "scipy.linalg",
        "scipy.sparse.linalg",
        "scipy.sparse.csgraph",
    )
    probe = (
        "import sys; import mcflow, mcflow.cli; "
        f"print(','.join(m for m in {deferred!r} if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == ""


def _tetrahedron_run(tmp_path, out):
    """Exit code of a run on a tetrahedron: every stencil holds 4 points, too
    few for the 6 coefficients of the jet fit, so the first fit fails."""
    verts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    snap = tmp_path / "tetra.csv"
    write_snapshot(DiscreteImmersion(verts, faces, 2), snap)
    raw = {"scene": {"kind": "mesh_file", "path": str(snap)}, "stop": {"step_cap": 3}}
    return runner.run(config_from_dict(raw), out)


def minimal_config(**overrides):
    raw = {
        "scene": {"kind": "icosphere", "r0": 1.0, "subdiv": 2},
        "stop": {"maxA2": 30.0},
    }
    raw.update(overrides)
    return raw


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config()))
        cfg = load_config(path)
        assert cfg.scheme.scheme == "semi_implicit"
        assert cfg.monitors.alphas == (4.0,)  # n + 2 for surfaces
        assert cfg.monitors.p_list == (2.0,)
        assert cfg.scheme.stop.max_a2 == 30.0

    def test_alpha_below_threshold_rejected(self):
        raw = minimal_config(monitors={"alpha": [3.0]})
        with pytest.raises(ValidationError) as err:
            config_from_dict(raw)
        assert "alpha" in str(err.value)

    def test_bad_torus_radius(self):
        raw = {"scene": {"kind": "clifford_torus", "a0": -1.0}, "stop": {"step_cap": 1}}
        with pytest.raises(ValidationError):
            config_from_dict(raw)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict(minimal_config(extra_knob=1))
        with pytest.raises(ValidationError):
            config_from_dict(
                {"scene": {"kind": "icosphere", "radius": 1.0}, "stop": {"step_cap": 1}}
            )

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scene": {"kind": "icosphere",\n  broken\n}}')
        with pytest.raises(ParseError) as err:
            load_config(path)
        assert err.value.line == 2

    def test_roundtrip(self):
        cfg = config_from_dict(minimal_config(seed=7, snapshot_every=3))
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize(
        "scene,collapse",
        [
            ({"kind": "analytic_sphere", "n": 2}, 0.25),
            ({"kind": "analytic_sphere", "n": 3, "r0": 0.5}, 0.25 / 6),
            ({"kind": "analytic_sphere_product", "p": 2, "q": 1}, 0.25),
        ],
    )
    def test_exact_scene_t_end_at_or_past_collapse_rejected(self, scene, collapse):
        for t_end in (collapse, 2 * collapse):
            with pytest.raises(ValidationError) as err:
                config_from_dict({"scene": scene, "stop": {"t_end": t_end}})
            assert err.value.field == "stop.t_end"
        config_from_dict({"scene": scene, "stop": {"t_end": 0.99 * collapse}})

    def test_perturbation_amplitude_cap(self):
        raw = minimal_config()
        raw["scene"]["perturbation"] = {"modes": [[2, 0, 0.4]]}
        with pytest.raises(ValidationError):
            config_from_dict(raw)


GON = {"kind": "polygon_circle", "segments": 16}
SPHERE = {"kind": "icosphere", "subdiv": 1}


def _small_run(scene=GON, **blocks):
    raw = {"scene": scene, "stop": {"step_cap": 2}}
    raw.update(blocks)
    return raw


CONFIG_MISTAKES = {
    # values that only a scene constructor checks
    "embed_subspace_shape": _small_run(
        {**SPHERE, "ambient_dim": 5, "embed_subspace": np.eye(3).tolist()}
    ),
    "surface_in_the_plane": _small_run({**SPHERE, "ambient_dim": 2}),
    "center_length": _small_run({**SPHERE, "center": [0.0, 0.0]}),
    "two_segments": _small_run({**GON, "segments": 2}),
    "torus_resolution": _small_run({"kind": "clifford_torus", "resolution": 2}),
    "sphere_n_zero": _small_run({"kind": "analytic_sphere", "n": 0}),
    "nan_semi_axis": _small_run({"kind": "ellipsoid", "semi_axes": [1.0, math.nan, 1.0]}),
    "nan_amplitude": _small_run({**SPHERE, "perturbation": {"modes": [[2, 0, math.nan]]}}),
    # values that are not numbers, are NaN or are out of range
    "cfl_string": _small_run(scheme={"cfl": "x"}),
    "t_end_string": _small_run(stop={"t_end": "x"}),
    "alpha_string": _small_run(monitors={"alpha": "x"}),
    "p_below_one": _small_run(monitors={"p": [0.5]}),
    "scheme_ring_unknown": _small_run(scheme={"ring": 2}),
    "scheme_list": _small_run(scheme={"scheme": []}),
    "scheme_number": _small_run(scheme={"scheme": 3}),
    "mode_of_two_numbers": _small_run({**GON, "perturbation": {"modes": [[2, 0]]}}),
    "scene_string": _small_run("abc"),
    "t_end_nan": _small_run(stop={"t_end": math.nan}),
    "step_cap_nan": _small_run(stop={"step_cap": math.nan}),
    "subdiv_negative": _small_run({**SPHERE, "subdiv": -1}),
    # non-finite values (json.dumps writes inf as Infinity, which json reads back)
    "r0_infinite": _small_run({**SPHERE, "r0": math.inf}),
    "cfl_infinite": _small_run(scheme={"cfl": math.inf}),
    "max_a2_infinite": _small_run(stop={"maxA2": math.inf}),
    "semi_axis_infinite": _small_run({"kind": "ellipsoid", "semi_axes": [1.0, math.inf, 1.0]}),
    # modes the mesh cannot sample, or that are no harmonic (degree 1e9 ran
    # for minutes; the others added a zero or a non-periodic perturbation)
    "mode_degree_1e9": _small_run({**SPHERE, "perturbation": {"modes": [[1e9, 0, 0.05]]}}),
    "mode_order_above_degree": _small_run({**SPHERE, "perturbation": {"modes": [[2, 5, 0.05]]}}),
    "mode_negative_degree": _small_run({**SPHERE, "perturbation": {"modes": [[-2, 0, 0.05]]}}),
    "mode_fractional_degree": _small_run({**SPHERE, "perturbation": {"modes": [[2.5, 0, 0.05]]}}),
    "curve_mode_fractional": _small_run({**GON, "perturbation": {"modes": [[2.5, 0, 0.05]]}}),
    "curve_mode_above_sampling": _small_run({**GON, "perturbation": {"modes": [[8, 0, 0.05]]}}),
    # sizes above scenes.MAX_VERTICES, or too many coordinates
    "segments_2_62": _small_run({**GON, "segments": 2**62}),
    "subdiv_2_62": _small_run({**SPHERE, "subdiv": 2**62}),
    "torus_resolution_2_31": _small_run({"kind": "clifford_torus", "resolution": 2**31}),
    "torus_extra_codim_2_62": _small_run(
        {"kind": "clifford_torus", "resolution": 8, "extra_codim": 2**62}
    ),
    "ambient_dim_2_62": _small_run({**SPHERE, "ambient_dim": 2**62}),
}


@pytest.mark.parametrize("raw", CONFIG_MISTAKES.values(), ids=CONFIG_MISTAKES.keys())
def test_config_mistake_exits_4_before_the_run_directory(tmp_path, capsys, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 4
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


#: JSON values for the fuzz: small sizes, sentinels (1e999 is inf, as json
#: reads it), booleans, strings, null and nested lists of them
_FUZZ_VALUES = st.recursive(
    st.one_of(
        st.integers(0, 4),
        st.sampled_from([-1, 0, 2**62, 10**400, math.nan, math.inf, -math.inf, 1e999, 0.5]),
        st.booleans(),
        st.text(max_size=3),
        st.none(),
    ),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=10,
)
_FUZZ_SCENES = sorted(kind for kind in config_mod._SCENES if kind != "mesh_file")


@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_fuzzed_config_builds_or_raises_a_package_error(data):
    # a package error exits 4 or 3; any other exception is a traceback
    kind = data.draw(st.sampled_from(_FUZZ_SCENES))
    keys = sorted(config_mod._SCENES[kind][1])
    scene = data.draw(st.dictionaries(st.sampled_from(keys), _FUZZ_VALUES, max_size=4))
    if "perturbation" in scene and data.draw(st.booleans()):
        scene["perturbation"] = {"modes": scene["perturbation"]}
    scheme_keys = ["scheme", "cfl", "dt_max", "redistribute_every"]
    scheme = data.draw(st.dictionaries(st.sampled_from(scheme_keys), _FUZZ_VALUES, max_size=2))
    run = data.draw(
        st.dictionaries(st.sampled_from(["snapshot_every", "seed"]), _FUZZ_VALUES, max_size=2)
    )
    raw = {"scene": {"kind": kind, **scene}, "scheme": scheme, "stop": {"step_cap": 1}, **run}
    try:
        config_from_dict(raw)
    except McflowError:
        pass


def _replace_line(k, edit):
    """An edit of a file's lines that replaces line ``k`` by ``edit(line)``."""
    return lambda lines: lines[:k] + [edit(lines[k])] + lines[k + 1 :]


MALFORMED_MESH_FILES = {
    # (edit of the CSV lines, edit of the sidecar lines, where the error points)
    "row_cut_short": (_replace_line(3, lambda row: row.rsplit(",", 1)[0]), None, "mesh.csv:4"),
    "non_numeric_cell": (
        _replace_line(3, lambda row: "abc" + row[row.index(",") :]), None, "mesh.csv:4"
    ),
    "header_only": (lambda lines: lines[:1], None, "mesh.csv"),
    "fractional_index": (
        None, _replace_line(2, lambda row: "2.5 " + row.split(" ", 1)[1]), "mesh.elements.txt:3"
    ),
    "two_indices_in_a_triangle": (
        None, _replace_line(2, lambda row: row.rsplit(" ", 1)[0]), "mesh.elements.txt:3"
    ),
}


@pytest.mark.parametrize(
    "edit_csv,edit_sidecar,where", MALFORMED_MESH_FILES.values(), ids=MALFORMED_MESH_FILES.keys()
)
def test_malformed_mesh_file_exits_4_before_the_run_directory(
    tmp_path, capsys, edit_csv, edit_sidecar, where
):
    mesh = tmp_path / "mesh.csv"
    write_snapshot(icosphere(subdiv=1), mesh)
    for path, edit in ((mesh, edit_csv), (tmp_path / "mesh.elements.txt", edit_sidecar)):
        if edit is not None:
            path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_small_run({"kind": "mesh_file", "path": str(mesh)})))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{tmp_path / where}" in err
    assert "Traceback" not in err
    assert not out.exists()


#: bytes that no number, separator or line break of a snapshot or sidecar holds,
#: so that each one written into the data rows breaks the file
_DAMAGE_BYTES = st.sampled_from([b"x", b";", b"?", b"\x00", b"\xff"])


@st.composite
def _damage(draw, text, keep):
    """One edit of a file's bytes ``text``, whose first ``keep`` lines are
    edited only whole: a line deleted, duplicated or cut before its last
    separator, or a byte of the rest replaced or a byte inserted there."""
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(["delete", "duplicate", "cut", "replace", "insert"]))
    if kind in ("delete", "duplicate", "cut"):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k].rstrip(b"\n")
        edit = {
            "delete": [],
            "duplicate": [lines[k], lines[k]],
            "cut": [line[: max(line.rfind(b","), line.rfind(b" "))] + b"\n"],
        }[kind]
        return b"".join(lines[:k] + edit + lines[k + 1 :])
    start = len(b"".join(lines[:keep]))
    pos = draw(st.integers(start, len(text) - (kind == "replace")))
    return text[:pos] + draw(_DAMAGE_BYTES) + text[pos + (kind == "replace") :]


@settings(max_examples=50, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_fuzzed_mesh_file_exits_3_or_4(data, tmp_path_factory):
    # one edit to the snapshot, the sidecar or both; a traceback fails the test
    tmp = tmp_path_factory.mktemp("damaged")
    mesh, sidecar = tmp / "mesh.csv", tmp / "mesh.elements.txt"
    write_snapshot(icosphere(subdiv=1), mesh)
    which = data.draw(st.sampled_from([(mesh,), (sidecar,), (mesh, sidecar)]))
    for path in which:
        path.write_bytes(data.draw(_damage(path.read_bytes(), 1 if path == mesh else 0)))
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(_small_run({"kind": "mesh_file", "path": str(mesh)})))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp / "out")])
    assert code in (3, 4)
    assert err.getvalue().startswith(("config error", "numerical failure"))


class TestBuildOnce:
    def test_mesh_file_source_is_parsed_once(self, tmp_path, monkeypatch):
        write_snapshot(icosphere(subdiv=2), tmp_path / "mesh.csv")
        real_read = config_mod.read_snapshot
        reads = []

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(config_mod, "read_snapshot", counting_read)
        scene = {"kind": "mesh_file", "path": str(tmp_path / "mesh.csv")}
        cfg = config_from_dict({"scene": scene, "stop": {"step_cap": 2}})
        assert runner.run(cfg, tmp_path / "out") == 0
        assert len(reads) == 1

    def test_exact_scene_is_built_once(self, tmp_path, monkeypatch):
        real_post_init = SphereScene.__post_init__
        builds = []

        def counting_post_init(self):
            builds.append(self.n)
            real_post_init(self)

        monkeypatch.setattr(SphereScene, "__post_init__", counting_post_init)
        scene = {"kind": "analytic_sphere", "n": 2}
        cfg = config_from_dict({"scene": scene, "stop": {"t_end": 0.1}})
        assert runner.run(cfg, tmp_path / "out") == 0
        assert builds == [2]

    def test_run_fits_once_per_record(self, tmp_path, monkeypatch):
        real_build = curvature.build_frames
        fits = []

        def counting_build(*args, **kwargs):
            fits.append(args[0].num_vertices)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(curvature, "build_frames", counting_build)
        steps = 3
        # no snapshots, so no rescaled final snapshot to fit for its roundness
        cfg = config_from_dict(minimal_config(stop={"step_cap": steps}, snapshot_every=0))
        assert runner.run(cfg, tmp_path / "out") == 0
        # one fit per trace record; the final reports reuse the last one
        assert len(fits) == steps + 1

    def test_run_with_snapshots_fits_once_per_record(self, tmp_path, monkeypatch):
        real_build = curvature.build_frames
        fits = []

        def counting_build(*args, **kwargs):
            fits.append(args[0].num_vertices)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(curvature, "build_frames", counting_build)
        steps = 3
        cfg = config_from_dict(minimal_config(stop={"step_cap": steps}, snapshot_every=1))
        assert runner.run(cfg, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        # the rescaled final snapshot takes its roundness from the final fit
        assert summary["roundness"]["pinch_ratio"] >= 0.0
        assert len(fits) == steps + 1

    @pytest.mark.parametrize("snapshot_every", [0, 1])
    @pytest.mark.parametrize("monitors", [{}, {"p": [1, 2, 4], "alpha": [4, 5]}])
    def test_run_assembles_once_per_state(
        self, tmp_path, snapshot_every, monitors, stiffness_assemblies
    ):
        steps = 3
        cfg = config_from_dict(
            minimal_config(
                stop={"step_cap": steps}, snapshot_every=snapshot_every, monitors=monitors
            )
        )
        assert runner.run(cfg, tmp_path / "out") == 0
        # one per step, then the final estimator discrepancy
        assert stiffness_assemblies == [162] * (steps + 1)


class TestRun:
    def test_mesh_run_artifacts(self, tmp_path):
        cfg = config_from_dict(minimal_config(snapshot_every=5))
        out = tmp_path / "run1"
        code = runner.run(cfg, out)
        assert code == 0
        assert (out / "trace.ndjson").exists()
        assert (out / "monitors.json").exists()
        assert (out / "summary.json").exists()
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "complete"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "max_a2"
        # icosphere r0=1: T = 1/4
        assert abs(summary["T_hat_stabilized"] - 0.25) < 0.02
        index = json.loads((out / "snapshots" / "index.json").read_text())
        assert index[0]["step"] == 0
        assert (out / "snapshots" / index[-1]["file"]).exists()

    def test_analytic_run_machine_precision(self, tmp_path):
        raw = {
            "scene": {"kind": "analytic_sphere", "n": 2, "r0": 1.0},
            "stop": {"t_end": 0.2},
            "scheme": {"cfl": 0.05},
        }
        out = tmp_path / "run2"
        code = runner.run(config_from_dict(raw), out)
        assert code == 0
        records = runner.read_trace_records(out)
        scene = SphereScene(n=2, r0=1.0)
        for rec in records:
            st = scene.state(rec.t)
            assert rec.vol == pytest.approx(st.vol, rel=1e-13)
            assert rec.h2_max == pytest.approx(st.h2, rel=1e-13)
            assert rec.st_integral_alpha[4.0] == pytest.approx(
                (scene.spacetime_integral(4.0, rec.t) ** (1.0 / 4.0)) ** 4
                if rec.t > 0
                else 0.0,
                rel=1e-12,
                abs=1e-300,
            )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["T_hat"] == pytest.approx(0.25, rel=1e-12)
        assert summary["verdicts"]["pinching_linear"] == "holds"

    def test_analytic_product_run(self, tmp_path):
        raw = {
            "scene": {"kind": "analytic_sphere_product", "p": 2, "q": 2},
            "stop": {"step_cap": 40},
        }
        code = runner.run(config_from_dict(raw), tmp_path / "run3")
        # S^2 x S^2 violates the linear pinching with the default a = 1/(n-1)
        assert code == 2
        reports = json.loads((tmp_path / "run3" / "monitors.json").read_text())
        verdicts = {r["name"]: r["verdict"] for r in reports}
        assert verdicts["pinching_linear"] == VIOLATED

    def test_load_trace_reads_manifest_status(self, tmp_path):
        raw = {"scene": {"kind": "analytic_sphere", "n": 2}, "stop": {"step_cap": 5}}
        out = tmp_path / "run4"
        assert runner.run(config_from_dict(raw), out) == 0
        trace = runner.load_trace(out)
        assert isinstance(trace, FlowTrace)
        assert trace.status == "complete"
        assert trace.final_state is None
        assert len(trace.records) == 6 and trace.snapshots == []
        assert trace.records == runner.read_trace_records(out)

    def test_manifest_records_versions(self, tmp_path):
        raw = {"scene": {"kind": "analytic_sphere", "n": 2}, "stop": {"step_cap": 2}}
        out = tmp_path / "run5"
        assert runner.run(config_from_dict(raw), out) == 0
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }

    def test_numerical_failure_exit_code(self, tmp_path):
        out = tmp_path / "run4"
        assert _tetrahedron_run(tmp_path, out) == 3
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "failed"
        assert "FitUnderdetermined" in manifest["error"]

    @pytest.mark.parametrize(
        "scene, monitors",
        [
            ({"kind": "analytic_sphere", "n": 300}, {}),
            ({"kind": "analytic_sphere"}, {"alpha": [2000.0]}),
        ],
        ids=["sphere_n300", "alpha_2000"],
    )
    def test_exact_integral_out_of_float_range_fails_the_run(self, tmp_path, scene, monitors):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"scene": scene, "stop": {"step_cap": 2}, "monitors": monitors})
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("ValidationError: the spacetime integral")

    def test_mesh_integral_out_of_float_range_fails_the_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_run(SPHERE, monitors={"alpha": [2000.0]})))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning among them
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("ValidationError: the spacetime integral")
        for line in (out / "trace.ndjson").read_text().splitlines():
            json.loads(line, parse_constant=pytest.fail)  # no NaN or Infinity

    def test_norm_of_a_high_power_stays_in_the_float_range(self, tmp_path):
        scene = {"kind": "ellipsoid", "semi_axes": [0.3, 0.1, 0.1], "subdiv": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_run(scene, monitors={"p": [2000.0]})))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning among them
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "trace.ndjson").read_text().splitlines()
        norms = [json.loads(line)["aring_p_norms"]["2000.0"] for line in lines]
        assert len(norms) == 3 and all(9.0 < value < 10.0 for value in norms)  # ~ max|Aring|

    def test_exact_sphere_past_dimension_144_completes(self, tmp_path):
        # n^n is too large for a float from n = 144 on; n^n omega_n is not
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_run({"kind": "analytic_sphere", "n": 150})))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads((out / "MANIFEST.json").read_text())["status"] == "complete"
        reports = {r["name"]: r for r in json.loads((out / "monitors.json").read_text())}
        assert reports["chen_total_mean_curvature"]["verdict"] == "holds"

    def test_exact_sphere_t_end_out_of_float_range_exits_4(self, tmp_path):
        # t_end is before the collapse time 0.0033333, but r^150 there underflows
        raw = {"scene": {"kind": "analytic_sphere", "n": 150}, "stop": {"t_end": 0.003333}}
        with pytest.raises(ValidationError) as err:
            config_from_dict(raw)
        assert err.value.field == "stop.t_end"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 4
        assert not (out / "trace.ndjson").exists()

    def test_exact_record_out_of_float_range_fails_the_run(self, tmp_path):
        raw = {"scene": {"kind": "analytic_sphere", "n": 150}, "stop": {"maxA2": 1e9}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's warnings among them
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("NonFiniteValue: the closed form at t=")
        records = [json.loads(line) for line in (out / "trace.ndjson").read_text().splitlines()]
        assert records and all(rec["vol"] > 0.0 for rec in records)

    def test_non_finite_trace_value_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flow, "power_sum", lambda habs, a, weights: (math.nan, None))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_run(SPHERE)))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 3
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"].startswith("NonFiniteValue")
        (line,) = (out / "trace.ndjson").read_text().splitlines()  # t = 0: integral 0
        assert json.loads(line)["st_integral_alpha"] == {"4.0": 0.0}

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_dump_refuses_a_non_finite_number_and_keeps_the_file(self, tmp_path, value):
        path = tmp_path / "summary.json"
        runner._dump({"x": 1.0}, path)
        before = path.read_text()
        with pytest.raises(NonFiniteValue):
            runner._dump({"x": np.array([1.0, value])}, path)
        assert path.read_text() == before

    def test_exact_scene_of_huge_codimension_runs_in_bounded_memory(self, tmp_path):
        # the run allocates per active normal, not per codimension; the address
        # space cap makes a (d, n, n) allocation fail at once instead of paging
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"scene": {"kind": "analytic_sphere", "d": 10**9}, "stop": {"step_cap": 2}}
            )
        )
        out = tmp_path / "out"
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
            "OPENBLAS_NUM_THREADS": "1",  # each BLAS thread's stack counts against the cap
        }
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        done = subprocess.run(
            [sys.executable, "-m", "mcflow.cli", *argv],
            env=env,
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads((out / "MANIFEST.json").read_text())["status"] == "complete"

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = config_from_dict(minimal_config(seed=3))
        runner.run(cfg, tmp_path / "a")
        runner.run(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "trace.ndjson").read_bytes() == (
            tmp_path / "b" / "trace.ndjson"
        ).read_bytes()

    def test_interrupted_run_leaves_valid_prefix(self, tmp_path, monkeypatch):
        import mcflow.flow as flow_mod

        real_step = flow_mod.step_semi_implicit
        calls = {"n": 0}

        def exploding_step(state, dt):
            calls["n"] += 1
            if calls["n"] > 4:
                raise KeyboardInterrupt
            return real_step(state, dt)

        monkeypatch.setattr(flow_mod, "step_semi_implicit", exploding_step)
        out = tmp_path / "crash"
        with pytest.raises(KeyboardInterrupt):
            runner.run(config_from_dict(minimal_config()), out)
        # the already-streamed lines parse, and the manifest is readable
        lines = (out / "trace.ndjson").read_text().splitlines()
        assert len(lines) == 5  # initial sample + 4 accepted steps
        for line in lines:
            json.loads(line)
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["status"] == "interrupted"


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace") / "run"
    cfg = config_from_dict(
        {
            "scene": {"kind": "analytic_sphere", "n": 2, "r0": 1.0},
            "stop": {"t_end": 0.2},
            "scheme": {"cfl": 0.05},
        }
    )
    runner.run(cfg, out)
    return out


class TestPlotData:
    def test_columns_match_closed_form(self, trace_dir):
        path = runner.emit_plotdata(trace_dir, ["t", "vol"])
        data = np.loadtxt(path)
        r2 = 1.0 - 4.0 * data[:, 0]
        assert np.allclose(data[:, 1], 4 * math.pi * r2, rtol=1e-12)

    def test_st_integral_monotone(self, trace_dir):
        path = runner.emit_plotdata(trace_dir, ["t", "st_integral_4"])
        data = np.loadtxt(path)
        assert (np.diff(data[:, 1]) >= 0).all()

    def test_empty_list_rejected(self, trace_dir):
        with pytest.raises(ValidationError):
            runner.emit_plotdata(trace_dir, [])

    def test_unknown_quantity(self, trace_dir):
        with pytest.raises(UnknownQuantity):
            runner.emit_plotdata(trace_dir, ["t", "entropy"])

    def test_unknown_quantity_lists_the_columns(self, trace_dir):
        with pytest.raises(ValidationError) as err:
            runner.emit_plotdata(trace_dir, ["t", "st_integral_4.0"])
        assert str(err.value) == (
            "unknown quantity 'st_integral_4.0'; the trace has "
            "t, dt, vol, h2_max, h2_min, a2_max, aring_2, st_integral_4"
        )
        assert not (trace_dir / "plots" / "t_st_integral_4.0.dat").exists()

    def test_every_p_and_alpha_is_a_column(self, tmp_path):
        # 10 and 12 sort before 2 and 4 as strings
        scene = {**SPHERE, "subdiv": 2, "perturbation": {"modes": [[2, 0, 0.1]]}}
        raw = _small_run(scene, monitors={"p": [2, 10], "alpha": [4, 12]})
        assert runner.run(config_from_dict(raw), tmp_path / "run") == 0
        path = runner.emit_plotdata(tmp_path / "run", ["aring_10", "st_integral_12"])
        lines = (tmp_path / "run" / "trace.ndjson").read_text().splitlines()
        want = [
            [rec["aring_p_norms"]["10.0"], rec["st_integral_alpha"]["12.0"]]
            for rec in map(json.loads, lines)
        ]
        assert np.loadtxt(path, ndmin=2).tolist() == want
        assert want[-1][0] > 0 and want[-1][1] > 0


class TestCheckSuite:
    def test_identities_fast_battery(self):
        reports, code = runner.check_suite("identities", fast=True)
        assert code == 0
        names = {r.name for r in reports}
        assert any("tracefree_trace" in n for n in names)
        assert any(n.startswith("s2xs1") for n in names)

    def test_inequalities_single_scene(self):
        scene = parse_scene('{"kind": "icosphere", "subdiv": 3, "r0": 1.0}')
        reports, code = runner.check_suite("inequalities", scene)
        assert code == 0
        by_name = {r.name: r for r in reports}
        chen = by_name["icosphere:chen_total_mean_curvature"]
        assert chen.values["ratio"] == pytest.approx(4.0, rel=5e-2)


@pytest.fixture(scope="module")
def r5_trace_dir(tmp_path_factory):
    """A finished run of a curve in R^5 with snapshots."""
    out = tmp_path_factory.mktemp("r5") / "run"
    cfg = config_from_dict(
        _small_run({**GON, "ambient_dim": 5}, stop={"step_cap": 4}, snapshot_every=2)
    )
    assert runner.run(cfg, out) == 0
    return out


@pytest.mark.parametrize(
    "argv,code",
    [
        (["rescale", "--center", "1,2"], 4),
        (["rescale", "--center", "a,b,c"], 4),
        (["rescale", "--T-hat", "nan"], 4),
        (["rescale", "--T-hat", "inf"], 4),
        (["plot", "--vars", "aring_x"], 4),
        (["plot", "--vars", "st_integral_x"], 4),
    ],
    ids=[
        "center_length",
        "center_letters",
        "t_hat_nan",
        "t_hat_inf",
        "aring_suffix",
        "st_integral_suffix",
    ],
)
def test_bad_rescale_and_plot_arguments_exit_cleanly(r5_trace_dir, capsys, argv, code):
    assert cli.main([argv[0], "--trace", str(r5_trace_dir), *argv[1:]]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error" if code == 4 else "numerical failure")
    assert not (r5_trace_dir / "rescaled").exists()


def test_rescale_of_a_truncated_snapshot_exits_4(r5_trace_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(r5_trace_dir, run)
    snap = sorted((run / "snapshots").glob("*.csv"))[-1]
    snap.write_text(snap.read_text().rstrip().rsplit(",", 1)[0])  # cut inside the last row
    assert cli.main(["rescale", "--trace", str(run)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error") and snap.name in err
    assert "Traceback" not in err
    assert not (run / "rescaled").exists()


@pytest.mark.parametrize(
    "argv", [["plot", "--vars", "t,vol"], ["rescale"]], ids=["plot", "rescale"]
)
@pytest.mark.parametrize(
    "edit", [lambda line: line[: len(line) // 2], lambda line: "[1, 2]\n"], ids=["cut", "list"]
)
def test_malformed_trace_line_exits_4(r5_trace_dir, tmp_path, capsys, argv, edit):
    run = tmp_path / "run"
    shutil.copytree(r5_trace_dir, run)
    trace = run / "trace.ndjson"
    lines = trace.read_text().splitlines(keepends=True)
    trace.write_text("".join(lines[:-1]) + edit(lines[-1]))
    assert cli.main([argv[0], "--trace", str(run), *argv[1:]]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"trace.ndjson:{len(lines)}:" in err
    assert not (run / "plots").exists() and not (run / "rescaled").exists()


def _cut(path, size):
    path.write_bytes(path.read_bytes()[:size])


RUN_DIR_DAMAGE = {
    # (source run, damage, file the message names)
    "manifest_cut": ("r5", lambda run: _cut(run / "MANIFEST.json", 100), "MANIFEST.json"),
    "index_cut": ("r5", lambda run: _cut(run / "snapshots" / "index.json", 50), "index.json"),
    "index_entry_list": (
        "r5",
        lambda run: (run / "snapshots" / "index.json").write_text("[[0, 0.0]]"),
        "index.json",
    ),
    "manifest_without_status": (
        "analytic",
        lambda run: (run / "MANIFEST.json").write_text('{"config": {}}'),
        "MANIFEST.json",
    ),
}


@pytest.mark.parametrize("source,damage,named", RUN_DIR_DAMAGE.values(), ids=RUN_DIR_DAMAGE.keys())
def test_rescale_of_a_damaged_run_directory_exits_4(
    r5_trace_dir, trace_dir, tmp_path, capsys, source, damage, named
):
    run = tmp_path / "run"
    shutil.copytree(r5_trace_dir if source == "r5" else trace_dir, run)
    damage(run)
    assert cli.main(["rescale", "--trace", str(run)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
    assert not (run / "rescaled").exists()


@pytest.fixture(scope="module")
def failed_run_dir(tmp_path_factory):
    """A run whose first jet fit failed: its trace holds no record."""
    tmp = tmp_path_factory.mktemp("tetra")
    assert _tetrahedron_run(tmp, tmp / "run") == 3
    assert (tmp / "run" / "trace.ndjson").read_text() == ""
    return tmp / "run"


@pytest.mark.parametrize("quantity", ["st_integral", "aring_2"])
def test_plot_of_an_empty_trace_exits_4(failed_run_dir, tmp_path, capsys, quantity):
    out = tmp_path / "plots"
    argv = ["plot", "--trace", str(failed_run_dir), "--vars", quantity, "--out", str(out)]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "config error: trace has no records\n"
    assert not out.exists()


class TestCliEntry:
    def test_run_and_plot(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scene": {"kind": "analytic_sphere", "n": 2, "r0": 1.0},
                    "stop": {"t_end": 0.1},
                }
            )
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["plot", "--trace", str(out), "--vars", "t,vol"]) == 0

    def test_oracle_record(self, capsys):
        code = cli.main(
            ["oracle", "--scene", '{"kind": "analytic_sphere", "n": 3, "r0": 1.0}', "--t", "0.08333333333333333"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["h2"] == pytest.approx(18.0, rel=1e-10)

    def test_oracle_norm_is_finite_past_the_float_range_of_its_integral(self, capsys):
        scene = '{"kind": "analytic_sphere", "n": 300}'
        assert cli.main(["oracle", "--scene", scene, "--t", "0.0001"]) == 0
        norm = json.loads(capsys.readouterr().out)["spacetime_norm_n_plus_2"]
        assert math.isfinite(norm) and norm > 0

    @pytest.mark.parametrize("r0", ["1e999", "Infinity"])
    def test_oracle_of_an_infinite_radius_exits_4(self, capsys, r0):
        scene = '{"kind": "analytic_sphere", "n": 3, "r0": %s}' % r0
        assert cli.main(["oracle", "--scene", scene]) == 4
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("config error: scene.r0 must be")

    def test_oracle_nan_time_is_a_numerical_failure(self, capsys):
        code = cli.main(["oracle", "--scene", '{"kind": "analytic_sphere"}', "--t", "nan"])
        assert code == 3
        assert capsys.readouterr().out == ""

    def test_oracle_of_an_infinite_curvature_exits_3(self, capsys):
        scene = '{"kind": "analytic_sphere", "n": 2, "r0": 1e-150}'
        assert cli.main(["oracle", "--scene", scene, "--t", "2.4999999999999996e-301"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("numerical failure: NonFiniteValue")

    def test_oracle_out_of_float_range_exits_3(self, capsys):
        scene = '{"kind": "analytic_sphere", "n": 150}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["oracle", "--scene", scene, "--t", "0.003333"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("numerical failure: NonFiniteValue")

    def test_check_of_a_small_sphere_of_high_dimension_prints_standard_json(self, capsys):
        # |H|^60 overflows at r = 1e-4; the Chen integral n^n |S^n| does not
        scene = '{"kind": "analytic_sphere", "n": 60, "r0": 1e-4}'
        assert cli.main(["check", "--suite", "inequalities", "--scene", scene]) == 0
        text = capsys.readouterr().out.splitlines()[-1]
        reports = {r["name"]: r for r in json.loads(text, parse_constant=pytest.fail)}
        chen = reports["analytic_sphere:chen_total_mean_curvature"]["values"]
        want = math.exp(60 * math.log(60) + math.log(unit_sphere_area(60)))
        assert chen["integral"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_integer_past_the_conversion_limit_exits_4(self, tmp_path, capsys, command):
        huge = "9" * 5000  # int() converts at most 4300 digits
        if command == "run":
            cfg_path = tmp_path / "cfg.json"
            text = '{"scene": {"kind": "analytic_sphere"}, "stop": {"step_cap": %s}}' % huge
            cfg_path.write_text(text)
            argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        else:
            argv = ["oracle", "--scene", '{"kind": "analytic_sphere", "n": %s}' % huge]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err.startswith("config error: invalid")
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 4

    def test_exact_scene_past_collapse_exits_before_tracing(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"scene": {"kind": "analytic_sphere", "n": 2}, "stop": {"t_end": 0.5}})
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 4
        assert not (out / "trace.ndjson").exists()

    def test_check_cli(self):
        assert (
            cli.main(
                ["check", "--suite", "identities", "--scene", '{"kind": "analytic_sphere", "n": 4}']
            )
            == 0
        )

    def test_rescale_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(snapshot_every=5)))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["rescale", "--trace", str(out)]) == 0
        roundness = json.loads((out / "rescaled" / "roundness.json").read_text())
        assert roundness["series"], "expected at least one rescaled snapshot"
        last = roundness["series"][-1]
        assert last["pinch_ratio"] < 0.05  # sphere stays round
        assert (out / "rescaled" / last["file"]).exists()

    def test_rescale_without_the_source_mesh(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_snapshot(icosphere(subdiv=2), src / "mesh.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scene": {"kind": "mesh_file", "path": str(src / "mesh.csv")},
                    "stop": {"step_cap": 6},
                    "snapshot_every": 2,
                }
            )
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli.main(["rescale", "--trace", str(out), "--out", str(tmp_path / "r1")]) == 0
        os.rename(src, tmp_path / "moved")
        assert cli.main(["rescale", "--trace", str(out), "--out", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1" / "roundness.json").read_bytes() == (
            tmp_path / "r2" / "roundness.json"
        ).read_bytes()

    @pytest.mark.parametrize("damage", ["source_moved", "manifest_without_config"])
    def test_rescale_without_snapshots_exits_4(self, tmp_path, capsys, damage):
        # no scene is rebuilt: neither the source mesh nor the MANIFEST's config is read
        src = tmp_path / "src"
        src.mkdir()
        write_snapshot(icosphere(subdiv=2), src / "mesh.csv")
        raw = {
            "scene": {"kind": "mesh_file", "path": str(src / "mesh.csv")},
            "stop": {"step_cap": 2},
            "snapshot_every": 0,
        }
        out = tmp_path / "out"
        assert runner.run(config_from_dict(raw), out) == 0
        if damage == "source_moved":
            os.rename(src, tmp_path / "moved")
        else:
            (out / "MANIFEST.json").write_text('{"status": "complete"}')
        assert cli.main(["rescale", "--trace", str(out)]) == 4
        assert capsys.readouterr().err == "config error: trace directory has no snapshots\n"
        assert not (out / "rescaled").exists()

    def test_run_builds_one_topology(self, tmp_path, topology_builds):
        cfg = config_from_dict(minimal_config(snapshot_every=2, stop={"step_cap": 6}))
        assert runner.run(cfg, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "roundness" in summary  # the final rescale and re-fit ran too
        assert topology_builds == [162]
        # the four snapshots read back share one topology
        assert len(runner.rescale_trace(tmp_path / "out")["series"]) == 4
        assert topology_builds == [162, 162]
