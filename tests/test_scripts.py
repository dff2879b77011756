"""Smoke tests: each experiment script runs at a small size and prints its table."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name, monkeypatch):
    # the scripts put ``src`` on sys.path when loaded; keep that local to the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sobolev_battery(monkeypatch, capsys):
    load_script("sobolev_battery", monkeypatch).main()
    out = capsys.readouterr().out
    assert out.startswith("explicit constants (alpha = n/(n+1)):")
    assert "zonal checks (verdict per checker):" in out


def test_sphere_oracle_study(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    script = load_script("sphere_oracle_study", monkeypatch)
    script.SUBDIVS = (2,)
    script.WRITE_PLOTDATA = False
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "subdiv" and lines[0].endswith("slope/16pi")
    assert lines[1].split()[:2] == ["2", "162"]
    assert list(tmp_path.iterdir()) == []


def test_step_scaling(monkeypatch, capsys):
    script = load_script("step_scaling", monkeypatch)
    script.SUBDIVS = (1, 2)
    script.RECORDS = 2
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "subdiv", "verts", "jet_forms", "ms", "step", "ms", "fit", "threads"
    ]
    assert [line.split()[:2] for line in lines[1:]] == [["1", "42"], ["2", "162"]]
