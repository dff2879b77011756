"""Run configuration: JSON parsing, validation, defaults."""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analytic, scenes
from .errors import ParseError, ValidationError
from .flow import SchemeConfig, StopRule
from .mesh import read_snapshot

#: keys applied to a meshed scene after its constructor: perturb, then embed
_AFTER_BUILD = {"perturbation", "ambient_dim", "embed_subspace", "center"}

#: each kind: what builds it and the keys its JSON object may hold
_SCENES = {
    "mesh_file": (None, {"path"}),
    "icosphere": (scenes.icosphere, {"r0", "subdiv", *_AFTER_BUILD}),
    "polygon_circle": (scenes.polygon_circle, {"r0", "segments", *_AFTER_BUILD}),
    "ellipsoid": (scenes.ellipsoid, {"semi_axes", "subdiv", *_AFTER_BUILD - {"perturbation"}}),
    "clifford_torus": (scenes.clifford_torus, {"a0", "b0", "resolution", "extra_codim"}),
    "analytic_sphere": (analytic.SphereScene, {"n", "d", "r0"}),
    "analytic_sphere_product": (
        analytic.SphereProductScene, {"p", "q", "a0", "b0", "extra_codim"}
    ),
}
#: each scheme key, and the type its JSON number is read as (None: the scheme name)
_SCHEME_KEYS = {"scheme": None, "cfl": float, "dt_max": float, "redistribute_every": int}
#: each stop key: its StopRule field, and whether it is an integer
_STOP_KEYS = {
    "t_end": ("t_end", False), "maxA2": ("max_a2", False), "step_cap": ("step_cap", True)
}
#: each monitors key, and its MonitorConfig field
_MONITOR_KEYS = {"a": "a", "b": "b", "p": "p_list", "alpha": "alphas"}
_COUNTS = {"subdiv", "segments", "resolution", "extra_codim", "n", "d", "p", "q", "ambient_dim"}
_LENGTHS = {"r0", "a0", "b0"}


def _section(value, allowed: set, where: str) -> dict:
    """A copy of a JSON object whose keys all lie in ``allowed``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be an object", field=where)
    unknown = set(value) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}", field=where)
    return dict(value)


def _number(value, field: str, integer: bool = False):
    """``value`` if it is a JSON number (an integer if ``integer``) in the float range, else
    a config error: NaN, inf (json reads ``1e999`` and ``Infinity`` as inf) and 10**400 fail."""
    ok = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
    if not ok or not (integer or abs(value) <= sys.float_info.max):
        kind = "an integer" if integer else "a finite number"
        raise ValidationError(f"{field} must be {kind}, not {value!r}", field=field)
    return value


def _scene_value(key: str, value):
    """A scene's JSON value as its constructor takes it: counts as integers,
    lengths as floats, arrays (``semi_axes``) as float arrays."""
    if key in _COUNTS:
        return _number(value, f"scene.{key}", integer=True)
    if key in _LENGTHS:
        return float(_number(value, f"scene.{key}"))
    return _array(value, f"scene.{key}")


def _array(value, field: str) -> np.ndarray | None:
    """A JSON array of numbers (nested for a matrix) as a float array; None stays None."""
    if value is None:
        return None
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.ndim == 0 or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValidationError(f"{field} must be an array of numbers", field=field)
    return arr.astype(float)


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SCENES:
            raise ValidationError(f"unknown scene kind {self.kind!r}", field="scene.kind")
        _section(self.params, _SCENES[self.kind][1], f"scene.{self.kind}")

    @classmethod
    def from_dict(cls, raw) -> "SceneSpec":
        """Inverse of ``to_dict``: a scene object with its ``kind`` key."""
        if not isinstance(raw, dict):
            raise ValidationError("scene must be an object", field="scene")
        params = dict(raw)
        return cls(kind=params.pop("kind", None), params=params)

    @property
    def is_analytic(self) -> bool:
        return self.kind.startswith("analytic_")

    @functools.cached_property
    def body(self):
        """The scene, built once: a DiscreteImmersion or an exact scene. The
        constructor supplies every value the JSON object leaves out."""
        p = self.params
        if self.kind == "mesh_file":
            if not isinstance(p.get("path"), str):
                raise ValidationError("mesh_file requires a path", field="scene.path")
            imm, _ = read_snapshot(p["path"])
            return imm
        build = _SCENES[self.kind][0]
        body = build(**{k: _scene_value(k, v) for k, v in p.items() if k not in _AFTER_BUILD})
        if p.get("perturbation") is not None:
            pert = _section(p["perturbation"], {"modes"}, "scene.perturbation")
            modes = _array(pert.get("modes"), "scene.perturbation.modes")
            body = scenes.perturb_radially(body, modes)
        ambient = _scene_value("ambient_dim", p.get("ambient_dim", body.ambient_dim))
        subspace = _array(p.get("embed_subspace"), "scene.embed_subspace")
        center = _array(p.get("center"), "scene.center")
        if ambient != body.ambient_dim or subspace is not None or center is not None:
            body = scenes.embed_immersion(body, ambient, subspace=subspace, center=center)
        return body

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass(frozen=True)
class MonitorConfig:
    a: float
    b: float
    p_list: tuple
    alphas: tuple

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _MONITOR_KEYS.items()}


@dataclass(frozen=True)
class RunConfig:
    scene: SceneSpec
    scheme: SchemeConfig
    monitors: MonitorConfig
    snapshot_every: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.snapshot_every < 0:
            raise ValidationError("snapshot_every must be >= 0", field="snapshot_every")

    def to_dict(self) -> dict:
        stop = {key: getattr(self.scheme.stop, name) for key, (name, _) in _STOP_KEYS.items()}
        scheme = {key: getattr(self.scheme, key) for key in _SCHEME_KEYS}
        return {
            "scene": self.scene.to_dict(),
            "scheme": {k: v for k, v in scheme.items() if v != math.inf},  # dt_max: no cap
            "stop": {k: v for k, v in stop.items() if v is not None},
            "monitors": self.monitors.to_dict(),
            "snapshot_every": self.snapshot_every,
            "seed": self.seed,
        }


def config_from_dict(raw: dict) -> RunConfig:
    keys = {"scene", "scheme", "stop", "monitors", "snapshot_every", "seed"}
    raw = _section(raw, keys, "config")
    scene = SceneSpec.from_dict(raw.get("scene"))
    body = scene.body
    n = body.intrinsic_dim

    # StopRule rejects a missing or empty stop block
    stop_raw = _section(raw.get("stop", {}), set(_STOP_KEYS), "stop")
    stop = StopRule(**{
        name: _number(stop_raw[key], f"stop.{key}", integer)
        for key, (name, integer) in _STOP_KEYS.items()
        if stop_raw.get(key) is not None
    })
    if scene.is_analytic and stop.t_end is not None and stop.t_end >= body.collapse_time:
        raise ValidationError(
            f"t_end={stop.t_end:g} is not before the collapse time {body.collapse_time:g}",
            field="stop.t_end",
        )

    # SchemeConfig supplies what the block leaves out, but curves redistribute
    scheme_args = _section(raw.get("scheme", {}), set(_SCHEME_KEYS), "scheme")
    for key, kind in _SCHEME_KEYS.items():
        if key in scheme_args and kind is not None:
            scheme_args[key] = kind(_number(scheme_args[key], f"scheme.{key}", kind is int))
    if n == 1:
        scheme_args.setdefault("redistribute_every", 10)
    scheme = SchemeConfig(**scheme_args, stop=stop)

    mon_raw = _section(raw.get("monitors", {}), set(_MONITOR_KEYS), "monitors")

    def mon_list(key, default):
        values = mon_raw.get(key, default)
        if not isinstance(values, (list, tuple)):
            values = [values]
        return tuple(float(_number(v, f"monitors.{key}")) for v in values)

    default_a = 1.0 if n == 1 else 1.0 / (n - 1.0)
    alphas = mon_list("alpha", [float(n + 2)])
    for a in alphas:
        if a < n + 2:
            raise ValidationError(
                f"alpha={a:g} is below n+2={n + 2}; the spacetime |H| integral "
                "controls extension of the flow only for alpha >= n+2",
                field="monitors.alpha",
            )
    p_list = mon_list("p", [2.0])
    for p in p_list:
        if p < 1:
            raise ValidationError(f"p={p:g} is below 1", field="monitors.p")
    monitors = MonitorConfig(
        a=float(_number(mon_raw.get("a", default_a), "monitors.a")),
        b=float(_number(mon_raw.get("b", 0.0), "monitors.b")),
        p_list=p_list,
        alphas=alphas,
    )

    run_args = {k: _number(raw[k], k, True) for k in ("snapshot_every", "seed") if k in raw}
    return RunConfig(scene=scene, scheme=scheme, monitors=monitors, **run_args)


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid {what} at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    except ValueError as exc:  # an integer too long for int(), which says so
        raise ParseError(f"invalid {what}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration file."""
    with open(str(path)) as fh:
        text = fh.read()
    return config_from_dict(_parse_json(text, "JSON"))


def parse_scene(text_or_path: str) -> SceneSpec:
    """Scene from an inline JSON string or a path to a JSON file."""
    text = text_or_path
    if not text.lstrip().startswith("{"):
        with open(text) as fh:
            text = fh.read()
    return SceneSpec.from_dict(_parse_json(text, "scene JSON"))
