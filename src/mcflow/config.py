"""Run configuration: JSON parsing, validation, defaults."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, scenes
from .errors import ParseError, ValidationError
from .flow import SchemeConfig, StopRule
from .mesh import DiscreteImmersion, read_snapshot

SCENE_KINDS = (
    "mesh_file",
    "icosphere",
    "polygon_circle",
    "ellipsoid",
    "clifford_torus",
    "analytic_sphere",
    "analytic_sphere_product",
)

_SCENE_KEYS = {
    "mesh_file": {"path"},
    "icosphere": {"r0", "subdiv", "center", "ambient_dim", "embed_subspace", "perturbation"},
    "polygon_circle": {"r0", "segments", "center", "ambient_dim", "embed_subspace", "perturbation"},
    "ellipsoid": {"semi_axes", "subdiv", "center", "ambient_dim", "embed_subspace"},
    "clifford_torus": {"a0", "b0", "resolution", "extra_codim"},
    "analytic_sphere": {"n", "d", "r0"},
    "analytic_sphere_product": {"p", "q", "a0", "b0", "extra_codim"},
}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(
            f"unknown key(s) {sorted(unknown)} in {where}", field=where
        )


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValidationError(f"unknown scene kind {self.kind!r}", field="scene.kind")
        _reject_unknown(self.params, _SCENE_KEYS[self.kind], f"scene.{self.kind}")
        self._validate_params()

    def _validate_params(self):
        p = self.params
        positive = {
            "r0": p.get("r0"),
            "a0": p.get("a0"),
            "b0": p.get("b0"),
        }
        for name, value in positive.items():
            if value is not None and not value > 0:
                raise ValidationError(f"{name} must be positive", field=f"scene.{name}")
        if "semi_axes" in p:
            axes = p["semi_axes"]
            if len(axes) != 3 or any(a <= 0 for a in axes):
                raise ValidationError(
                    "semi_axes must be three positive lengths", field="scene.semi_axes"
                )
        if "perturbation" in p and p["perturbation"] is not None:
            pert = p["perturbation"]
            _reject_unknown(pert, {"modes"}, "scene.perturbation")
            modes = pert.get("modes", [])
            if not modes:
                raise ValidationError("perturbation requires modes", field="scene.perturbation")
            if sum(abs(m[2]) for m in modes) >= 0.3:
                raise ValidationError(
                    "perturbation amplitude must stay below 0.3 of the minimum radius",
                    field="scene.perturbation",
                )

    @property
    def is_analytic(self) -> bool:
        return self.kind.startswith("analytic_")

    def intrinsic_dim(self) -> int:
        if self.kind == "polygon_circle":
            return 1
        if self.kind in ("icosphere", "ellipsoid", "clifford_torus"):
            return 2
        if self.kind == "analytic_sphere":
            return int(self.params.get("n", 2))
        if self.kind == "analytic_sphere_product":
            return int(self.params.get("p", 1)) + int(self.params.get("q", 1))
        # mesh_file: peek at the element arity of the sidecar
        imm, _ = read_snapshot(self.params["path"])
        return imm.intrinsic_dim

    def build(self):
        """Materialize the scene: a DiscreteImmersion or an analytic scene."""
        p = dict(self.params)
        if self.kind == "analytic_sphere":
            return analytic.SphereScene(
                n=int(p.get("n", 2)), d=int(p.get("d", 1)), r0=float(p.get("r0", 1.0))
            )
        if self.kind == "analytic_sphere_product":
            return analytic.SphereProductScene(
                p=int(p.get("p", 1)),
                q=int(p.get("q", 1)),
                a0=float(p.get("a0", 1.0)),
                b0=float(p.get("b0", 1.0)),
                extra_codim=int(p.get("extra_codim", 0)),
            )
        if self.kind == "mesh_file":
            imm, _ = read_snapshot(p["path"])
            return imm
        if self.kind == "clifford_torus":
            return scenes.clifford_torus(
                a0=float(p.get("a0", 1.0)),
                b0=float(p.get("b0", 1.0)),
                resolution=int(p.get("resolution", 64)),
                extra_codim=int(p.get("extra_codim", 0)),
            )

        pert = p.get("perturbation")
        subspace = p.get("embed_subspace")
        if subspace is not None:
            subspace = np.asarray(subspace, dtype=float)
        center = p.get("center")
        base_dim = 2 if self.kind == "polygon_circle" else 3
        ambient = int(p.get("ambient_dim", base_dim))

        if self.kind == "icosphere":
            imm = scenes.icosphere(subdiv=int(p.get("subdiv", 3)), r0=float(p.get("r0", 1.0)))
        elif self.kind == "ellipsoid":
            imm = scenes.ellipsoid(
                semi_axes=p.get("semi_axes", [1.0, 1.0, 1.0]), subdiv=int(p.get("subdiv", 3))
            )
        else:
            imm = scenes.polygon_circle(
                segments=int(p.get("segments", 128)), r0=float(p.get("r0", 1.0))
            )
        if pert is not None:
            imm = scenes.perturb_radially(imm, [tuple(m) for m in pert["modes"]])
        if ambient != base_dim or subspace is not None or center is not None:
            imm = scenes.embed_immersion(imm, ambient, subspace=subspace, center=center)
        return imm

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


@dataclass(frozen=True)
class MonitorConfig:
    a: float
    b: float
    p_list: tuple
    alphas: tuple

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "p": list(self.p_list),
            "alpha": list(self.alphas),
        }


@dataclass(frozen=True)
class RunConfig:
    scene: SceneSpec
    scheme: SchemeConfig
    monitors: MonitorConfig
    snapshot_every: int = 10
    seed: int = 0

    def to_dict(self) -> dict:
        stop = {}
        if self.scheme.stop.t_end is not None:
            stop["t_end"] = self.scheme.stop.t_end
        if self.scheme.stop.max_a2 is not None:
            stop["maxA2"] = self.scheme.stop.max_a2
        if self.scheme.stop.step_cap is not None:
            stop["step_cap"] = self.scheme.stop.step_cap
        out = {
            "scene": self.scene.to_dict(),
            "scheme": {
                "scheme": self.scheme.scheme,
                "cfl": self.scheme.cfl,
                "redistribute_every": self.scheme.redistribute_every,
                "ring": self.scheme.ring,
            },
            "stop": stop,
            "monitors": self.monitors.to_dict(),
            "snapshot_every": self.snapshot_every,
            "seed": self.seed,
        }
        if math.isfinite(self.scheme.dt_max):
            out["scheme"]["dt_max"] = self.scheme.dt_max
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def config_from_dict(raw: dict) -> RunConfig:
    _reject_unknown(
        raw,
        {"scene", "scheme", "stop", "monitors", "snapshot_every", "seed"},
        "config",
    )
    if "scene" not in raw:
        raise ValidationError("config requires a scene", field="scene")
    scene_raw = dict(raw["scene"])
    kind = scene_raw.pop("kind", None)
    if kind is None:
        raise ValidationError("scene requires a kind", field="scene.kind")
    scene = SceneSpec(kind=kind, params=scene_raw)
    n = scene.intrinsic_dim()

    if "stop" not in raw:
        raise ValidationError("config requires a stop rule", field="stop")
    stop_raw = dict(raw["stop"])
    _reject_unknown(stop_raw, {"t_end", "maxA2", "step_cap"}, "stop")
    stop = StopRule(
        t_end=stop_raw.get("t_end"),
        max_a2=stop_raw.get("maxA2"),
        step_cap=stop_raw.get("step_cap"),
    )
    if scene.is_analytic and stop.t_end is not None:
        collapse = scene.build().collapse_time
        if stop.t_end >= collapse:
            raise ValidationError(
                f"t_end={stop.t_end:g} is not before the collapse time {collapse:g}",
                field="stop.t_end",
            )

    scheme_raw = dict(raw.get("scheme", {}))
    _reject_unknown(
        scheme_raw,
        {"scheme", "cfl", "dt_max", "redistribute_every", "ring"},
        "scheme",
    )
    scheme = SchemeConfig(
        scheme=scheme_raw.get("scheme", "semi_implicit"),
        cfl=float(scheme_raw.get("cfl", 0.02)),
        dt_max=float(scheme_raw.get("dt_max", math.inf)),
        redistribute_every=int(scheme_raw.get("redistribute_every", 10 if n == 1 else 0)),
        stop=stop,
        ring=int(scheme_raw.get("ring", 2)),
    )

    mon_raw = dict(raw.get("monitors", {}))
    _reject_unknown(mon_raw, {"a", "b", "p", "alpha"}, "monitors")
    default_a = 1.0 if n == 1 else 1.0 / (n - 1.0)
    alphas = mon_raw.get("alpha", [float(n + 2)])
    if not isinstance(alphas, (list, tuple)):
        alphas = [alphas]
    alphas = tuple(float(a) for a in alphas)
    for a in alphas:
        if a < n + 2:
            raise ValidationError(
                f"alpha={a:g} is below n+2={n + 2}; the spacetime |H| integral "
                "controls extension of the flow only for alpha >= n+2",
                field="monitors.alpha",
            )
    p_list = mon_raw.get("p", [2.0])
    if not isinstance(p_list, (list, tuple)):
        p_list = [p_list]
    monitors = MonitorConfig(
        a=float(mon_raw.get("a", default_a)),
        b=float(mon_raw.get("b", 0.0)),
        p_list=tuple(float(p) for p in p_list),
        alphas=alphas,
    )

    snapshot_every = int(raw.get("snapshot_every", 10))
    if snapshot_every < 0:
        raise ValidationError("snapshot_every must be >= 0", field="snapshot_every")
    return RunConfig(
        scene=scene,
        scheme=scheme,
        monitors=monitors,
        snapshot_every=snapshot_every,
        seed=int(raw.get("seed", 0)),
    )


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration file."""
    with open(str(path)) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be an object", field="config")
    return config_from_dict(raw)


def parse_scene(text_or_path: str) -> SceneSpec:
    """Scene from an inline JSON string or a path to a JSON file."""
    text = text_or_path
    if not text.lstrip().startswith("{"):
        with open(text) as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid scene JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    kind = raw.pop("kind", None)
    if kind is None:
        raise ValidationError("scene requires a kind", field="scene.kind")
    return SceneSpec(kind=kind, params=raw)
