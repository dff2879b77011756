"""Time integration of the curvature flow on discrete immersions.

Two mean-curvature estimators are used deliberately: the jet fit drives the
explicit scheme and all diagnostics, while the implicit scheme moves vertices
through the Laplace-Beltrami identity H = Delta F of the current metric.
Their discrepancy is itself a logged diagnostic: a median gap above 10%
flags an under-resolved mesh.  The operator Delta = M^{-1} (-S) belongs to
the immersion (``imm.vertex_weights`` and ``imm.stiffness``, assembled once
per vertex array in ``mesh``); it also bounds the explicit step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .curvature import jet_forms
from .errors import (
    MaxStepsExceeded,
    McflowError,
    SolverFailure,
    StepRejected,
    UnsupportedDimension,
    ValidationError,
)
from .mesh import DiscreteImmersion
from .monitors import SpacetimeAccumulator, StateView, lp_norm, power_sum, state_view


@dataclass
class FlowState:
    immersion: DiscreteImmersion  # or an exact SphereScene / SphereProductScene
    t: float = 0.0
    step_index: int = 0


@dataclass
class StopRule:
    """Exactly one stop condition must be set."""

    t_end: float | None = None
    max_a2: float | None = None
    step_cap: int | None = None

    def __post_init__(self):
        given = [v for v in (self.t_end, self.max_a2, self.step_cap) if v is not None]
        if len(given) != 1:
            raise ValidationError("exactly one stop condition required", field="stop")
        if self.t_end is not None and not self.t_end > 0:
            raise ValidationError("t_end must be positive", field="stop.t_end")
        if self.max_a2 is not None and not self.max_a2 > 0:
            raise ValidationError("max_a2 must be positive", field="stop.max_a2")
        if self.step_cap is not None and not self.step_cap >= 1:
            raise ValidationError("step_cap must be >= 1", field="stop.step_cap")


#: run_until raises MaxStepsExceeded rather than take more steps than this
MAX_STEPS = 100_000


@dataclass
class SchemeConfig:
    """Step-size policy: dt = min(cfl / max|A|^2, dt_max, the scheme's own bound),
    never past ``stop.t_end``; ``scheme`` names an entry of ``SCHEMES``."""

    scheme: str = "semi_implicit"
    cfl: float = 0.02
    dt_max: float = math.inf
    redistribute_every: int = 0
    stop: StopRule = field(default_factory=lambda: StopRule(step_cap=100))

    def __post_init__(self):
        if not isinstance(self.scheme, str) or self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}", field="scheme")
        if not self.cfl > 0:
            raise ValidationError("cfl must be positive", field="cfl")
        _, _, max_cfl = SCHEMES[self.scheme]
        if self.cfl > max_cfl:
            raise ValidationError(f"{self.scheme} scheme requires cfl <= {max_cfl:g}", field="cfl")
        if not self.dt_max > 0:
            raise ValidationError("dt_max must be positive", field="dt_max")
        if self.redistribute_every < 0:
            raise ValidationError("redistribute_every must be >= 0", field="redistribute_every")


#: Jacobi-PCG of the implicit step: a column stops once its residual has
#: fallen by _PCG_RTOL from the warm start's; a solve needing more than
#: _PCG_MAX_ITER iterations fails
_PCG_RTOL = 1e-13
_PCG_MAX_ITER = 1000

@dataclass
class TraceRecord:
    """One observed state; a trace line is ``json.dumps(vars(rec))``, float keys as "4.0"."""

    t: float
    dt: float
    vol: float
    h2_max: float
    h2_min: float
    a2_max: float
    aring_p_norms: dict
    st_integral_alpha: dict
    scheme: str

    @classmethod
    def from_json_dict(cls, raw: dict) -> "TraceRecord":
        raw = dict(raw)
        for f in fields(cls):
            if f.type == "dict":
                raw[f.name] = {float(k): v for k, v in raw[f.name].items()}
        return cls(**raw)

    def columns(self) -> dict:
        """Plot columns by name: the scalars, ``aring_<p:g>`` and ``st_integral_<alpha:g>``."""
        cols = {k: getattr(self, k) for k in ("t", "dt", "vol", "h2_max", "h2_min", "a2_max")}
        cols.update((f"aring_{p:g}", v) for p, v in self.aring_p_norms.items())
        cols.update((f"st_integral_{a:g}", v) for a, v in self.st_integral_alpha.items())
        return cols


@dataclass
class Snapshot:
    step: int
    t: float
    immersion: DiscreteImmersion
    scalars: dict


@dataclass
class FlowTrace:
    records: list
    snapshots: list
    final_state: FlowState
    status: str  # "stopped" | "singular"; a trace read from disk: the MANIFEST status
    stop_reason: str
    intrinsic_dim: int
    final_view: StateView | None = None  # of final_state; None for a trace read from disk


# ---------------------------------------------------------------------------
# Laplace-Beltrami mean curvature

def laplace_mean_curvature(imm: DiscreteImmersion) -> np.ndarray:
    """H estimated as the Laplace-Beltrami image of the position."""
    return -(imm.stiffness @ imm.vertices) / imm.vertex_weights[:, None]


def estimator_discrepancy(imm, forms) -> float:
    """Median relative gap between the jet-fit and Laplace-Beltrami H fields."""
    h_lb = laplace_mean_curvature(imm)
    diff = np.linalg.norm(h_lb - forms.mean_curvature, axis=1)
    scale = np.maximum(np.linalg.norm(forms.mean_curvature, axis=1), 1e-300)
    return float(np.median(diff / scale))


# ---------------------------------------------------------------------------
# steps

def step_explicit(state: FlowState, dt: float, h_field: np.ndarray | None = None) -> FlowState:
    """Forward Euler: move vertices by dt * H.

    ``h_field`` defaults to the jet-fit H; pass ``laplace_mean_curvature``
    for same-operator comparisons against the implicit scheme.
    """
    imm = state.immersion
    if h_field is None:
        _, forms = jet_forms(imm)
        h_field = forms.mean_curvature
    try:
        new = imm.with_vertices(imm.vertices + dt * h_field)
    except McflowError as exc:
        raise StepRejected(f"explicit step degenerated: {exc}") from exc
    return FlowState(new, state.t + dt, state.step_index + 1)


def _pcg(system, x, r):
    """Jacobi-preconditioned conjugate gradients on every column at once.

    ``x`` (V, D) is the start and ``r`` its residual b - system @ x.  A column
    freezes once its residual norm is at most _PCG_RTOL times its starting
    one, so a column whose start is exact (a zero residual) is returned
    untouched.  Raises SolverFailure when a column is still open after
    _PCG_MAX_ITER iterations.  The open columns are kept as rows, so that
    each vector operation runs along V.
    """
    inv_diag = 1.0 / system.diagonal()
    out = x.copy()
    r = np.ascontiguousarray(r.T)
    rr = np.einsum("cv,cv->c", r, r)
    goal = _PCG_RTOL ** 2 * rr  # on squared norms
    cols = np.flatnonzero(~(rr <= goal))
    r, goal = r[cols], goal[cols]
    xa = np.ascontiguousarray(x.T[cols])
    z = inv_diag * r
    p = z.copy()
    rz = np.einsum("cv,cv->c", r, z)
    for _ in range(_PCG_MAX_ITER):
        if not cols.size:
            break
        q = np.ascontiguousarray((system @ p.T).T)
        alpha = (rz / np.einsum("cv,cv->c", p, q))[:, None]
        xa += alpha * p
        r -= alpha * q
        live = ~(np.einsum("cv,cv->c", r, r) <= goal)
        if not live.all():
            out[:, cols[~live]] = xa[~live].T
            cols, xa, r, p, rz, goal = (a[live] for a in (cols, xa, r, p, rz, goal))
        z = inv_diag * r
        rz_next = np.einsum("cv,cv->c", r, z)
        p *= (rz_next / rz)[:, None]
        p += z
        rz = rz_next
    if cols.size:
        raise SolverFailure(f"PCG did not converge in {_PCG_MAX_ITER} iterations")
    return out


def step_semi_implicit(state: FlowState, dt: float) -> FlowState:
    """Backward Euler on the frozen-metric Laplacian: (M + dt*S) X_new = M X_old.

    Unconditionally stable and first-order consistent; each ambient
    coordinate solves independently, so data in a coordinate subspace stays
    in it exactly.  A surface's SPD system is solved by Jacobi-PCG
    warm-started at X_old, whose residual is -dt*S X_old.  A curve's system
    is cyclic tridiagonal: its sparse LU has O(V) fill, while CG would need
    tens to hundreds of iterations, as dt/h^2 is large on a finely sampled
    curve.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    imm = state.immersion
    try:
        mass, stiffness = imm.vertex_weights, imm.stiffness
        system = sparse.diags(mass) + dt * stiffness
        if imm.intrinsic_dim == 1:
            new_vertices = splu(system.tocsc()).solve(mass[:, None] * imm.vertices)
        else:
            new_vertices = _pcg(system, imm.vertices, -dt * (stiffness @ imm.vertices))
    except (McflowError, RuntimeError) as exc:
        raise SolverFailure(f"implicit solve failed: {exc}") from exc
    try:
        new = imm.with_vertices(new_vertices)
    except McflowError as exc:
        raise StepRejected(f"implicit step degenerated: {exc}") from exc
    return FlowState(new, state.t + dt, state.step_index + 1)


# ---------------------------------------------------------------------------
# tangential redistribution (curves)

def redistribute(imm: DiscreteImmersion) -> DiscreteImmersion:
    """Resample each closed curve cycle to uniform arc length.

    Periodic cubic interpolation against cumulative chord length; vertex
    count and connectivity are unchanged.  A final uniform rescale per cycle
    pins the total chord length, which otherwise drifts at the resampling
    order.
    """
    from scipy.interpolate import CubicSpline

    if imm.intrinsic_dim != 1:
        raise UnsupportedDimension("redistribution implemented for curves only")
    if not imm.closed:
        raise ValidationError("redistribution requires a closed curve", field="closed")
    vertices = imm.vertices.copy()
    for cycle in imm.topology.cycles:
        pts = imm.vertices[cycle]
        closed_pts = np.vstack([pts, pts[:1]])
        seg = np.linalg.norm(np.diff(closed_pts, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        spline = CubicSpline(s, closed_pts, bc_type="periodic")
        # arc length of the spline on a dense grid, then uniform targets
        dense = np.linspace(0.0, s[-1], 32 * len(cycle) + 1)
        dx = spline(dense, 1)
        speed = np.linalg.norm(dx, axis=1)
        arclen = np.concatenate(
            [[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(dense))]
        )
        targets = arclen[-1] * np.arange(len(cycle)) / len(cycle)
        params = np.interp(targets, arclen, dense)
        new_pts = spline(params)
        rolled = np.roll(new_pts, -1, axis=0)
        new_length = np.linalg.norm(rolled - new_pts, axis=1).sum()
        centroid = new_pts.mean(axis=0)
        vertices[cycle] = centroid + (new_pts - centroid) * (s[-1] / new_length)
    return imm.with_vertices(vertices)


# ---------------------------------------------------------------------------
# driver

#: each scheme a config may name, as (step, dt_bound, max_cfl): ``step(state, dt,
#: view)`` returns the next state (``view`` is the state's ``state_view``) from a
#: module function called by name, so that a wrapper on it sees every step;
#: ``dt_bound(state)`` caps dt and ``max_cfl`` the cfl.  The explicit bound is
#: Gershgorin's for forward Euler on M x' = -S x (h^2 / 2 on a curve of spacing h).
SCHEMES = {
    "explicit": (
        lambda state, dt, view: step_explicit(state, dt, h_field=view.forms.mean_curvature),
        lambda st: float(np.min(st.immersion.vertex_weights / st.immersion.stiffness.diagonal())),
        0.5,
    ),
    "semi_implicit": (
        lambda state, dt, view: step_semi_implicit(state, dt), lambda st: math.inf, math.inf
    ),
}

#: an exact scene's entry, traced as scheme "analytic": dt at most half the time left
ANALYTIC = (
    lambda state, dt, view: FlowState(state.immersion, state.t + dt, state.step_index + 1),
    lambda state: 0.5 * (state.immersion.collapse_time - state.t),
    math.inf,
)


def run_until(
    state: FlowState,
    cfg: SchemeConfig,
    p_list: tuple = (2.0,),
    alphas: tuple = (),
    snapshot_every: int = 0,
    on_record=None,
) -> FlowTrace:
    """Advance the flow until the stop rule fires, recording each accepted step.

    ``state.immersion`` is a mesh, stepped by its ``SCHEMES`` entry, or an
    exact scene, stepped by ``ANALYTIC``.  Steps shrink as
    curvature concentrates (see ``SchemeConfig``), so the driver approaches
    the maximal time from below; element collapse ends a mesh run with a
    ``singular`` verdict instead of surgery.  An exact scene is sampled from
    its closed form, never steps past its collapse time and takes no
    snapshots.  Each record holds the L^p norms of |Aring| for ``p_list`` and
    the spacetime |H|^alpha integrals for ``alphas`` (empty: alpha = n + 2).
    """
    body = state.immersion
    mesh = isinstance(body, DiscreteImmersion)
    n = body.intrinsic_dim
    scheme = cfg.scheme if mesh else "analytic"
    step, dt_bound, _ = SCHEMES[scheme] if mesh else ANALYTIC
    snapshot_every = snapshot_every if mesh else 0
    alphas = tuple(alphas) or (float(n + 2),)
    accumulators = {a: SpacetimeAccumulator(alpha=a) for a in alphas}

    records: list[TraceRecord] = []
    snapshots: list[Snapshot] = []
    status, reason = "stopped", ""

    def snapshot(st: FlowState, view):
        snapshots.append(Snapshot(st.step_index, st.t, st.immersion, view.scalars()))

    def observe(st: FlowState, dt: float):
        view = state_view(st.immersion, st.t)
        aring = np.sqrt(np.clip(view.aring2, 0.0, None))
        habs = np.sqrt(np.clip(view.h2, 0.0, None))
        integrals = {}
        for a, acc in accumulators.items():
            integral = None if mesh else body.spacetime_integral(a, st.t)  # a closed form
            if integral is None:
                integrand, log_integrand = power_sum(habs, a, view.weights)
                integral = acc.update(integrand, dt, log_integrand).value
            integrals[a] = integral
        records.append(
            TraceRecord(
                t=st.t,
                dt=dt,
                vol=view.vol,
                h2_max=float(view.h2.max()),
                h2_min=float(view.h2.min()),
                a2_max=float(view.a2.max()),
                aring_p_norms={p: lp_norm(aring, p, view.weights) for p in p_list},
                st_integral_alpha=integrals,
                scheme=scheme,
            )
        )
        if on_record is not None:
            on_record(records[-1])
        if snapshot_every and (st.step_index % snapshot_every == 0 or dt == 0.0):
            snapshot(st, view)
        return view

    view = observe(state, 0.0)
    stop = cfg.stop
    t_end = math.inf if stop.t_end is None else stop.t_end
    accepted = 0
    while True:
        if state.t >= t_end - 1e-14:
            reason = "t_end"
            break
        if stop.max_a2 is not None and records[-1].a2_max >= stop.max_a2:
            reason = "max_a2"
            break
        if stop.step_cap is not None and accepted >= stop.step_cap:
            reason = "step_cap"
            break
        if accepted >= MAX_STEPS:
            raise MaxStepsExceeded(f"no stop condition after {accepted} steps")

        dt = min(cfg.cfl / records[-1].a2_max, cfg.dt_max, dt_bound(state), t_end - state.t)
        accepted += 1
        try:
            state = step(state, dt, view)
        except StepRejected as exc:
            status, reason = "singular", f"step rejected: {exc}"
            break
        if mesh and n == 1 and cfg.redistribute_every and accepted % cfg.redistribute_every == 0:
            state = FlowState(redistribute(state.immersion), state.t, state.step_index)
        del view  # the old fit and its stencil need not outlive the step
        view = observe(state, dt)

    if snapshot_every and (not snapshots or snapshots[-1].step != state.step_index):
        snapshot(state, view)
    return FlowTrace(
        records=records,
        snapshots=snapshots,
        final_state=state,
        status=status,
        stop_reason=reason,
        intrinsic_dim=n,
        final_view=view,
    )
