"""Every tracked quantity and inequality, evaluated on mesh or analytic states.

Monitors never assert against constants the theory leaves unspecified; those
checks compute both sides, report the ratio, and carry the ``informational``
verdict.  Hard pass/fail is reserved for inequalities with explicit
constants.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .curvature import (
    DerivativeData,
    FrameField,
    FundamentalForms,
    derivative_data,
    jet_forms,
)
from .errors import UnsupportedDimension, WindowNotCovered
from .mesh import DiscreteImmersion

#: squared-curvature scale below which derivative fits are treated as noise
GRADIENT_NOISE_FLOOR = 1e-2

#: farthest-point sweeps of geodesic_diameter
_HEAT_SWEEPS = 4

#: hops over which geodesic_diameter's heat step stays a normal double: per
#: hop it falls by less than a factor e^0.97 at t = h^2, and by less than
#: e^(h / sqrt(t)) at a larger t
_HEAT_HOPS = 700

HOLDS = "holds"
VIOLATED = "violated"
INFORMATIONAL = "informational"


def lp_norm(values: np.ndarray, p: float, weights: np.ndarray) -> float:
    """(sum w |f|^p)^(1/p) over the vertex measure."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return float((weights @ np.abs(values) ** p) ** (1.0 / p))


@dataclass
class SpacetimeAccumulator:
    """Running trapezoid-rule value of the spacetime |H|^alpha integral."""

    alpha: float
    value: float = 0.0
    last_integrand: float | None = None

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")

    def update(self, integrand: float, dt: float) -> "SpacetimeAccumulator":
        if dt < 0:
            raise ValueError("dt must be nonnegative")
        if self.last_integrand is not None and dt > 0:
            self.value += 0.5 * dt * (self.last_integrand + integrand)
        self.last_integrand = integrand
        return self


@dataclass
class MonitorReport:
    name: str
    digest: str
    values: dict
    verdict: str
    anchor: str


@dataclass
class StateView:
    """Uniform monitor input: per-point curvature fields plus the measure.

    Mesh states carry one entry per vertex; analytic states are homogeneous,
    so a single entry with the total volume as weight represents them.
    ``frames`` and ``forms`` are a mesh's jet fit (None for an exact scene);
    the volume, the digest, the diameter and the covariant derivatives are
    computed on first use.
    """

    body: object  # the DiscreteImmersion or exact scene in view
    t: float
    a2: np.ndarray
    h2: np.ndarray
    aring2: np.ndarray
    weights: np.ndarray
    frames: FrameField | None = None
    forms: FundamentalForms | None = None

    @property
    def n(self) -> int:
        return self.body.intrinsic_dim

    @functools.cached_property
    def vol(self) -> float:
        return float(self.weights.sum())

    @functools.cached_property
    def digest(self) -> str:
        """Hash of the fields the reports read; ties each report to its state."""
        return _digest(self.n, self.a2, self.h2, self.aring2, self.weights, self.vol)

    @functools.cached_property
    def diameter(self) -> float:
        if self.forms is None:
            return float(self.body.diameter(self.t))
        return geodesic_diameter(self.body)

    @functools.cached_property
    def derivatives(self) -> DerivativeData:
        """Covariant derivatives of the fitted forms; zero on exact scenes."""
        if self.forms is None:
            zero = np.zeros(1)
            h_k = np.zeros((1, *self.body.form_components(self.t).shape, self.n))
            return DerivativeData(h_k=h_k, grad_a2=zero, grad_h2=zero, grad_aring2=zero)
        return derivative_data(self.body, self.frames, self.forms)

    def scalars(self) -> dict:
        """Per-vertex snapshot columns."""
        return {"H2": self.h2, "A2": self.a2, "Aring2": self.aring2, "weight": self.weights}


def _digest(*parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(np.ascontiguousarray(part).tobytes())
        else:
            hasher.update(repr(part).encode())
    return hasher.hexdigest()[:16]


def geodesic_diameter(imm: DiscreteImmersion) -> float:
    """Riemannian diameter by the heat method; ``inf`` when disconnected.

    Crane, Weischedel & Wardetzky, "Geodesics in heat", ACM TOG 32(5), 2013:
    from a source s, one backward-Euler heat step (M + tS) u = delta_s, with
    t the squared mean edge length h^2, gives the unit field
    X = -grad u / |grad u| on each element, and S phi = div X gives the
    distance phi - phi_s.  The same code serves curves and surfaces in any
    codimension: the hat-function gradients come from each element's edge
    vectors and their Gram matrix.  ``_HEAT_SWEEPS`` sweeps, vertex 0 first
    and then each time from the farthest vertex found, return the largest
    distance: a lower estimate of the diameter of the heat distance.  Both
    factors live only for the call.

    Where two vertices may lie more than ``_HEAT_HOPS`` edges apart (long
    curves), t grows with the square of that hop count, so that u does not
    underflow to zero far from the source and leave X undefined there.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import shortest_path
    from scipy.sparse.linalg import splu

    nv = imm.num_vertices
    edges = imm.topology.edges
    adjacency = sparse.csr_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(nv, nv)
    )
    hops = shortest_path(adjacency, directed=False, unweighted=True, indices=0)
    if np.isinf(hops).any():
        return math.inf
    x = imm.vertices
    h = np.linalg.norm(x[edges[:, 1]] - x[edges[:, 0]], axis=1).mean()
    # every pair of vertices is at most 2 ecc(0) hops apart
    t = (h * max(1.0, 2.0 * hops.max() / _HEAT_HOPS)) ** 2
    stiffness = imm.stiffness
    heat = splu(sparse.csc_matrix(sparse.diags(imm.vertex_weights) + t * stiffness))
    # phi is fixed up to a constant: pinning phi_0 = 0 leaves S positive definite
    poisson = splu(sparse.csc_matrix(stiffness[1:, 1:]))

    # gradients of the hat functions on each element: those of the vertices
    # 1..n are the rows of G^-1 E, E the edge vectors from vertex 0 and G = E E^T
    el = imm.elements
    edge_vecs = x[el[:, 1:]] - x[el[:, :1]]
    tail = np.linalg.solve(edge_vecs @ edge_vecs.transpose(0, 2, 1), edge_vecs)
    grads = np.concatenate([-tail.sum(axis=1, keepdims=True), tail], axis=1)
    weighted = grads * imm.element_measures[:, None, None]

    best, source = 0.0, 0
    for _ in range(_HEAT_SWEEPS):
        delta = np.zeros(nv)
        delta[source] = 1.0
        u = heat.solve(delta)
        grad_u = np.einsum("ead,ea->ed", grads, u[el])
        # u decays geometrically with the hop count: rescale before squaring,
        # or |grad u| underflows far from the source.  Then |grad u| >= 1
        # unless u is level on the element, by symmetry (the far segment of a
        # polygon with an odd count); X is zero there.
        scale = np.abs(grad_u).max(axis=1, keepdims=True)
        grad_u /= np.where(scale > 0.0, scale, 1.0)
        field = -grad_u / np.maximum(np.linalg.norm(grad_u, axis=1, keepdims=True), 1.0)
        div = np.bincount(
            el.ravel(), weights=np.einsum("ead,ed->ea", weighted, field).ravel(), minlength=nv
        )
        phi = np.zeros(nv)
        phi[1:] = poisson.solve(div[1:])
        dist = phi - phi[source]
        source = int(np.argmax(dist))
        best = max(best, float(dist[source]))
    return best


def state_view(body, t: float = 0.0) -> StateView:
    """Curvature view of a mesh (jet-fitted once) or of an exact scene at time t.

    ``t`` is read only by exact scenes.
    """
    if isinstance(body, DiscreteImmersion):
        frames, forms = jet_forms(body)
        a2, h2, aring2 = forms.a2, forms.h2, forms.aring2
        weights = body.vertex_weights
    else:
        st = body.state(t)
        frames = forms = None
        fields = (st.a2, st.h2, st.aring2, st.vol)
        a2, h2, aring2, weights = (np.array([x], float) for x in fields)
    return StateView(
        body=body,
        t=t,
        a2=a2,
        h2=h2,
        aring2=aring2,
        weights=weights,
        frames=frames,
        forms=forms,
    )


# ---------------------------------------------------------------------------
# individual monitors

def pinching_linear(view: StateView, a: float, b: float = 0.0) -> MonitorReport:
    """Check max(|A|^2 - a|H|^2 - b) <= 0 pointwise."""
    margin = float((view.a2 - a * view.h2 - b).max())
    return MonitorReport(
        name="pinching_linear",
        digest=view.digest,
        values={"a": a, "b": b, "max_margin": margin},
        verdict=HOLDS if margin <= 0 else VIOLATED,
        anchor="max(|A|^2 - a|H|^2 - b) <= 0",
    )


def pinching_andrews_baker(view: StateView) -> MonitorReport:
    """Dimension-dependent roundness pinching: |A|^2 <= c(n) |H|^2, n >= 3."""
    if view.n < 3:
        raise UnsupportedDimension("pinching constant defined for n >= 3")
    c = 4.0 / 9.0 if view.n == 3 else 1.0 / (view.n - 1.0)
    margin = float((view.a2 - c * view.h2).max())
    return MonitorReport(
        name="pinching_andrews_baker",
        digest=view.digest,
        values={"c": c, "max_margin": margin},
        verdict=HOLDS if margin <= 0 else VIOLATED,
        anchor="|A|^2 <= c(n)|H|^2 with c(3)=4/9, c(n)=1/(n-1)",
    )


def _chen_report(view: StateView) -> MonitorReport:
    n = view.n
    bound = n ** n * analytic.unit_ball_volume(n)
    total = float(view.weights @ np.sqrt(np.clip(view.h2, 0.0, None)) ** n)
    return MonitorReport(
        name="chen_total_mean_curvature",
        digest=view.digest,
        values={"integral": total, "bound": bound, "ratio": total / bound},
        verdict=HOLDS if total >= bound else VIOLATED,
        anchor="integral |H|^n dmu >= n^n omega_n",
    )


def _hmax_report(view: StateView) -> MonitorReport:
    # Chen's bound max|H|^n >= n^n omega_n / Vol, raised to the power 2/n
    n = view.n
    bound = (n ** n * analytic.unit_ball_volume(n) / view.vol) ** (2.0 / n)
    peak = float(view.h2.max())
    return MonitorReport(
        name="hmax_lower_bound",
        digest=view.digest,
        values={"h2_max": peak, "bound": bound, "ratio": peak / bound},
        verdict=HOLDS if peak >= bound else VIOLATED,
        anchor="max|H|^2 >= (n^n omega_n / Vol)^(2/n)",
    )


def _topping_report(view: StateView) -> MonitorReport:
    n = view.n
    integral = float(view.weights @ np.sqrt(np.clip(view.h2, 0.0, None)) ** (n - 1))
    diam = view.diameter
    if not math.isfinite(diam):  # a disconnected mesh; JSON has no Infinity
        diam = None
    ratio = diam / integral if diam is not None and integral else None
    return MonitorReport(
        name="topping_ratio",
        digest=view.digest,
        values={"diameter": diam, "integral": integral, "ratio": ratio},
        verdict=INFORMATIONAL,
        anchor="diam(M) <= c * integral |H|^{n-1} dmu (c unspecified)",
    )


def _gradient_reports(view: StateView) -> list[MonitorReport]:
    # Both sides are least-squares estimates known to +- the fit-noise floor,
    # so the check is interval-valued: flag a violation only when no values
    # inside the noise bands satisfy the inequality.  The |grad A|^2 fields
    # carry 1/length^4 units, so the floor is applied at the state's own
    # curvature scale (max|A|^2)^2, which keeps the verdict invariant under
    # parabolic rescaling; at unit radius this is the plain 1e-2 floor up to
    # an O(1) factor.
    n = view.n
    if n < 2:
        return []
    deriv = view.derivatives
    band = GRADIENT_NOISE_FLOOR * max(float(view.a2.max()), 0.0) ** 2
    out = []
    for name, lhs_arr, coeff in (
        ("gradient_a_vs_aring", deriv.grad_a2, 3.0 * n / (2.0 * (n - 1.0))),
        ("gradient_h_vs_aring", deriv.grad_h2, 3.0 * n ** 2 / (2.0 * (n - 1.0))),
    ):
        raw = lhs_arr - coeff * deriv.grad_aring2
        margin = float(((lhs_arr - band) - coeff * (deriv.grad_aring2 + band)).max())
        out.append(
            MonitorReport(
                name=name,
                digest=view.digest,
                values={
                    "coefficient": coeff,
                    "max_margin": margin,
                    "raw_margin": float(raw.max()),
                    "noise_band": band,
                },
                verdict=HOLDS if margin <= 1e-12 else VIOLATED,
                anchor=f"pointwise |grad| bound with factor {coeff:g}, "
                f"noise band +-{GRADIENT_NOISE_FLOOR:g} at curvature scale",
            )
        )
    return out


def inequality_suite(view: StateView) -> list[MonitorReport]:
    """Chen, peak-|H|^2, diameter ratio, and the two gradient inequalities."""
    return [
        _chen_report(view),
        _hmax_report(view),
        _topping_report(view),
        *_gradient_reports(view),
    ]


def moser_ratio(trace, window: tuple[float, float] | None = None) -> MonitorReport:
    """Peak |H|^2 over [T0/2, T0] against the spacetime (n+2)-integral.

    The comparison constant is unspecified (it depends on sup|A| and T0), so
    both sides and their ratio are reported without a verdict.
    """
    records = trace.records
    if not records:
        raise WindowNotCovered("empty trace")
    n = trace.intrinsic_dim
    alpha = float(n + 2)
    t_last = records[-1].t
    if window is None:
        window = (0.5 * t_last, t_last)
    lo, hi = window
    if hi > t_last + 1e-14 or records[0].t > 0.0:
        raise WindowNotCovered(f"trace [{records[0].t}, {t_last}] misses [0, {hi}]")
    in_window = [r for r in records if lo - 1e-14 <= r.t <= hi + 1e-14]
    if not in_window:
        raise WindowNotCovered("no records inside the window")
    lhs = max(r.h2_max for r in in_window)
    times = np.array([r.t for r in records])
    integrals = np.array([r.st_integral_alpha.get(alpha, np.nan) for r in records])
    if np.isnan(integrals).any():
        raise WindowNotCovered(f"trace lacks the alpha={alpha:g} accumulator")
    total = float(np.interp(hi, times, integrals))
    rhs_base = total ** (2.0 / (n + 2.0))
    return MonitorReport(
        name="moser_ratio",
        digest=_digest(lo, hi, lhs, total),
        values={
            "window": [lo, hi],
            "lhs_h2_max": lhs,
            "spacetime_integral": total,
            "rhs_base": rhs_base,
            "ratio": lhs / rhs_base if rhs_base > 0 else math.inf,
        },
        verdict=INFORMATIONAL,
        anchor="max_window |H|^2 <= C * (spacetime |H|^{n+2} integral)^{2/(n+2)}",
    )


def blowup_estimate(trace) -> dict:
    """Collapse-time prediction T_hat = t + n / (2 max|H|^2).

    Exact on shrinking spheres, where |H|^2 = n / (2 (T - t)); the stabilized
    value is the median over the last 10 records.
    """
    records = trace.records
    if not records:
        raise WindowNotCovered("empty trace")
    n = trace.intrinsic_dim
    estimates = [r.t + n / (2.0 * r.h2_max) for r in records]
    return {
        "T_hat": estimates[-1],
        "T_hat_stabilized": float(np.median(estimates[-10:])),
        "series": estimates,
    }
