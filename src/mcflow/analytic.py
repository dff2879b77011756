"""Closed-form shrinking solutions and explicit inequality machinery.

Round spheres and products of round spheres are exact solutions of the flow
with elementary radius laws, so they serve as oracles for every mesh-side
estimator.  This module also evaluates the explicit submanifold Sobolev
constants and runs the zonal-function inequality checkers by quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    NegativeTestFunction,
    PastSingularity,
    UnsupportedDimension,
    ValidationError,
)


# ---------------------------------------------------------------------------
# sphere area / ball volume constants

@lru_cache(maxsize=64)
def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit n-sphere in R^{n+1}."""
    if n < 0:
        raise ValidationError("sphere dimension must be >= 0", field="n")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit n-ball."""
    if n < 0:
        raise ValidationError("ball dimension must be >= 0", field="n")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _recurrence_tables():
    # A_1 = 2*pi, A_2 = 4*pi, A_n = 2*pi*A_{n-2}/(n-1); omega_n = A_{n-1}/n.
    area = {0: 2.0, 1: 2.0 * math.pi, 2: 4.0 * math.pi}
    for n in range(3, 17):
        area[n] = 2.0 * math.pi * area[n - 2] / (n - 1)
    ball = {n: area[n - 1] / n for n in range(1, 17)}
    return area, ball


#: gamma-free cross-check values for n <= 16 (guards constant-convention bugs)
SPHERE_AREA_TABLE, BALL_VOLUME_TABLE = _recurrence_tables()

#: the logarithm of the largest float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _log(x: float) -> float:
    """ln x for x >= 0, -inf at 0."""
    return math.log(x) if x > 0 else -math.inf


# ---------------------------------------------------------------------------
# exact scenes

def _check_closed_form(scene, field: str) -> None:
    """Reject a scene whose closed-form record at t = 0 leaves the float range
    (a dimension in the hundreds overflows the sphere area's gamma function,
    and a small radius to that power underflows the volume)."""
    try:
        st = scene.state(0.0)
        finite = all(map(math.isfinite, vars(st).values())) and st.vol > 0
    except (OverflowError, PastSingularity):
        finite = False
    if not finite:
        raise ValidationError("the closed form at t = 0 is out of float range", field=field)


@dataclass(frozen=True)
class SphereScene:
    """Round n-sphere of initial radius r0 centered at the origin of the
    coordinate (n+1)-plane of R^{n+d}."""

    n: int = 2
    d: int = 1
    r0: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("sphere intrinsic dimension must be >= 1", field="n")
        if self.d < 1:
            raise ValidationError("codimension must be >= 1", field="d")
        if not 0 < self.r0 < math.inf:
            raise ValidationError("initial radius must be positive and finite", field="r0")
        _check_closed_form(self, "n")

    @property
    def intrinsic_dim(self) -> int:
        return self.n

    @property
    def ambient_dim(self) -> int:
        return self.n + self.d

    @property
    def collapse_time(self) -> float:
        return self.r0 ** 2 / (2.0 * self.n)

    def state(self, t: float) -> SphereState:
        """Exact curvature record of the shrinking sphere at time t."""
        T = self.collapse_time
        if not 0 <= t < T:
            raise PastSingularity(f"t={t} outside [0, {T})")
        n = self.n
        r = math.sqrt(self.r0 ** 2 - 2.0 * n * t)
        return SphereState(
            r=r,
            h2=n ** 2 / r ** 2,
            a2=n / r ** 2,
            aring2=0.0,
            vol=unit_sphere_area(n) * r ** n,
            T=T,
        )

    def form_components(self, t: float) -> np.ndarray:
        """Second-fundamental-form components (1, n, n) of the one active normal
        in the canonical frame, umbilic; the other d - 1 normals are flat."""
        return (np.eye(self.n) / self.state(t).r)[None]

    def diameter(self, t: float) -> float:
        """Intrinsic diameter at time t: half a great circle."""
        return math.pi * self.state(t).r

    def spacetime_integral(self, alpha: float, t_end: float) -> float:
        """Accumulated integral of |H|^alpha over M x [0, t_end]; ValidationError
        when it leaves the float range."""
        log_value = self._log_spacetime_integral(alpha, t_end)
        if log_value >= _LOG_FLOAT_MAX:
            raise ValidationError(
                f"the spacetime integral of |H|^{alpha:g} leaves the float range", field="alpha"
            )
        if t_end == 0:
            return 0.0
        n, T = self.n, self.collapse_time
        area = unit_sphere_area(n)
        # the product rounds less than exp of the logarithm, which serves only
        # where a factor overflows
        try:
            if alpha == n + 2:
                return (n ** (n + 1) * area / 2.0) * math.log(T / (T - t_end))
            k = n - alpha + 2.0
            r = math.sqrt(self.r0 ** 2 - 2.0 * n * t_end)
            return n ** (alpha - 1) * area * r ** k * math.expm1(k * math.log(self.r0 / r)) / k
        except OverflowError:
            return math.exp(log_value)

    def _log_spacetime_integral(self, alpha: float, t_end: float) -> float:
        """Natural logarithm of ``spacetime_integral``, summed from the logarithms
        of its factors so that none overflows; -inf where the integral is 0."""
        if alpha < 1:
            raise ValidationError("alpha must be >= 1", field="alpha")
        T = self.collapse_time
        if not 0 <= t_end < T:
            raise PastSingularity(f"t_end={t_end} outside [0, {T})")
        n = self.n
        log_scale = (alpha - 1) * math.log(n) + math.log(unit_sphere_area(n))
        if alpha == n + 2:
            return log_scale + _log(0.5 * math.log(T / (T - t_end)))
        # |H| = n/r with r^2 = r0^2 - 2ns, so with k = n - alpha + 2 the integral
        # of n^alpha |S^n| r^(n - alpha) ds is n^(alpha-1) |S^n| r^k expm1(x)/k,
        # x = k ln(r0/r); x and k share a sign, and expm1 stays accurate as k -> 0
        k = n - alpha + 2.0
        r = math.sqrt(self.r0 ** 2 - 2.0 * n * t_end)
        x = k * math.log(self.r0 / r)
        log_expm1 = max(x, 0.0) + _log(-math.expm1(-abs(x)))  # ln |expm1(x)|
        return log_scale + k * math.log(r) + log_expm1 - math.log(abs(k))

    def oracle_record(self, t: float) -> dict:
        """Closed-form state at time t as a JSON-ready record; the spacetime norm
        is finite where the integral itself leaves the float range."""
        record = {"kind": "sphere", "t": t, **asdict(self.state(t))}
        alpha = self.n + 2.0
        try:
            norm = self.spacetime_integral(alpha, t) ** (1.0 / alpha)
        except ValidationError:
            norm = math.exp(self._log_spacetime_integral(alpha, t) / alpha)
        return {**record, "spacetime_norm_n_plus_2": norm}


@dataclass(frozen=True)
class SphereProductScene:
    """S^p(a0) x S^q(b0) in R^{p+q+2+extra_codim}; both factors shrink."""

    p: int = 1
    q: int = 1
    a0: float = 1.0
    b0: float = 1.0
    extra_codim: int = 0

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValidationError("factor dimensions must be >= 1", field="p")
        if not (0 < self.a0 < math.inf and 0 < self.b0 < math.inf):
            raise ValidationError("factor radii must be positive and finite", field="a0")
        if self.extra_codim < 0:
            raise ValidationError("extra_codim must be >= 0", field="extra_codim")
        _check_closed_form(self, "p")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def intrinsic_dim(self) -> int:
        return self.n

    @property
    def ambient_dim(self) -> int:
        return self.p + self.q + 2 + self.extra_codim

    @property
    def d(self) -> int:
        return self.ambient_dim - self.n

    @property
    def collapse_time(self) -> float:
        return min(self.a0 ** 2 / (2.0 * self.p), self.b0 ** 2 / (2.0 * self.q))

    def state(self, t: float) -> SphereProductState:
        """Exact curvature record of the shrinking sphere product at time t."""
        T = self.collapse_time
        if not 0 <= t < T:
            raise PastSingularity(f"t={t} outside [0, {T})")
        p, q = self.p, self.q
        a = math.sqrt(self.a0 ** 2 - 2.0 * p * t)
        b = math.sqrt(self.b0 ** 2 - 2.0 * q * t)
        h2 = (p / a) ** 2 + (q / b) ** 2
        a2 = p / a ** 2 + q / b ** 2
        return SphereProductState(
            a=a,
            b=b,
            h2=h2,
            a2=a2,
            aring2=a2 - h2 / (p + q),
            vol=unit_sphere_area(p) * a ** p * unit_sphere_area(q) * b ** q,
            T=T,
        )

    def form_components(self, t: float) -> np.ndarray:
        """Second-fundamental-form components (2, n, n) of the two factor normals
        in the canonical frame, one diagonal block each; the extra normals are flat."""
        st = self.state(t)
        h = np.zeros((2, self.n, self.n))
        h[0, : self.p, : self.p] = np.eye(self.p) / st.a
        h[1, self.p :, self.p :] = np.eye(self.q) / st.b
        return h

    def diameter(self, t: float) -> float:
        """Intrinsic diameter at time t: antipodal points in both factors."""
        st = self.state(t)
        return math.pi * math.hypot(st.a, st.b)

    def spacetime_integral(self, alpha: float, t_end: float) -> None:
        """No closed form; flow drivers accumulate the integral themselves."""
        return None

    def oracle_record(self, t: float) -> dict:
        """Closed-form state at time t as a JSON-ready record."""
        return {"kind": "sphere_product", "t": t, **asdict(self.state(t))}


@dataclass(frozen=True)
class SphereState:
    r: float
    h2: float
    a2: float
    aring2: float
    vol: float
    T: float


@dataclass(frozen=True)
class SphereProductState:
    a: float
    b: float
    h2: float
    a2: float
    aring2: float
    vol: float
    T: float


@lru_cache(maxsize=64)
def hoffman_spruck_constant(n: int, alpha: float, b_real: bool = True) -> float:
    """Explicit submanifold Sobolev constant C(n, alpha).

    ``b_real`` keeps the pi/2 prefactor required when the ambient curvature
    bound is a real number; with an imaginary bound (nonpositively curved or
    Euclidean ambient) the prefactor is dropped.
    """
    if n < 2:
        raise UnsupportedDimension("constant defined for n >= 2")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)", field="alpha")
    value = (
        2.0 ** (n - 2)
        / alpha
        * (1.0 - alpha) ** (-1.0 / n)
        * n
        / (n - 1)
        * unit_ball_volume(n) ** (-1.0 / n)
    )
    if b_real:
        value *= 0.5 * math.pi
    return value


# ---------------------------------------------------------------------------
# zonal test functions and quadrature on round spheres

MAX_ZONAL_DEGREE = 16


@dataclass(frozen=True)
class ZonalFunction:
    """Polynomial in cos(theta) on the sphere, theta the polar angle."""

    coefficients: tuple  # low degree first

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0 or len(coeffs) - 1 > MAX_ZONAL_DEGREE:
            raise ValidationError(
                f"degree must be <= {MAX_ZONAL_DEGREE}", field="coefficients"
            )
        if not all(map(math.isfinite, coeffs)):
            raise ValidationError("coefficients must be finite", field="coefficients")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def _slope(self) -> list:
        """Coefficients of dv/d(cos theta), low degree first; k * a_k are the
        products numpy.polynomial's polyder forms."""
        a = self.coefficients
        return [k * a[k] for k in range(1, len(a))]

    def _jet(self, cos, sin):
        """v and dv/dtheta = -sin(theta) v'(cos theta) at the angles with these
        cosines and sines."""
        return _horner(self.coefficients, cos), -sin * _horner(self._slope, cos)

    def value(self, theta):
        return _horner(self.coefficients, np.cos(np.asarray(theta, dtype=float)))

    __call__ = value

    def theta_derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self._jet(np.cos(theta), np.sin(theta))[1]

    def minimum(self) -> float:
        """Exact minimum over the sphere: over c = cos(theta) in [-1, 1] it
        sits at an end or at a real critical point of the polynomial."""
        critical = np.clip(_roots(self._slope).real, -1.0, 1.0)
        c = np.concatenate(([-1.0, 1.0], critical))
        return float(_horner(self.coefficients, c).min())


def _horner(coefficients, x):
    """sum_k coefficients[k] x^k (low degree first), rounded as np.polyval
    rounds it: y = y * x + c from y = 0, highest degree first."""
    y = np.zeros_like(x)
    for c in reversed(coefficients):
        y = y * x + c
    return y


def _roots(coefficients) -> np.ndarray:
    """The roots np.roots finds for sum_k coefficients[k] x^k (low degree
    first): the eigenvalues of the companion matrix of the polynomial without
    its zero leading coefficients, then one 0 per zero lowest coefficient."""
    nonzero = [k for k, c in enumerate(coefficients) if c != 0]
    if not nonzero:
        return np.zeros(0)
    low, high = nonzero[0], nonzero[-1]
    p = np.array(coefficients[low : high + 1][::-1])  # high degree first
    if len(p) > 1:
        companion = np.diag(np.ones(len(p) - 2), -1)
        companion[0] = -p[1:] / p[0]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.zeros(0)
    return np.concatenate((roots, np.zeros(low, roots.dtype)))


@lru_cache(maxsize=64)
def _zonal_rule(order: int, n: int):
    # Gauss rule in x = cos(theta) absorbing the sin^{n-1} measure, i.e.
    # Gauss-Jacobi with weight (1-x^2)^{(n-2)/2}; exact for polynomial
    # integrands, spectrally accurate otherwise.  cos and sin are taken of
    # theta, not formed from x, so that node values match v(theta) bit for bit.
    from scipy import special

    exponent = (n - 2) / 2.0
    x, w = special.roots_jacobi(order, exponent, exponent)
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    rule = theta, w, np.cos(theta), np.sin(theta)
    for a in rule:
        a.flags.writeable = False  # shared by every caller through the cache
    return rule


def _zonal_sum(values, w, r: float, n: int) -> float:
    """Integral over the n-sphere of radius r of a zonal function given by
    its values at the nodes of the rule with weights w."""
    return unit_sphere_area(n - 1) * r ** n * float(w @ values)


def zonal_integral(fn, scene: SphereScene, t: float, order: int = 64) -> float:
    """Integral over the sphere at time t of a function of the polar angle."""
    r = scene.state(t).r
    theta, w, _, _ = _zonal_rule(order, scene.n)
    return _zonal_sum(np.asarray(fn(theta), dtype=float), w, r, scene.n)


@lru_cache(maxsize=64)
def _zonal_jet(v: ZonalFunction, order: int, n: int):
    """Weights of the rule, and v and dv/dtheta at its nodes."""
    _, w, cos, sin = _zonal_rule(order, n)
    vals, dvals = v._jet(cos, sin)
    vals.flags.writeable = dvals.flags.writeable = False  # shared through the cache
    return w, vals, dvals


@dataclass(frozen=True)
class SobolevReport:
    lhs: float
    rhs: float
    holds: bool
    constant: float


_CALIBRATION_FUNCTIONS = (
    (1.0,),
    (1.0, 1.0),          # 1 + cos
    (1.0, -1.0),         # 1 - cos
    (1.0, 2.0, 1.0),     # (1 + cos)^2
    (2.0, 0.0, 0.0, 1.0),
    (1.0, 0.5, 0.0, 0.0, 0.25),
)


@lru_cache(maxsize=16)
def calibrated_sobolev_constant(n: int) -> float:
    """Smallest constant that closes the n>=3 Sobolev bound on the built-in
    battery of zonal functions and radii; informational default only."""
    if n < 3:
        raise UnsupportedDimension("calibration defined for n >= 3")
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        scene = SphereScene(n=n, r0=r)
        for coeffs in _CALIBRATION_FUNCTIONS:
            v = ZonalFunction(coeffs)
            lhs, base = _curvature_weighted_sides(n, scene.state(0.0), v, 96)
            if base > 0:
                worst = max(worst, lhs / base)
    return worst


@lru_cache(maxsize=64)
def _sobolev_integrals(n, st, v, order):
    """(lp, grad2, l2): the integrals of |v|^{2n/(n-2)}, |grad v|^2 and v^2
    over the n-sphere in state st; the checkers at one (v, t, order) share them."""
    w, vals, dvals = _zonal_jet(v, order, n)
    exponent = 2.0 * n / (n - 2.0)
    lp = _zonal_sum(np.abs(vals) ** exponent, w, st.r, n)
    grad2 = _zonal_sum((dvals / st.r) ** 2, w, st.r, n)
    l2 = _zonal_sum(vals ** 2, w, st.r, n)
    return lp, grad2, l2


def _curvature_weighted_sides(n, st, v, order):
    # returns (lhs, rhs-without-constant)
    lp, grad2, l2 = _sobolev_integrals(n, st, v, order)
    hterm = st.h2 ** ((n + 2.0) / 2.0) * st.vol
    return lp ** ((n - 2.0) / n), grad2 + hterm * l2


def sobolev_check_zonal(
    scene: SphereScene,
    t: float,
    v: ZonalFunction,
    which: str,
    s: float | None = None,
    c_n: float | None = None,
    order: int = 64,
) -> SobolevReport:
    """Evaluate both sides of one of the three sphere Sobolev inequalities.

    ``which`` selects the checker: ``hoffman_spruck`` is the L^{n/(n-1)}
    bound with the explicit constant (nonnegative v required),
    ``gradient_lower_bound`` the first-order bound with free parameter s,
    and ``curvature_weighted`` the flat-ambient inequality whose
    dimensional constant is a configuration input.
    """
    n = scene.n
    st = scene.state(t)

    if which == "curvature_weighted":
        if n < 3:
            raise UnsupportedDimension("curvature_weighted requires n >= 3")
        if c_n is not None and not math.isfinite(c_n):
            raise ValidationError("c_n must be finite", field="c_n")
        constant = calibrated_sobolev_constant(n) if c_n is None else float(c_n)
        lhs, base = _curvature_weighted_sides(n, st, v, order)
        rhs = constant * base
        return SobolevReport(lhs, rhs, lhs <= rhs * (1 + 1e-12), constant)

    if which == "gradient_lower_bound":
        if n < 3:
            raise UnsupportedDimension("gradient_lower_bound requires n >= 3")
        if s is None or not s > 0:
            raise ValidationError("gradient_lower_bound requires s > 0", field="s")
        constant = hoffman_spruck_constant(n, n / (n + 1.0), b_real=True)
        lp, lhs, l2 = _sobolev_integrals(n, st, v, order)
        h0sq = st.h2  # |H| is constant on the sphere
        bracket = lp ** ((n - 2.0) / n) / constant ** 2 - h0sq * (1.0 + 1.0 / s) * l2
        rhs = (n - 2.0) ** 2 / (4.0 * (n - 1.0) ** 2 * (1.0 + s)) * bracket
        return SobolevReport(lhs, rhs, lhs >= rhs - abs(rhs) * 1e-12, constant)

    if which == "hoffman_spruck":
        if n < 2:
            raise UnsupportedDimension("hoffman_spruck requires n >= 2")
        # sum |a_k| bounds |v| on [-1, 1] and so scales its rounding at a double root
        scale = max(sum(map(abs, v.coefficients)), 1.0)
        if v.minimum() < -1e-12 * scale:
            raise NegativeTestFunction("hoffman_spruck requires a nonnegative test function")
        constant = hoffman_spruck_constant(n, n / (n + 1.0), b_real=False)
        w, vals, dvals = _zonal_jet(v, order, n)
        lp = _zonal_sum(np.abs(vals) ** (n / (n - 1.0)), w, st.r, n)
        lhs = lp ** ((n - 1.0) / n)
        habs = math.sqrt(st.h2)
        rhs = constant * _zonal_sum(np.abs(dvals) / st.r + np.abs(vals) * habs, w, st.r, n)
        return SobolevReport(lhs, rhs, lhs <= rhs * (1 + 1e-12), constant)

    raise ValidationError(f"unknown checker {which!r}", field="which")
