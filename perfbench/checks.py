"""Correctness checks of the benchmark's outputs.

Every check compares against a closed form computed here, or against a
property the method must have; none compares against saved program output.
Each returns the measured gap (or a verdict) so that the caller decides
and the self-tests can feed deliberately wrong data.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate

# --- closed forms -----------------------------------------------------------

SPHERE_T = 0.25  # collapse time of the unit 2-sphere, r^2(t) = 1 - 4t


def sphere_area(t: float) -> float:
    """Area of the shrinking unit 2-sphere at time t."""
    return 4.0 * math.pi * (1.0 - 4.0 * t)


def sphere_h4_integral(t: float) -> float:
    """Spacetime integral of |H|^4 over [0, t] for the unit 2-sphere."""
    return 16.0 * math.pi * math.log(SPHERE_T / (SPHERE_T - t))


def circle_length(t: float) -> float:
    """Length of the shrinking unit circle, r^2(t) = 1 - 2t."""
    return 2.0 * math.pi * math.sqrt(1.0 - 2.0 * t)


def perturbed_sphere_area(amplitude: float) -> float:
    """Area of r(theta) = 1 + amplitude * Y_2^0(theta) by adaptive quadrature."""
    c = 0.25 * math.sqrt(5.0 / math.pi)

    def integrand(theta):
        r = 1.0 + amplitude * c * (3.0 * math.cos(theta) ** 2 - 1.0)
        dr = -amplitude * c * 6.0 * math.cos(theta) * math.sin(theta)
        return 2.0 * math.pi * r * math.sqrt(r * r + dr * dr) * math.sin(theta)

    value, _ = integrate.quad(integrand, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
    return value


# --- flow traces ------------------------------------------------------------

def worst_relative_gap(times, values, exact, t_min: float = -1.0) -> float:
    """Largest |value - exact(t)| / |exact(t)| over samples with t > t_min."""
    worst = 0.0
    for t, v in zip(times, values):
        if t > t_min:
            want = exact(t)
            worst = max(worst, abs(v - want) / abs(want))
    return worst


def plane_residual(vertices: np.ndarray, basis: np.ndarray) -> float:
    """Largest distance of a vertex from the span of the orthonormal ``basis``."""
    off = vertices - (vertices @ basis) @ basis.T
    return float(np.linalg.norm(off, axis=1).max())


def spacing_cv(points: np.ndarray) -> float:
    """Coefficient of variation of the segment lengths of a closed polygon."""
    seg = np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)
    return float(seg.std() / seg.mean())


def affine_dimension(points: np.ndarray, tol: float = 1e-8) -> int:
    """Number of singular values of the centred cloud above tol * largest."""
    s = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return int((s > tol * s[0]).sum())


def trace_order_faults(records) -> list[str]:
    """t must increase and the measure decrease along a flow trace."""
    faults = []
    for i, (prev, cur) in enumerate(zip(records, records[1:]), start=1):
        if not cur["t"] > prev["t"]:
            faults.append(f"t does not increase at record {i}")
        if not cur["vol"] < prev["vol"]:
            faults.append(f"volume does not decrease at record {i}")
    return faults


def parse_ndjson(text: str) -> tuple[list[dict], list[str]]:
    """Records of an NDJSON trace and the faults of lines that do not parse."""
    records, faults = [], []
    for i, line in enumerate(text.splitlines(), start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            faults.append(f"trace line {i} does not parse: {exc.msg}")
            continue
        if not isinstance(rec, dict) or not {"t", "vol"} <= rec.keys():
            faults.append(f"trace line {i} lacks t or vol")
            continue
        records.append(rec)
    return records, faults


# --- analytic records -------------------------------------------------------

def analytic_sphere_gap(records, n: int, r0: float) -> float:
    """Worst relative gap of |H|^2 = n^2 / r^2 with r^2 = r0^2 - 2nt."""
    return worst_relative_gap(
        [r["t"] for r in records],
        [r["h2_max"] for r in records],
        lambda t: n * n / (r0 * r0 - 2.0 * n * t),
    )


def analytic_product_gap(records, p: int, q: int, a0: float, b0: float) -> float:
    """Worst relative gap of |H|^2 = p^2/a^2 + q^2/b^2 on S^p(a) x S^q(b)."""
    return worst_relative_gap(
        [r["t"] for r in records],
        [r["h2_max"] for r in records],
        lambda t: p * p / (a0 * a0 - 2.0 * p * t) + q * q / (b0 * b0 - 2.0 * q * t),
    )


def oracle_sphere_gap(record: dict, n: int, r0: float, t: float) -> float:
    """Worst relative gap of an oracle record's radius, |H|^2 and collapse time."""
    r2 = r0 * r0 - 2.0 * n * t
    pairs = ((record["r"] ** 2, r2), (record["h2"], n * n / r2), (record["T"], r0 * r0 / (2 * n)))
    return max(abs(got - want) / abs(want) for got, want in pairs)


# --- check-suite reports ----------------------------------------------------

def identity_worst(reports) -> float:
    """Largest max_rel over the hard identity reports of a suite."""
    hard = [
        r["values"]["max_rel"]
        for r in reports
        if r["name"].endswith((":tracefree_trace", ":norm_decomposition"))
    ]
    if not hard:
        return math.inf
    return max(hard)


def find_report(reports, name: str) -> dict | None:
    for r in reports:
        if r["name"] == name:
            return r
    return None


class Faults:
    """Collects the failed checks of one run."""

    def __init__(self):
        self.items: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.items.append(message)

    def at_most(self, value: float, bound: float, what: str) -> None:
        self.require(value <= bound, f"{what}: {value:.3e} > {bound:.1e}")

    def at_least(self, value: float, bound: float, what: str) -> None:
        self.require(value >= bound, f"{what}: {value:.6g} < {bound:.6g}")
