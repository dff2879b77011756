"""Singularity-centered parabolic rescaling and quantitative roundness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import FundamentalForms, jet_forms
from .errors import PastSingularity, WindowNotCovered, ZeroMeanCurvature
from .mesh import DiscreteImmersion


@dataclass
class RescaledState:
    """Immersion mapped through X -> (X - center) / sqrt(2n(T_hat - t))."""

    immersion: DiscreteImmersion
    lam: float


def weighted_centroid(imm: DiscreteImmersion) -> np.ndarray:
    w = imm.vertex_weights
    return (w[:, None] * imm.vertices).sum(axis=0) / w.sum()


def estimate_center(trace) -> dict:
    """Area-weighted centroid of the latest snapshot plus convergence hints.

    ``drift`` is the spread of the last 10 snapshot centroids; the distance
    to the peak-|H|^2 vertex is logged because the true limit point is not
    constructively defined and the two proxies can disagree before the limit.
    """
    if not trace.snapshots:
        raise WindowNotCovered("trace has no snapshots")
    centroids = [weighted_centroid(s.immersion) for s in trace.snapshots[-10:]]
    center = centroids[-1]
    drift = max(float(np.linalg.norm(c - center)) for c in centroids)
    last = trace.snapshots[-1]
    peak_vertex = last.immersion.vertices[int(np.argmax(last.scalars["H2"]))]
    return {
        "center": center,
        "drift": drift,
        "distance_to_h2_peak": float(np.linalg.norm(peak_vertex - center)),
    }


def parabolic_rescale(
    imm: DiscreteImmersion, t: float, center, T_hat: float
) -> RescaledState:
    """Normalize a near-singular state to unit scale."""
    if t >= T_hat:
        raise PastSingularity(f"t={t} is not before T_hat={T_hat}")
    n = imm.intrinsic_dim
    lam = math.sqrt(2.0 * n * (T_hat - t))
    rescaled = imm.with_vertices((imm.vertices - np.asarray(center, dtype=float)) / lam)
    return RescaledState(immersion=rescaled, lam=lam)


def roundness_metrics(imm: DiscreteImmersion, forms: FundamentalForms | None = None) -> dict:
    """Distance-to-round-sphere summary of one immersion.

    ``pinch_ratio`` is the worst pointwise |Aring|^2/|H|^2 (scale invariant,
    zero exactly on round spheres), ``radial_cv`` the coefficient of
    variation of the radii about the weighted centroid, and
    ``hausdorff_to_unit_sphere`` the deviation from the unit sphere inside the
    best-fit (n+1)-plane plus the out-of-plane residual.
    """
    if forms is None:
        _, forms = jet_forms(imm)
    if (forms.h2 <= 0).any():
        raise ZeroMeanCurvature("mean curvature vanishes at some vertex")
    pinch = float((forms.aring2 / forms.h2).max())

    rel = imm.vertices - weighted_centroid(imm)
    radii = np.linalg.norm(rel, axis=1)
    radial_cv = float(radii.std() / radii.mean())

    k = imm.intrinsic_dim + 1
    _, _, vt = np.linalg.svd(rel, full_matrices=False)
    inplane = rel @ vt[:k].T
    out = rel - inplane @ vt[:k]
    hausdorff = float(
        np.abs(np.linalg.norm(inplane, axis=1) - 1.0).max()
        + np.linalg.norm(out, axis=1).max()
    )
    return {
        "pinch_ratio": pinch,
        "radial_cv": radial_cv,
        "hausdorff_to_unit_sphere": hausdorff,
    }


def subspace_dimension(points, tol: float = 1e-8) -> dict:
    """Effective affine dimension of a point cloud by PCA thresholding."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 2:
        raise ValueError("need at least two points")
    centered = points - points.mean(axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    top = singular[0]
    if top == 0:
        return {"dim": 0, "residual": 0.0}
    keep = singular > tol * top
    dim = int(keep.sum())
    residual = float(singular[dim] / top) if dim < len(singular) else 0.0
    return {"dim": dim, "residual": residual}
