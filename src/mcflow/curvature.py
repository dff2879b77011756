"""Curvature estimation on discrete immersions.

The full normal-bundle-valued second fundamental form is recovered by a
moving-least-squares quadratic fit of the neighborhood in a per-vertex
orthonormal frame; this is the only discretization that works uniformly in
arbitrary codimension.  Covariant derivatives come from transporting the
neighbor tensors to the center frame by the smallest rotation between
tangent planes and fitting a linear model, which keeps frame twist out of
the residuals.

Frames are gauge-dependent; every exported quantity is either a
gauge-invariant scalar field or an ambient vector.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitIllConditioned,
    FitUnderdetermined,
    NeighborhoodRankDeficient,
    UnsupportedDimension,
)
from .mesh import RING, DiscreteImmersion, angle_defects

#: conditioning threshold on the normal equations of the local fits
CONDITION_LIMIT = 1e12

#: the Cholesky screen of the fits clears a Gram only when its bounded
#: condition number is this fraction of CONDITION_LIMIT or less
_SCREEN_MARGIN = 0.5

#: (vertex, neighbor) pairs transported per block in derivative_data; blocks
#: bound the transient memory and leave every pair's arithmetic unchanged
_PAIR_BLOCK = 4096

#: vertices per block of the local fits: bounds each block's transient memory
#: and is the unit of parallel work; every vertex's arithmetic is the same in
#: any block, so the fits are bit-identical however the mesh is split
_VERTEX_BLOCK = 1024

_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    """The fit threads, one per CPU this process may use, made on first use;
    None when the process may use one CPU only."""
    global _pool
    with _pool_lock:
        if _pool is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # a platform without CPU affinity
                workers = os.cpu_count() or 1
            if workers < 2:
                return None
            # imported here: concurrent.futures loads logging
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(workers, thread_name_prefix="mcflow-fit")
        return _pool


def _by_blocks(fn, nv, count=None, step=None):
    """Run ``fn(block)`` for the consecutive slices ``block`` of ``range(count)``
    (default ``nv``), ``step`` (default ``_VERTEX_BLOCK``) long, and return the
    arrays it returns, each filled in over the whole range.

    On a mesh of ``nv`` > ``_VERTEX_BLOCK`` vertices the blocks run on the fit
    threads (numpy's batched linear algebra and ufuncs release the GIL),
    otherwise in order in the calling thread; the first exception in block
    order propagates.  One block's arrays are returned as they are.  With more
    blocks each array is allocated when the first block returns and every
    block's part is copied in, in block order: nothing is concatenated.
    ``fn`` reads no cached property (``cached_property`` takes no lock) and
    calls no public function, whose wrappers may keep state of the calling
    thread, such as a stack of timing spans.
    """
    count = nv if count is None else count
    step = step or _VERTEX_BLOCK
    blocks = [slice(i, min(i + step, count)) for i in range(0, count, step)]
    if len(blocks) == 1:
        return fn(blocks[0])
    pool = _executor() if nv > _VERTEX_BLOCK else None
    whole = None
    for block, parts in zip(blocks, map(fn, blocks) if pool is None else pool.map(fn, blocks)):
        if whole is None:
            whole = tuple(np.empty((count, *a.shape[1:]), a.dtype) for a in parts)
        for into, part in zip(whole, parts):
            into[block] = part
    return whole


@dataclass
class FrameField:
    """Per-vertex orthonormal frames and the ring-``RING`` stencil in them.

    ``tangent`` (V, n, D) and ``normal`` (V, d, D) are the frames; ``idx`` and
    ``mask`` (V, m) the padded ring neighborhoods, each vertex first.  The
    neighbor offsets in the frames, ``u`` (V, m, n) and ``w`` (V, m, d), are
    divided by the local length scale ``sigma`` (V,), the mean distance to the
    other neighbors (keeps fits scale-covariant and well conditioned);
    ``theta`` (V, m) are the Gaussian fit weights, zero on padding.
    """

    tangent: np.ndarray
    normal: np.ndarray
    idx: np.ndarray
    mask: np.ndarray
    u: np.ndarray
    w: np.ndarray
    theta: np.ndarray
    sigma: np.ndarray


@dataclass
class FundamentalForms:
    """Second fundamental form and derived curvature fields.

    ``h`` are the components (V, d, n, n) in the frame (the metric is the
    identity there), ``mean_curvature`` the ambient H vectors, ``aring`` the
    tracefree part.  Scalars carry 1/length^2 units.
    """

    h: np.ndarray
    mean_curvature: np.ndarray
    aring: np.ndarray
    a2: np.ndarray
    h2: np.ndarray
    aring2: np.ndarray


@dataclass
class DerivativeData:
    """First covariant derivative components h_k[v, alpha, i, j, k] and norms."""

    h_k: np.ndarray
    grad_a2: np.ndarray
    grad_h2: np.ndarray
    grad_aring2: np.ndarray


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    """Deterministic gauge: first significant component of each vector positive.

    Significance cutoff keeps the convention stable under rotations that
    leave near-zero components in floating-point noise.
    """
    flat = basis.reshape(-1, basis.shape[-1])
    significant = np.abs(flat) > 1e-8
    first = np.argmax(significant, axis=1)
    signs = np.sign(flat[np.arange(flat.shape[0]), first])
    signs[signs == 0] = 1.0
    return (flat * signs[:, None]).reshape(basis.shape)


def build_frames(imm: DiscreteImmersion) -> FrameField:
    """Tangent/normal frames from PCA of the centered ring neighborhoods, and
    the neighborhoods in those frames."""
    n, dim = imm.intrinsic_dim, imm.ambient_dim
    vertices = imm.vertices
    idx, mask = imm.topology.ring_neighborhoods
    counts = mask.sum(axis=1)
    if counts.min() < n + 1:
        raise NeighborhoodRankDeficient("neighborhood smaller than n+1 points")

    def block_frames(block):
        pts = vertices[idx[block]]
        inside = mask[block, :, None].astype(float)
        size = counts[block]
        mean = (pts * inside).sum(axis=1) / size[:, None]
        centered = (pts - mean[:, None, :]) * inside
        cov = np.swapaxes(centered, 1, 2) @ centered / size[:, None, None]

        eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
        del inside, centered  # bound the peak: the stencil below is as large
        top = eigvals[:, -1]
        kth = eigvals[:, -n]
        deficient = kth <= 1e-13 * np.maximum(top, 1e-300)

        tangent = _fix_signs(np.swapaxes(eigvecs[:, :, dim - n :], 1, 2)[:, ::-1, :])
        normal = _fix_signs(np.swapaxes(eigvecs[:, :, : dim - n], 1, 2)[:, ::-1, :])

        delta = np.subtract(pts, vertices[block, None, :], out=pts)  # the gather, reused
        dist = np.linalg.norm(delta, axis=2)
        others = mask[block].copy()
        others[:, 0] = False  # exclude the center itself from the scale
        sigma = (dist * others).sum(axis=1) / np.maximum(others.sum(axis=1), 1)
        sigma = np.maximum(sigma, 1e-300)
        u = delta @ np.swapaxes(tangent, 1, 2) / sigma[:, None, None]
        w = delta @ np.swapaxes(normal, 1, 2) / sigma[:, None, None]
        theta = np.exp(-((dist / sigma[:, None]) ** 2)) * mask[block]
        return deficient, tangent, normal, u, w, theta, sigma

    deficient, tangent, normal, u, w, theta, sigma = _by_blocks(block_frames, len(idx))
    if deficient.any():
        raise NeighborhoodRankDeficient(
            f"rank-deficient neighborhood at vertex {int(np.argmax(deficient))}"
        )
    return FrameField(
        tangent=tangent, normal=normal, idx=idx, mask=mask, u=u, w=w, theta=theta, sigma=sigma
    )


def _quadratic_basis(u: np.ndarray, n: int) -> np.ndarray:
    """Design rows [1, u_a, u_a^2/2 (a=a), u_a u_b (a<b)] for u of shape (..., n)."""
    cols = [np.ones(u.shape[:-1])]
    for a in range(n):
        cols.append(u[..., a])
    for a in range(n):
        cols.append(0.5 * u[..., a] ** 2)
    for a in range(n):
        for b in range(a + 1, n):
            cols.append(u[..., a] * u[..., b])
    return np.stack(cols, axis=-1)


def _ill_conditioned(gram: np.ndarray) -> np.ndarray:
    """Flags of the symmetric Grams (V, K, K) that are not positive definite or
    whose condition number exceeds CONDITION_LIMIT, as ``eigvalsh`` decides.

    A batched Cholesky gives det G, and the Hong-Pan bound
    lambda_min >= det G * ((K-1) / |G|_F^2)^((K-1)/2), with lambda_max <= |G|_F,
    clears every Gram whose bounded condition number stays under
    ``_SCREEN_MARGIN * CONDITION_LIMIT``; the margin covers the rounding of the
    determinant and of ``eigvalsh`` itself.  Only the Grams the bound cannot
    clear (all of them if a factorization fails) go to ``eigvalsh``.
    """
    k = gram.shape[-1]
    unclear = np.ones(len(gram), dtype=bool)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        pass
    else:
        log_fro = 0.5 * np.log(np.einsum("vkl,vkl->v", gram, gram))
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        log_lo = log_det + 0.5 * (k - 1) * (np.log(k - 1) - 2.0 * log_fro)
        unclear = ~(log_fro - log_lo <= np.log(_SCREEN_MARGIN * CONDITION_LIMIT))
    bad = np.zeros(len(gram), dtype=bool)
    if unclear.any():
        eig = np.linalg.eigvalsh(gram[unclear])
        lo, hi = eig[:, 0], eig[:, -1]
        bad[unclear] = (lo <= 0) | (hi > CONDITION_LIMIT * np.maximum(lo, 1e-300))
    return bad


def _weighted_lstsq(system, theta, k, what):
    """Batched weighted least squares with conditioning checks, in vertex blocks.

    ``system(block)`` gives the design (B, m, k) and right-hand sides (B, m, R)
    of the vertices ``block``, whose weights are ``theta[block]`` (B, m);
    returns the coefficients (V, k, R).  The checks raise in the calling
    thread, in the order and with the messages of one fit of the whole mesh.
    """
    counts = (theta > 0).sum(axis=1)
    if counts.min() < k:
        raise FitUnderdetermined(
            f"{what}: vertex {int(np.argmin(counts))} has {int(counts.min())} "
            f"samples for {k} coefficients"
        )

    def block_fit(block):
        design, rhs = system(block)
        wd_t = np.swapaxes(design * theta[block, :, None], 1, 2)
        gram = wd_t @ design
        bad = _ill_conditioned(gram)
        if bad.any():  # no solve: the caller raises
            return bad, np.empty((len(gram), k, rhs.shape[2]))
        return bad, np.linalg.solve(gram, wd_t @ rhs)

    bad, coeffs = _by_blocks(block_fit, len(theta))
    if bad.any():
        raise FitIllConditioned(
            f"{what}: normal equations condition number exceeds {CONDITION_LIMIT:g} "
            f"at vertex {int(np.argmax(bad))}"
        )
    return coeffs


def second_fundamental_form(imm: DiscreteImmersion, frames: FrameField) -> FundamentalForms:
    """Moving-least-squares quadratic fit of the normal graph at each vertex.

    The quadratic coefficient matrices are the h^alpha components; H is their
    trace assembled on the normal frame, which points toward the center on a
    sphere so that the flow shrinks it.
    """
    n = imm.intrinsic_dim
    d = imm.codim

    def system(block):
        return _quadratic_basis(frames.u[block], n), frames.w[block]

    coeffs = _weighted_lstsq(system, frames.theta, 1 + n + n * (n + 1) // 2, "jet fit")

    nv = imm.num_vertices
    h = np.zeros((nv, d, n, n))
    pos = 1 + n
    for a in range(n):
        h[:, :, a, a] = coeffs[:, pos, :]
        pos += 1
    for a in range(n):
        for b in range(a + 1, n):
            h[:, :, a, b] = h[:, :, b, a] = coeffs[:, pos, :]
            pos += 1
    h /= frames.sigma[:, None, None, None]

    trace = np.einsum("vkaa->vk", h)
    return tracefree_decompose(h, np.einsum("vk,vkd->vd", trace, frames.normal))


def tracefree_decompose(
    h: np.ndarray, mean_curvature: np.ndarray | None = None
) -> FundamentalForms:
    """Forms of the components h (V, d, n, n), with the tracefree part
    aring = h - (trace/n) * identity and the squared norms."""
    n = h.shape[2]
    trace = np.einsum("vkaa->vk", h)
    aring = h - trace[:, :, None, None] * np.eye(n) / n
    return FundamentalForms(
        h=h,
        mean_curvature=mean_curvature,
        aring=aring,
        aring2=np.einsum("vkab,vkab->v", aring, aring),
        a2=np.einsum("vkab,vkab->v", h, h),
        h2=np.einsum("vk,vk->v", trace, trace),
    )


def _minimal_rotation_transport(tan_v, nor_v, tan_j, nor_j):
    """Tangent/normal transition matrices of the smallest rotation taking each
    neighbor tangent plane onto its center tangent plane, stacked over pairs.

    Frames carry a leading pair axis: tan_* (P, n, D), nor_* (P, d, D).
    Returns (tau, nu): tau[p, l, i] = <R t_i^(j), t_l^(v)>, nu[p, b, a]
    likewise for the normal frames.  Both are in closed form.  With the SVD
    C = T_v T_j^T = U S V^T, R takes the principal vectors V^T T_j onto
    U^T T_v, so tau = U V^T, the polar factor of C.  On the normal frames R
    differs from the identity by a rank-n term:
    nu = N_v N_j^T - (N_v T_j^T) (tau + C)^-1 (T_v N_j^T), and
    (tau + C)^-1 = V (I + S)^-1 U^T is never singular, as S lies in [0, 1].
    """
    tan_jt, nor_jt = np.swapaxes(tan_j, 1, 2), np.swapaxes(nor_j, 1, 2)
    uu, cos, vt = np.linalg.svd(tan_v @ tan_jt)
    inverse = np.swapaxes(vt, 1, 2) / (1.0 + cos)[:, None, :] @ np.swapaxes(uu, 1, 2)
    nu = nor_v @ nor_jt - (nor_v @ tan_jt) @ inverse @ (tan_v @ nor_jt)
    return uu @ vt, nu


def derivative_data(
    imm: DiscreteImmersion, frames: FrameField, forms: FundamentalForms
) -> DerivativeData:
    """Least-squares estimate of the first covariant derivative of the form.

    Neighbor components are parallel-transported to the center frame before
    fitting an affine model in the tangent coordinates; the slopes are the
    h^alpha_ijk.  The transport runs over all (vertex, neighbor) pairs at once,
    in blocks of ``_PAIR_BLOCK`` pairs to bound the transient memory, and the
    fit in vertex blocks.
    """
    n = imm.intrinsic_dim
    d = imm.codim
    nv = imm.num_vertices
    idx, mask, sigma = frames.idx, frames.mask, frames.sigma
    width = idx.shape[1]

    # transported components, flattened over (alpha, i<=j)
    rows, cols = np.triu_indices(n)
    ncomp = d * len(rows)
    rhs = np.zeros((nv, width, ncomp))
    rhs[:, 0] = forms.h[:, :, rows, cols].reshape(nv, ncomp)  # each stencil row starts at v
    pv, pm = np.nonzero(mask[:, 1:])

    def transport(block):
        v, m_i = pv[block], pm[block] + 1
        j = idx[v, m_i]
        tau, nu = _minimal_rotation_transport(
            frames.tangent[v], frames.normal[v], frames.tangent[j], frames.normal[j]
        )
        hj = np.einsum("pba,pli,pmk,paik->pblm", nu, tau, tau, forms.h[j])
        rhs[v, m_i] = hj[:, :, rows, cols].reshape(-1, ncomp)
        return ()  # each block fills its own pairs of rhs

    _by_blocks(transport, nv, len(pv), _PAIR_BLOCK)

    # affine model in normalized coordinates; slope recovers the derivative
    def system(block):
        u = frames.u[block]
        design = np.concatenate([np.ones((len(u), width, 1)), u], axis=2)
        return design, rhs[block] * sigma[block, None, None]

    coeffs = _weighted_lstsq(system, frames.theta, 1 + n, "derivative fit")
    slopes = coeffs[:, 1:, :] / (sigma ** 2)[:, None, None]

    h_k = np.zeros((nv, d, n, n, n))
    by_component = np.moveaxis(slopes.reshape(nv, n, d, len(rows)), 1, -1)
    h_k[:, :, rows, cols] = by_component
    h_k[:, :, cols, rows] = by_component

    grad_a2 = np.einsum("vaijk,vaijk->v", h_k, h_k)
    hk_trace = np.einsum("vaiik->vak", h_k)
    grad_h2 = np.einsum("vak,vak->v", hk_trace, hk_trace)
    aring_k = h_k - hk_trace[:, :, None, None, :] * (np.eye(n) / n)[None, None, :, :, None]
    grad_aring2 = np.einsum("vaijk,vaijk->v", aring_k, aring_k)
    return DerivativeData(
        h_k=h_k, grad_a2=grad_a2, grad_h2=grad_h2, grad_aring2=grad_aring2
    )


def codazzi_residual(deriv: DerivativeData) -> np.ndarray:
    """Per-vertex max over alpha,i,j,k of |h_ijk - h_ikj| (zero in the limit)."""
    diff = np.abs(deriv.h_k - np.swapaxes(deriv.h_k, 3, 4))
    return diff.reshape(diff.shape[0], -1).max(axis=1)


def gauss_residual(imm: DiscreteImmersion, forms: FundamentalForms) -> np.ndarray:
    """Intrinsic sectional curvature minus the extrinsic form product.

    For n=2 the intrinsic side is the angle defect over the barycentric
    vertex area; curves are intrinsically flat and return zeros.
    """
    n = imm.intrinsic_dim
    if n == 1:
        return np.zeros(imm.num_vertices)
    if n != 2:
        raise UnsupportedDimension("structural residual defined for n in {1, 2}")
    intrinsic = angle_defects(imm) / imm.vertex_weights
    h = forms.h
    extrinsic = (h[:, :, 0, 0] * h[:, :, 1, 1] - h[:, :, 0, 1] ** 2).sum(axis=1)
    return intrinsic - extrinsic


def jet_forms(imm: DiscreteImmersion) -> tuple[FrameField, FundamentalForms]:
    """Convenience pipeline: frames then second fundamental form."""
    frames = build_frames(imm)
    return frames, second_fundamental_form(imm, frames)
