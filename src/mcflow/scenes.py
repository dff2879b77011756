"""Initial-data constructors: meshed test shapes and radial perturbations."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .mesh import DiscreteImmersion


def _icosahedron():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def _subdivide(verts, faces):
    verts = list(map(np.asarray, verts))
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            verts.append(0.5 * (verts[i] + verts[j]))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.array(verts), np.array(new_faces, dtype=np.int64)


def unit_sphere_mesh(subdiv: int):
    """Icosphere vertices on the unit sphere with 10*4^subdiv + 2 vertices."""
    if subdiv < 0:
        raise ValidationError("subdiv must be >= 0", field="subdiv")
    verts, faces = _icosahedron()
    for _ in range(subdiv):
        verts, faces = _subdivide(verts, faces)
        verts = verts / np.linalg.norm(verts, axis=1)[:, None]
    return verts, faces


def icosphere(
    subdiv: int = 3,
    r0: float = 1.0,
    center=None,
    ambient_dim: int = 3,
    subspace=None,
) -> DiscreteImmersion:
    """Triangulated round sphere, optionally embedded in a larger ambient space."""
    if not (math.isfinite(r0) and r0 > 0):
        raise ValidationError("radius must be positive and finite", field="r0")
    verts, faces = unit_sphere_mesh(subdiv)
    verts = verts * r0
    verts = _embed(verts, ambient_dim, subspace, center)
    return DiscreteImmersion(vertices=verts, elements=faces, intrinsic_dim=2)


def ellipsoid(semi_axes, subdiv: int = 3) -> DiscreteImmersion:
    """Icosphere in R^3 stretched to the given semi-axes; ``embed_immersion``
    maps it into a larger ambient space."""
    axes = np.asarray(semi_axes, dtype=float)
    if axes.shape != (3,) or not (axes > 0).all():
        raise ValidationError("semi_axes must be three positive lengths", field="semi_axes")
    verts, faces = unit_sphere_mesh(subdiv)
    return DiscreteImmersion(vertices=verts * axes, elements=faces, intrinsic_dim=2)


def polygon_circle(
    segments: int = 128,
    r0: float = 1.0,
    center=None,
    ambient_dim: int = 2,
    subspace=None,
    angles=None,
) -> DiscreteImmersion:
    """Closed polygon inscribed in a circle; ``angles`` overrides uniform spacing."""
    if segments < 3:
        raise ValidationError("need at least 3 segments", field="segments")
    if not (math.isfinite(r0) and r0 > 0):
        raise ValidationError("radius must be positive and finite", field="r0")
    if angles is None:
        angles = 2.0 * np.pi * np.arange(segments) / segments
    else:
        angles = np.asarray(angles, dtype=float)
        segments = len(angles)
    verts = np.column_stack([r0 * np.cos(angles), r0 * np.sin(angles)])
    verts = _embed(verts, ambient_dim, subspace, center)
    elements = np.column_stack(
        [np.arange(segments), (np.arange(segments) + 1) % segments]
    ).astype(np.int64)
    return DiscreteImmersion(vertices=verts, elements=elements, intrinsic_dim=1)


def clifford_torus(
    a0: float = 1.0,
    b0: float = 1.0,
    resolution: int = 64,
    extra_codim: int = 0,
) -> DiscreteImmersion:
    """S^1(a0) x S^1(b0) in R^4 as a triangulated parameter grid."""
    for field, r in (("a0", a0), ("b0", b0)):
        if not (math.isfinite(r) and r > 0):
            raise ValidationError("torus radii must be positive and finite", field=field)
    if resolution < 3:
        raise ValidationError("resolution must be >= 3", field="resolution")
    if extra_codim < 0:
        raise ValidationError("extra_codim must be >= 0", field="extra_codim")
    m = resolution
    phi = 2.0 * np.pi * np.arange(m) / m
    psi = 2.0 * np.pi * np.arange(m) / m
    pp, ss = np.meshgrid(phi, psi, indexing="ij")
    verts = np.column_stack(
        [
            (a0 * np.cos(pp)).ravel(),
            (a0 * np.sin(pp)).ravel(),
            (b0 * np.cos(ss)).ravel(),
            (b0 * np.sin(ss)).ravel(),
        ]
    )
    if extra_codim:
        verts = np.column_stack([verts, np.zeros((verts.shape[0], extra_codim))])

    def vid(i, j):
        return (i % m) * m + (j % m)

    faces = []
    for i in range(m):
        for j in range(m):
            faces.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            faces.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return DiscreteImmersion(
        vertices=verts, elements=np.array(faces, dtype=np.int64), intrinsic_dim=2
    )


def _embed(verts, ambient_dim, subspace, center):
    base_dim = verts.shape[1]
    if subspace is not None:
        q = np.asarray(subspace, dtype=float)
        if q.shape != (ambient_dim, base_dim):
            raise ValidationError(
                f"embed frame must be ({ambient_dim} x {base_dim})", field="subspace"
            )
        if not np.allclose(q.T @ q, np.eye(base_dim), atol=1e-10):
            raise ValidationError("embed frame must be orthonormal", field="subspace")
        verts = verts @ q.T
    elif ambient_dim > base_dim:
        verts = np.column_stack([verts, np.zeros((verts.shape[0], ambient_dim - base_dim))])
    elif ambient_dim != base_dim:
        raise ValidationError("ambient dimension too small", field="ambient_dim")
    if center is not None:
        c = np.asarray(center, dtype=float)
        if c.shape != (verts.shape[1],):
            raise ValidationError("center has wrong dimension", field="center")
        verts = verts + c
    return verts


def embed_immersion(
    imm: DiscreteImmersion, ambient_dim: int, subspace=None, center=None
) -> DiscreteImmersion:
    """Map an immersion into a larger ambient space via an orthonormal frame."""
    verts = _embed(imm.vertices, ambient_dim, subspace, center)
    return imm.with_vertices(verts)


def real_spherical_harmonic(degree: int, order: int, theta, phi):
    """Real-valued Y_lm on S^2 (theta polar, phi azimuthal)."""
    from scipy import special

    m = abs(order)
    try:
        y = special.sph_harm_y(degree, m, theta, phi)
    except AttributeError:  # scipy < 1.15
        y = special.sph_harm(m, degree, phi, theta)
    if order == 0:
        return np.real(y)
    if order > 0:
        return math.sqrt(2.0) * (-1.0) ** m * np.real(y)
    return math.sqrt(2.0) * (-1.0) ** m * np.imag(y)


def perturb_radially(imm: DiscreteImmersion, modes) -> DiscreteImmersion:
    """Scale each vertex radius about the origin by 1 + sum of harmonic modes.

    ``modes`` is a list of (degree, order, amplitude); Fourier modes on
    curves (order ignored sign: cos for order >= 0, sin otherwise).
    The summed amplitude must stay below 0.3 of the minimum radius factor.
    """
    total = sum(abs(m[2]) for m in modes)
    if not total < 0.3:
        raise ValidationError(
            "perturbation amplitude must stay below 0.3 of the radius", field="modes"
        )
    x = imm.vertices
    # polar/azimuthal angles from the first three embedding coordinates
    phi = np.arctan2(x[:, 1], x[:, 0])
    factor = np.ones(imm.num_vertices)
    if imm.intrinsic_dim == 2:
        theta = np.arccos(np.clip(x[:, 2] / np.linalg.norm(x, axis=1), -1.0, 1.0))
        for degree, order, amp in modes:
            factor += amp * real_spherical_harmonic(int(degree), int(order), theta, phi)
    else:
        for degree, order, amp in modes:
            factor += amp * (np.cos(degree * phi) if order >= 0 else np.sin(degree * phi))
    return imm.with_vertices(x * factor[:, None])
