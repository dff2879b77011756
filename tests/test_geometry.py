import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import random_rotation
from mcflow import curvature
from mcflow.curvature import (
    CONDITION_LIMIT,
    RING,
    _fix_signs,
    _ill_conditioned,
    _minimal_rotation_transport,
    _quadratic_basis,
    _weighted_lstsq,
    build_frames,
    codazzi_residual,
    derivative_data,
    gauss_residual,
    jet_forms,
    second_fundamental_form,
    tracefree_decompose,
)
from mcflow.errors import (
    DegenerateElement,
    FitIllConditioned,
    FitUnderdetermined,
    InvalidImmersion,
    NeighborhoodRankDeficient,
    ValidationError,
)
from mcflow.mesh import (
    DiscreteImmersion,
    angle_defects,
    read_snapshot,
    write_snapshot,
)
from mcflow.scenes import (
    MAX_VERTICES,
    clifford_torus,
    ellipsoid,
    embed_immersion,
    icosphere,
    perturb_radially,
    polygon_circle,
)


def grid_patch(m=6, jitter=0.0, seed=0):
    """Open triangulated square patch in the z=0 plane of R^3."""
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.linspace(0, 1, m), np.linspace(0, 1, m), indexing="ij")
    verts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(m * m)])
    if jitter:
        verts[:, :2] += jitter * rng.uniform(-1, 1, (m * m, 2)) / m
    faces = []
    for i in range(m - 1):
        for j in range(m - 1):
            a = i * m + j
            b = (i + 1) * m + j
            faces.append([a, b, b + 1])
            faces.append([a, b + 1, a + 1])
    return DiscreteImmersion(
        vertices=verts, elements=np.array(faces, dtype=np.int64), intrinsic_dim=2, closed=False
    )


def collinear_polyline(k=7):
    verts = np.column_stack([np.linspace(0.0, 1.0, k), np.zeros(k)])
    segs = np.column_stack([np.arange(k - 1), np.arange(1, k)]).astype(np.int64)
    return DiscreteImmersion(vertices=verts, elements=segs, intrinsic_dim=1, closed=False)


def collapsed_first_triangle(imm):
    """Vertices of ``imm`` with its first triangle folded onto an edge."""
    verts = imm.vertices.copy()
    a, b, c = imm.elements[0]
    verts[c] = 0.5 * (verts[a] + verts[b])
    return verts


SQUARE = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])


class TestValidation:
    def test_bad_index(self):
        with pytest.raises(InvalidImmersion):
            DiscreteImmersion(
                vertices=np.zeros((3, 2)) + np.eye(3, 2),
                elements=np.array([[0, 5]]),
                intrinsic_dim=1,
            )

    def test_unreferenced_vertex(self):
        verts = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        with pytest.raises(InvalidImmersion):
            DiscreteImmersion(
                vertices=verts, elements=np.array([[0, 1], [1, 2]]), intrinsic_dim=1
            )

    def test_closed_curve_requires_cycles(self):
        verts = np.array([[0.0, 0], [1, 0], [1, 1]])
        open_segs = np.array([[0, 1], [1, 2]])
        with pytest.raises(InvalidImmersion):
            DiscreteImmersion(vertices=verts, elements=open_segs, intrinsic_dim=1, closed=True)
        DiscreteImmersion(vertices=verts, elements=open_segs, intrinsic_dim=1, closed=False)

    def test_degenerate_element(self):
        verts = np.array([[0.0, 0], [1, 0], [1 + 1e-12, 0], [0, 1]])
        segs = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        with pytest.raises(DegenerateElement):
            DiscreteImmersion(vertices=verts, elements=segs, intrinsic_dim=1)

    @pytest.mark.parametrize(
        "base,verts,error",
        [
            (polygon_circle(segments=4), SQUARE[:3], InvalidImmersion),
            (polygon_circle(segments=4), np.vstack([SQUARE, [[2.0, 2.0]]]), InvalidImmersion),
            (polygon_circle(segments=4), SQUARE + [0.0, np.nan], InvalidImmersion),
            (polygon_circle(segments=4), SQUARE + [np.inf, 0.0], InvalidImmersion),
            (
                polygon_circle(segments=4),
                np.array([[0.0, 0], [1, 0], [1 + 1e-12, 0], [0, 1]]),
                DegenerateElement,
            ),
            (icosphere(subdiv=1), collapsed_first_triangle(icosphere(subdiv=1)), DegenerateElement),
        ],
        ids=["too_few", "too_many", "nan", "inf", "collapsed_segment", "collapsed_triangle"],
    )
    def test_with_vertices_raises_what_construction_raises(self, base, verts, error):
        # the per-step geometry re-check keeps the types and messages of the
        # full validation of a fresh immersion
        with pytest.raises(error) as fresh:
            DiscreteImmersion(
                vertices=verts, elements=base.elements, intrinsic_dim=base.intrinsic_dim
            )
        with pytest.raises(error) as stepped:
            base.with_vertices(verts)
        assert str(stepped.value) == str(fresh.value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: icosphere(subdiv=1, r0=math.nan),
            lambda: icosphere(subdiv=-1),
            lambda: polygon_circle(segments=8, r0=math.nan),
            lambda: ellipsoid([1.0, math.nan, 1.0], subdiv=1),
            lambda: clifford_torus(math.nan, 1.0, resolution=8),
            lambda: clifford_torus(resolution=8, extra_codim=-1),
            lambda: perturb_radially(icosphere(subdiv=1), [(2, 0, math.nan)]),
            lambda: ellipsoid([1.0, math.inf, 1.0], subdiv=1),
            # sizes above MAX_VERTICES vertices or 8 * MAX_VERTICES coordinates,
            # rejected before anything is allocated
            lambda: icosphere(subdiv=9),
            lambda: polygon_circle(segments=MAX_VERTICES + 1),
            lambda: clifford_torus(resolution=1025),
            lambda: clifford_torus(resolution=8, extra_codim=2**17),
            lambda: embed_immersion(icosphere(subdiv=1), 2**18),
        ],
        ids=[
            "nan_radius",
            "negative_subdiv",
            "nan_circle_radius",
            "nan_semi_axis",
            "nan_torus_radius",
            "negative_extra_codim",
            "nan_amplitude",
            "inf_semi_axis",
            "subdiv_9",
            "segments_above_ceiling",
            "resolution_1025",
            "torus_extra_codim_2_17",
            "ambient_dim_2_18",
        ],
    )
    def test_scene_constructors_check_their_values(self, build):
        with pytest.raises(ValidationError):
            build()

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: icosphere(subdiv=1, r0=math.inf), "r0"),
            (lambda: polygon_circle(segments=8, r0=math.inf), "r0"),
            (lambda: clifford_torus(math.inf, 1.0, resolution=8), "a0"),
            (lambda: clifford_torus(1.0, math.inf, resolution=8), "b0"),
        ],
        ids=["icosphere", "polygon_circle", "clifford_torus_a0", "clifford_torus_b0"],
    )
    def test_infinite_radius_names_its_field(self, build, field):
        with pytest.raises(ValidationError) as info:
            build()
        assert info.value.field == field

    @pytest.mark.parametrize(
        "base, degree, order",
        [(icosphere(subdiv=1), 5, -5), (polygon_circle(segments=16), 7, -1)],
        ids=["surface", "curve"],
    )
    def test_perturbation_takes_the_highest_degree_the_mesh_samples(self, base, degree, order):
        # (l+1)^2 = 36 <= 42 vertices on the surface, 2k+1 = 15 <= 16 on the curve
        perturb_radially(base, [(degree, order, 0.05)])
        with pytest.raises(ValidationError) as info:
            perturb_radially(base, [(degree + 1, order, 0.05)])
        assert info.value.field == "modes"

    def test_inconsistent_orientation(self):
        imm = icosphere(subdiv=1)
        flipped = imm.elements.copy()
        flipped[0] = flipped[0][::-1]
        with pytest.raises(InvalidImmersion):
            DiscreteImmersion(vertices=imm.vertices, elements=flipped, intrinsic_dim=2)


class TestTopology:
    def test_with_vertices_shares_topology(self):
        imm = icosphere(subdiv=1)
        moved = imm.with_vertices(2.0 * imm.vertices)
        assert moved.topology is imm.topology
        assert moved.transformed(translation=[1.0, 0.0, 0.0]).topology is imm.topology
        assert embed_immersion(moved, 5).topology is imm.topology

    @pytest.mark.parametrize("ring", [RING])  # the one stencil radius the fits read
    @pytest.mark.parametrize(
        "build",
        [
            lambda: icosphere(subdiv=3),
            lambda: clifford_torus(resolution=16),
            lambda: polygon_circle(segments=64, ambient_dim=4),
            lambda: _two_cycles(),
        ],
        ids=["icosphere3", "clifford16", "64gon_r4", "two_cycles"],
    )
    def test_rings_match_breadth_first_search(self, build, ring):
        imm = build()
        idx, mask = imm.topology.ring_neighborhoods
        ref_idx, ref_mask = _bfs_rings(imm.topology.edges, imm.num_vertices, ring)
        assert idx.dtype == ref_idx.dtype and mask.dtype == ref_mask.dtype
        assert np.array_equal(idx, ref_idx) and np.array_equal(mask, ref_mask)
        assert imm.topology.ring_neighborhoods[0] is idx


def _two_cycles():
    """A 12-gon and a 9-gon, disjoint, in one immersion of R^3."""
    a = polygon_circle(segments=12, ambient_dim=3)
    b = polygon_circle(segments=9, r0=0.5, ambient_dim=3, center=[0.0, 0.0, 2.0])
    return DiscreteImmersion(
        vertices=np.vstack([a.vertices, b.vertices]),
        elements=np.vstack([a.elements, b.elements + a.num_vertices]),
        intrinsic_dim=1,
    )


def _bfs_rings(edges, nv, ring):
    """Reference ring neighborhoods by a per-vertex breadth-first search."""
    neighbors = [[] for _ in range(nv)]
    for a, b in edges:
        neighbors[a].append(int(b))
        neighbors[b].append(int(a))
    rows = []
    for v in range(nv):
        seen, frontier, ordered = {v}, [v], [v]
        for _ in range(ring):
            nxt = sorted({w for u in frontier for w in neighbors[u]} - seen)
            seen.update(nxt)
            ordered.extend(nxt)
            frontier = nxt
        rows.append(ordered)
    width = max(len(r) for r in rows)
    idx = np.empty((nv, width), dtype=np.int64)
    mask = np.zeros((nv, width), dtype=bool)
    for v, row in enumerate(rows):
        idx[v, : len(row)] = row
        idx[v, len(row) :] = v
        mask[v, : len(row)] = True
    return idx, mask


class TestMeasureWeights:
    def test_fine_icosphere_area(self):
        imm = icosphere(subdiv=5)
        assert imm.num_vertices == 10242
        total = imm.vertex_weights.sum()
        assert total == pytest.approx(4 * math.pi, rel=5e-3)

    def test_polygon_circumference(self):
        imm = polygon_circle(segments=256, r0=1.0)
        assert imm.vertex_weights.sum() == pytest.approx(2 * math.pi, abs=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(lam=st.floats(0.05, 20.0))
    def test_scaling_homogeneity(self, lam):
        imm = icosphere(subdiv=1)
        w = imm.vertex_weights
        w_scaled = imm.transformed(scale=lam).vertex_weights
        assert np.allclose(w_scaled, lam ** 2 * w, rtol=1e-12)

    def test_all_positive(self, icosphere4):
        assert (icosphere4.vertex_weights > 0).all()

    def test_with_vertices_recomputes_measures(self):
        imm = icosphere(subdiv=2)
        weights, measures = imm.vertex_weights, imm.element_measures
        doubled = imm.transformed(scale=2.0)
        assert np.array_equal(doubled.vertex_weights, 4.0 * weights)
        assert np.array_equal(doubled.element_measures, 4.0 * measures)
        assert imm.vertex_weights is weights and imm.element_measures is measures


def _coo_stiffness(imm):
    """Reference cotangent stiffness: one COO assembly with a loop per corner."""
    nv = imm.num_vertices
    if imm.intrinsic_dim == 1:
        i, j = imm.elements[:, 0], imm.elements[:, 1]
        w = 1.0 / imm.element_measures
    else:
        x = imm.vertices
        tri = imm.elements
        rows, cols, vals = [], [], []
        for corner in range(3):
            a = tri[:, corner]
            b = tri[:, (corner + 1) % 3]
            c = tri[:, (corner + 2) % 3]
            u = x[b] - x[a]
            v = x[c] - x[a]
            cross2 = np.einsum("ij,ij->i", u, u) * np.einsum("ij,ij->i", v, v) - (
                np.einsum("ij,ij->i", u, v)
            ) ** 2
            area2 = np.sqrt(np.clip(cross2, 0.0, None))
            cot = np.einsum("ij,ij->i", u, v) / np.where(area2 > 0, area2, np.inf)
            rows.append(b)
            cols.append(c)
            vals.append(0.5 * cot)
        i = np.concatenate(rows)
        j = np.concatenate(cols)
        w = np.concatenate(vals)
    off = sparse.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(nv, nv),
    ).tocsr()
    diag = np.asarray(off.sum(axis=1)).ravel()
    return sparse.diags(diag) - off


def _loop_angle_defects(imm):
    """Reference angle defects: arccos of each corner from the edge norms."""
    x = imm.vertices
    tri = imm.elements
    defect = np.full(imm.num_vertices, 2.0 * np.pi)
    for corner in range(3):
        i = tri[:, corner]
        u = x[tri[:, (corner + 1) % 3]] - x[i]
        v = x[tri[:, (corner + 2) % 3]] - x[i]
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        np.subtract.at(defect, i, np.arccos(np.clip(cosang, -1.0, 1.0)))
    return defect


STIFFNESS_MESHES = {
    "icosphere2_r5": lambda: embed_immersion(icosphere(subdiv=2), 5),
    "ellipsoid_obtuse": lambda: ellipsoid([1.6, 1.0, 0.5], subdiv=2),
    "grid_patch_open": lambda: grid_patch(jitter=0.3),
    # right angles opposite every diagonal: zero weights, dropped from S
    "grid_patch_right_angles": lambda: grid_patch(),
    "clifford16": lambda: clifford_torus(1.0, 1.0, resolution=16),
    "polygon64_r4": lambda: polygon_circle(segments=64, ambient_dim=4),
}


class TestStiffness:
    @pytest.mark.parametrize("build", STIFFNESS_MESHES.values(), ids=STIFFNESS_MESHES.keys())
    def test_matches_the_coo_assembly_bit_for_bit(self, build):
        imm = build()
        got, ref = imm.stiffness, _coo_stiffness(imm)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))

    def test_ellipsoid_has_negative_edge_weights(self):
        # obtuse opposite corners, so the bit-for-bit case above covers them
        stiffness = STIFFNESS_MESHES["ellipsoid_obtuse"]().stiffness
        assert (sparse.triu(stiffness, k=1).data > 0).any()

    @pytest.mark.parametrize("build", STIFFNESS_MESHES.values(), ids=STIFFNESS_MESHES.keys())
    def test_rows_sum_to_zero_with_a_positive_diagonal(self, build):
        stiffness = build().stiffness
        scale = stiffness.diagonal()
        assert (scale > 0).all()
        assert np.abs(np.asarray(stiffness.sum(axis=1)).ravel()).max() <= 1e-12 * scale.max()
        assert abs(stiffness - stiffness.T).max() == 0.0

    def test_curve_bound_is_half_the_squared_spacing(self):
        imm = polygon_circle(segments=128)
        h = imm.element_measures[0]
        bound = imm.vertex_weights / imm.stiffness.diagonal()
        assert np.allclose(bound, 0.5 * h ** 2, rtol=1e-12)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: icosphere(subdiv=3),
            lambda: icosphere(subdiv=4),
            lambda: ellipsoid([1.2, 1.0, 0.9], subdiv=4),
            lambda: clifford_torus(1.0, 1.0, resolution=64),
            lambda: grid_patch(jitter=0.3),
        ],
        ids=["icosphere3", "icosphere4", "ellipsoid4", "clifford64", "grid_patch"],
    )
    def test_angle_defects_match_the_corner_loop(self, build):
        imm = build()
        assert np.abs(angle_defects(imm) - _loop_angle_defects(imm)).max() <= 1e-14

    def test_copies_do_not_carry_the_stiffness(self):
        imm = icosphere(subdiv=2)
        stiffness = imm.stiffness
        moved = imm.with_vertices(1.5 * imm.vertices)
        turned = imm.transformed(rotation=random_rotation(3, seed=2))
        for copy in (moved, turned):
            assert "stiffness" not in vars(copy)
            assert copy.stiffness is not stiffness
        assert abs(moved.stiffness - stiffness).max() <= 1e-14  # cotangents are scale-free
        assert imm.stiffness is stiffness

    def test_assembled_once_per_vertex_array(self, stiffness_assemblies):
        imm = icosphere(subdiv=1)
        assert imm.stiffness is imm.stiffness
        assert stiffness_assemblies == [42]


class TestFrames:
    def test_flat_patch_normal(self):
        imm = grid_patch(jitter=0.3, seed=2)
        frames = build_frames(imm)
        # tangent plane is the grid plane, normal is +-e_z
        assert np.abs(frames.normal[:, 0, 2]).min() > 1 - 1e-10
        assert np.abs(frames.tangent[:, :, 2]).max() < 1e-10

    def test_polygon_tangent_orthogonal_to_radius(self):
        imm = polygon_circle(segments=64)
        frames = build_frames(imm)
        radial = imm.vertices / np.linalg.norm(imm.vertices, axis=1)[:, None]
        dots = np.einsum("vd,vd->v", frames.tangent[:, 0, :], radial)
        assert np.abs(dots).max() <= 1e-3

    def test_icosphere_in_r5_normal_space(self):
        imm = embed_immersion(icosphere(subdiv=3), 5)
        frames = build_frames(imm)
        # the two extra coordinate axes lie exactly in the normal space
        for axis in (3, 4):
            tangential = frames.tangent[:, :, axis]
            assert np.abs(tangential).max() < 1e-10
        # the radial direction is approximately normal
        radial = imm.vertices / np.linalg.norm(imm.vertices, axis=1)[:, None]
        proj = np.einsum("vkd,vd->vk", frames.normal, radial)
        assert np.linalg.norm(proj, axis=1).min() > 1 - 1e-3

    def test_orthonormality(self, icosphere4):
        frames = build_frames(icosphere4)
        full = np.concatenate([frames.tangent, frames.normal], axis=1)
        gram = np.einsum("vad,vbd->vab", full, full)
        assert np.abs(gram - np.eye(3)).max() <= 1e-10

    def test_rank_deficient_neighborhood(self):
        # element validation rejects collinear surfaces outright, so exercise
        # the guard on a hand-built object that skips validation
        imm = grid_patch(m=4)
        squashed = imm.vertices.copy()
        squashed[:, 1] = 0.0  # collapse the patch onto a line
        flat = object.__new__(DiscreteImmersion)
        flat.vertices = squashed
        flat.elements = imm.elements
        flat.intrinsic_dim = 2
        flat.closed = False
        with pytest.raises(NeighborhoodRankDeficient):
            build_frames(flat)

    def test_deterministic_given_vertex_order(self, icosphere4):
        a = build_frames(icosphere4)
        b = build_frames(icosphere4)
        assert np.array_equal(a.tangent, b.tangent)
        assert np.array_equal(a.normal, b.normal)


class TestSecondFundamentalForm:
    def test_unit_icosphere_values(self, icosphere4_forms):
        _, _, forms = icosphere4_forms
        assert np.abs(np.sqrt(forms.h2) - 2.0).max() <= 2e-2
        assert np.abs(forms.a2 - 2.0).max() <= 4e-2
        assert forms.aring2.max() <= 1e-3

    def test_mean_curvature_points_inward(self, icosphere4, icosphere4_forms):
        _, _, forms = icosphere4_forms
        outward = icosphere4.vertices
        dots = np.einsum("vd,vd->v", forms.mean_curvature, outward)
        assert (dots < 0).all()

    def test_collinear_polyline_is_flat(self):
        imm = collinear_polyline()
        frames, forms = jet_forms(imm)
        interior = slice(1, -1)
        assert np.abs(forms.h[interior]).max() < 1e-12
        assert np.abs(forms.mean_curvature[interior]).max() < 1e-12

    def test_clifford_torus_pointwise(self, clifford64_forms):
        _, _, forms = clifford64_forms
        assert np.abs(forms.h2 - 2.0).max() <= 5e-2
        assert np.abs(forms.a2 - 2.0).max() <= 5e-2

    def test_circle_curvature(self):
        imm = polygon_circle(segments=256, r0=2.0)
        _, forms = jet_forms(imm)
        assert np.abs(forms.h2 - 0.25).max() < 1e-3

    def test_underdetermined_tetrahedron(self):
        # every stencil of a tetrahedron is all 4 vertices: 4 points < 6 coefficients
        verts = np.array(
            [[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
        )
        faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
        imm = DiscreteImmersion(vertices=verts, elements=faces, intrinsic_dim=2)
        frames = build_frames(imm)
        with pytest.raises(FitUnderdetermined):
            second_fundamental_form(imm, frames)


class TestTracefree:
    def test_umbilic_gives_zero(self, icosphere4_forms):
        _, _, forms = icosphere4_forms
        # discretization noise only; exact umbilic forms give exactly zero
        h = np.zeros((5, 1, 2, 2))
        h[:, 0] = np.eye(2) * np.linspace(0.5, 2.0, 5)[:, None, None]
        out = tracefree_decompose(h)
        assert np.abs(out.aring).max() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), n=st.integers(1, 3), d=st.integers(1, 3))
    def test_trace_vanishes_for_random_tensors(self, seed, n, d):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((4, d, n, n))
        h = 0.5 * (h + np.swapaxes(h, 2, 3))
        out = tracefree_decompose(h)
        traces = np.einsum("vkaa->vk", out.aring)
        scale = np.sqrt(out.a2).max() + 1e-30
        assert np.abs(traces).max() <= 1e-12 * max(scale, 1.0)
        # orthogonal decomposition of the squared norms
        assert np.allclose(out.a2, out.aring2 + out.h2 / n, rtol=1e-12, atol=1e-13)

    def test_clifford_ratio(self, clifford64_forms):
        _, _, forms = clifford64_forms
        ratio = forms.aring2 / forms.h2
        assert np.abs(ratio - 0.5).max() <= 5e-2


class TestGaussResidual:
    def test_unit_icosphere(self, icosphere4, icosphere4_forms):
        # angle defect over barycentric area is not pointwise consistent at
        # the 12 valence-5 vertices, so residual statements use the mean
        topo, _, forms = icosphere4_forms
        res = gauss_residual(icosphere4, forms)
        assert np.abs(res).mean() <= 5e-2
        deg = np.bincount(topo.edges.ravel())
        assert np.abs(res[deg == 6]).max() <= 5e-2
        intrinsic = angle_defects(icosphere4) / icosphere4.vertex_weights
        assert np.abs(intrinsic[deg == 6] - 1.0).max() < 5e-2

    def test_decreases_under_refinement(self):
        errs = []
        for subdiv in (2, 3):
            imm = icosphere(subdiv=subdiv)
            _, forms = jet_forms(imm)
            errs.append(np.abs(gauss_residual(imm, forms)).mean())
        assert errs[1] < errs[0]

    def test_flat_patch_zero(self):
        imm = grid_patch(m=7)
        _, forms = jet_forms(imm)
        res = gauss_residual(imm, forms)
        interior = [
            v
            for v in range(imm.num_vertices)
            if 0.1 < imm.vertices[v, 0] < 0.9 and 0.1 < imm.vertices[v, 1] < 0.9
        ]
        assert np.abs(res[interior]).max() < 1e-10

    def test_clifford_torus_flat(self, clifford64, clifford64_forms):
        _, _, forms = clifford64_forms
        res = gauss_residual(clifford64, forms)
        assert np.abs(res).max() <= 5e-2

    def test_curve_returns_zero(self):
        imm = polygon_circle(segments=32)
        _, forms = jet_forms(imm)
        assert np.array_equal(gauss_residual(imm, forms), np.zeros(32))


class TestCovariantDerivative:
    def test_sphere_parallel_form(self, icosphere4, icosphere4_forms):
        _, frames, forms = icosphere4_forms
        deriv = derivative_data(icosphere4, frames, forms)
        assert codazzi_residual(deriv).max() <= 1e-2
        assert deriv.grad_a2.max() <= 1e-2

    def test_clifford_parallel_form(self, clifford64, clifford64_forms):
        _, frames, forms = clifford64_forms
        deriv = derivative_data(clifford64, frames, forms)
        assert codazzi_residual(deriv).max() <= 2e-2

    def test_ellipsoid_codazzi_converges_first_order(self):
        values = []
        for subdiv in (2, 3):
            imm = ellipsoid([1.2, 1.0, 0.9], subdiv=subdiv)
            frames, forms = jet_forms(imm)
            deriv = derivative_data(imm, frames, forms)
            values.append(codazzi_residual(deriv).mean())
        order = math.log2(values[0] / values[1])
        assert order >= 1.0

    def test_gradient_norm_identity(self, ellipsoid3):
        frames, forms = jet_forms(ellipsoid3)
        deriv = derivative_data(ellipsoid3, frames, forms)
        assert np.allclose(
            deriv.grad_aring2, deriv.grad_a2 - deriv.grad_h2 / 2, rtol=1e-10, atol=1e-12
        )


def _per_pair_transport(tan_v, nor_v, tan_j, nor_j):
    """Reference minimal-rotation transport of one (vertex, neighbor) pair,
    through the explicit D x D rotation."""
    n, dim = tan_v.shape
    uu, sig, vt = np.linalg.svd(tan_v @ tan_j.T)
    cos = np.clip(sig, -1.0, 1.0)
    p = uu.T @ tan_v
    q = vt @ tan_j
    rot = np.eye(dim)
    for i in range(n):
        c = cos[i]
        if c > 1.0 - 1e-14:
            continue
        s = np.sqrt(max(1.0 - c * c, 0.0))
        axis = (p[i] - c * q[i]) / s
        qi = q[i]
        rot = rot + (
            s * (np.outer(axis, qi) - np.outer(qi, axis))
            + (c - 1.0) * (np.outer(qi, qi) + np.outer(axis, axis))
        )
    return tan_v @ rot @ tan_j.T, nor_v @ rot @ nor_j.T


def _per_pair_closed_form(tan_v, nor_v, tan_j, nor_j):
    """The closed-form transport of one (vertex, neighbor) pair: the polar
    factor of C = T_v T_j^T and the rank-n normal correction."""
    uu, cos, vt = np.linalg.svd(tan_v @ tan_j.T)
    inverse = vt.T / (1.0 + cos) @ uu.T
    return uu @ vt, nor_v @ nor_j.T - (nor_v @ tan_j.T) @ inverse @ (tan_v @ nor_j.T)


def _per_pair_derivative_data(imm, frames, forms):
    """Reference derivative fit that transports one (vertex, neighbor) pair at a
    time, on a stencil it builds itself rather than the one the frames carry."""
    n, d, nv = imm.intrinsic_dim, imm.codim, imm.num_vertices
    idx, mask = imm.topology.ring_neighborhoods
    delta = imm.vertices[idx] - imm.vertices[:, None, :]
    dist = np.linalg.norm(delta, axis=2)
    others = mask.copy()
    others[:, 0] = False
    sigma = (dist * others).sum(axis=1) / np.maximum(others.sum(axis=1), 1)
    sigma = np.maximum(sigma, 1e-300)
    u = delta @ np.swapaxes(frames.tangent, 1, 2) / sigma[:, None, None]
    theta = np.exp(-((dist / sigma[:, None]) ** 2)) * mask
    width = idx.shape[1]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    rhs = np.zeros((nv, width, d * len(pairs)))
    for v in range(nv):
        for m_i in range(width):
            if not mask[v, m_i]:
                continue
            j = idx[v, m_i]
            if j == v:
                hj = forms.h[v]
            else:
                tau, nu = _per_pair_closed_form(
                    frames.tangent[v], frames.normal[v], frames.tangent[j], frames.normal[j]
                )
                hj = np.einsum("ba,li,mk,aik->blm", nu, tau, tau, forms.h[j])
            rhs[v, m_i] = np.array([hj[a, i, jj] for a in range(d) for (i, jj) in pairs])
    design = np.concatenate([np.ones((nv, width, 1)), u], axis=2)
    wd_t = np.swapaxes(design * theta[:, :, None], 1, 2)
    coeffs = np.linalg.solve(wd_t @ design, wd_t @ (rhs * sigma[:, None, None]))
    slopes = coeffs[:, 1:, :] / (sigma ** 2)[:, None, None]
    h_k = np.zeros((nv, d, n, n, n))
    for col, (a, (i, jj)) in enumerate((a, pair) for a in range(d) for pair in pairs):
        for k in range(n):
            h_k[:, a, i, jj, k] = h_k[:, a, jj, i, k] = slopes[:, k, col]
    hk_trace = np.einsum("vaiik->vak", h_k)
    aring_k = h_k - hk_trace[:, :, None, None, :] * (np.eye(n) / n)[None, None, :, :, None]
    return (
        h_k,
        np.einsum("vaijk,vaijk->v", h_k, h_k),
        np.einsum("vak,vak->v", hk_trace, hk_trace),
        np.einsum("vaijk,vaijk->v", aring_k, aring_k),
    )


def _seeded_plane(dim, k, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, k)))
    return q


def _jittered_polygon(segments, ambient_dim, seed):
    rng = np.random.default_rng(seed)
    step = 2.0 * np.pi / segments
    angles = step * (np.arange(segments) + rng.uniform(-0.2, 0.2, segments))
    return polygon_circle(
        angles=angles, ambient_dim=ambient_dim, subspace=_seeded_plane(ambient_dim, 2, seed)
    )


class TestBatchedTransport:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: icosphere(subdiv=2, ambient_dim=5, subspace=_seeded_plane(5, 3, 7)),
            lambda: clifford_torus(resolution=16),
            lambda: ellipsoid([1.2, 1.0, 0.9], subdiv=2),
            lambda: _jittered_polygon(64, 4, 3),
        ],
        ids=["icosphere2_r5", "clifford16", "ellipsoid2", "polygon64_r4"],
    )
    def test_matches_the_per_pair_loop_bit_for_bit(self, build):
        imm = build()
        frames, forms = jet_forms(imm)
        deriv = derivative_data(imm, frames, forms)
        expected = _per_pair_derivative_data(imm, frames, forms)
        got = (deriv.h_k, deriv.grad_a2, deriv.grad_h2, deriv.grad_aring2)
        for name, a, b in zip(("h_k", "grad_a2", "grad_h2", "grad_aring2"), got, expected):
            assert np.array_equal(a, b), name

    def test_stacked_transport_matches_each_pair(self):
        rng = np.random.default_rng(11)
        frames = [np.linalg.qr(rng.standard_normal((5, 5)))[0].T for _ in range(6)]
        pairs = []
        for k, f in enumerate(frames):
            turn = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            # same tangent plane (in-plane turn, or the very same frame), then a tilted one
            for g in (np.vstack([turn @ f[:2], f[2:]]), f, frames[(k + 1) % 6]):
                pairs.append((f[:2], f[2:], g[:2], g[2:]))
        tan_v, nor_v, tan_j, nor_j = (np.array(x) for x in zip(*pairs))
        tau, nu = _minimal_rotation_transport(tan_v, nor_v, tan_j, nor_j)
        for p in range(len(tan_v)):
            frame = tan_v[p], nor_v[p], tan_j[p], nor_j[p]
            one_tau, one_nu = _per_pair_closed_form(*frame)
            assert np.array_equal(tau[p], one_tau) and np.array_equal(nu[p], one_nu)
            ref_tau, ref_nu = _per_pair_transport(*frame)  # the explicit rotation
            assert np.abs(tau[p] - ref_tau).max() <= 1e-13
            assert np.abs(nu[p] - ref_nu).max() <= 1e-13
            if p % 3 < 2:  # no principal angle to turn: the identity rotation
                assert np.abs(tau[p] - tan_v[p] @ tan_j[p].T).max() <= 1e-14
            else:
                assert not np.allclose(tau[p], tan_v[p] @ tan_j[p].T)

    def test_transient_memory_is_bounded(self, clifford64, clifford64_forms):
        _, frames, forms = clifford64_forms
        tracemalloc.start()
        try:
            derivative_data(clifford64, frames, forms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6, f"traced peak {peak / 1e6:.1f} MB"


def _einsum_jet_forms(imm):
    """Reference jet fit with stacked einsum contractions and an all-vertex
    eigvalsh conditioning check."""
    n, dim = imm.intrinsic_dim, imm.ambient_dim
    idx, mask = imm.topology.ring_neighborhoods
    counts = mask.sum(axis=1)
    pts = imm.vertices[idx]
    w = mask[:, :, None].astype(float)
    mean = (pts * w).sum(axis=1) / counts[:, None]
    centered = (pts - mean[:, None, :]) * w
    cov = np.einsum("vmi,vmj->vij", centered, centered) / counts[:, None, None]
    eigvecs = np.linalg.eigh(cov)[1]
    tangent = _fix_signs(np.swapaxes(eigvecs[:, :, dim - n :], 1, 2)[:, ::-1, :])
    normal = _fix_signs(np.swapaxes(eigvecs[:, :, : dim - n], 1, 2)[:, ::-1, :])

    delta = imm.vertices[idx] - imm.vertices[:, None, :]
    dist = np.linalg.norm(delta, axis=2)
    others = mask.copy()
    others[:, 0] = False
    sigma = (dist * others).sum(axis=1) / np.maximum(others.sum(axis=1), 1)
    sigma = np.maximum(sigma, 1e-300)
    u = np.einsum("vnd,vmd->vmn", tangent, delta) / sigma[:, None, None]
    wcoord = np.einsum("vkd,vmd->vmk", normal, delta) / sigma[:, None, None]
    theta = np.exp(-((dist / sigma[:, None]) ** 2)) * mask

    design = _quadratic_basis(u, n)
    wd = design * theta[:, :, None]
    gram = np.einsum("vmk,vml->vkl", wd, design)
    assert not _eigvalsh_flags(gram).any()
    coeffs = np.linalg.solve(gram, np.einsum("vmk,vmr->vkr", wd, wcoord))

    h = np.zeros((imm.num_vertices, imm.codim, n, n))
    pos = 1 + n
    for a in range(n):
        h[:, :, a, a] = coeffs[:, pos, :]
        pos += 1
    for a in range(n):
        for b in range(a + 1, n):
            h[:, :, a, b] = h[:, :, b, a] = coeffs[:, pos, :]
            pos += 1
    h /= sigma[:, None, None, None]
    trace = np.einsum("vkaa->vk", h)
    return tracefree_decompose(h, np.einsum("vk,vkd->vd", trace, normal))


def _eigvalsh_flags(gram):
    """Reference conditioning verdict: eigvalsh of every Gram."""
    eig = np.linalg.eigvalsh(gram)
    lo, hi = eig[:, 0], eig[:, -1]
    return (lo <= 0) | (hi > CONDITION_LIMIT * np.maximum(lo, 1e-300))


def _verdict(check, gram):
    try:
        return check(gram).tolist()
    except np.linalg.LinAlgError as exc:
        return f"LinAlgError: {exc}"


class TestBatchedJetFit:
    # aring2 = a2 - h2 / n cancels O(a2) terms, so its rounding is measured
    # against the size of a2; every other field against its own size
    SCALE = {"h": "h", "mean_curvature": "mean_curvature", "a2": "a2", "h2": "h2", "aring2": "a2"}

    # the frame components h are compared, so the bodies lie in coordinate
    # subspaces: in a generic plane the normals off it span a degenerate
    # eigenspace whose basis, and the 1e-13 noise of h along it, follow rounding
    @pytest.mark.parametrize(
        "build",
        [
            lambda: icosphere(subdiv=4, ambient_dim=5),
            lambda: ellipsoid([1.2, 1.0, 0.9], subdiv=3),
            lambda: polygon_circle(
                angles=2.0 * np.pi * (np.arange(256) + np.linspace(-0.3, 0.3, 256)) / 256,
                ambient_dim=4,
            ),
        ],
        ids=["icosphere4_r5", "ellipsoid3", "polygon256_r4"],
    )
    def test_matches_the_einsum_fit(self, build):
        imm = build()
        _, got = jet_forms(imm)
        expected = _einsum_jet_forms(imm)
        for name, scale in self.SCALE.items():
            gap = np.abs(getattr(got, name) - getattr(expected, name)).max()
            assert gap <= 1e-12 * np.abs(getattr(expected, scale)).max(), name


class TestConditioningScreen:
    @staticmethod
    def grams(k, seed):
        """Well-conditioned Grams, then Grams at condition number 1e12 * (1 -+ 1e-6),
        rotated and diagonal (the diagonal ones exactly below, then above)."""
        rng = np.random.default_rng(seed)

        def with_spectrum(eigs):
            q = np.linalg.qr(rng.standard_normal((k, k)))[0]
            return (q * eigs) @ q.T

        stack = [with_spectrum(rng.uniform(0.05, 40.0, k)) for _ in range(24)]
        for factor in (1 - 1e-6, 1 + 1e-6):
            eigs = np.geomspace(1.0, CONDITION_LIMIT * factor, k)
            stack.append(with_spectrum(eigs))
            stack.append(np.diag(eigs[::-1]))
        return np.array(stack)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_flags_exactly_the_eigvalsh_set(self, k):
        base = self.grams(k, seed=k)
        flags = _ill_conditioned(base)
        assert flags.tolist() == _eigvalsh_flags(base).tolist()
        assert not flags[:24].any()
        assert not flags[-3] and flags[-1]  # the diagonal pair straddles the limit

        singular = np.diag(np.r_[np.zeros(1), np.ones(k - 1)])
        indefinite = np.diag(np.r_[-np.ones(1), np.ones(k - 1)])
        nan_all = np.full((k, k), np.nan)
        nan_upper = np.eye(k)
        nan_upper[0, -1] = np.nan  # eigvalsh reads the lower triangle only
        for extra in (singular, indefinite, singular[::-1, ::-1], nan_upper, nan_all):
            stack = np.concatenate([base, extra[None]])
            assert _verdict(_ill_conditioned, stack) == _verdict(_eigvalsh_flags, stack)

    def test_cleared_grams_skip_eigvalsh(self, monkeypatch):
        real = np.linalg.eigvalsh
        seen = []

        def counting(gram):
            seen.append(len(gram))
            return real(gram)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        stack = self.grams(6, seed=1)
        _ill_conditioned(stack)
        assert seen == [4]  # only the four at the limit

    def test_ill_conditioned_fit_names_the_first_bad_vertex(self):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((6, 12, 3))
        design[4, :, 2] = design[4, :, 1]  # two equal columns: a singular Gram
        design[5, :, 2] = design[5, :, 1]
        theta = np.ones((6, 12))
        rhs = rng.standard_normal((6, 12, 2))
        with pytest.raises(FitIllConditioned) as info:
            _weighted_lstsq(lambda b: (design[b], rhs[b]), theta, 3, "jet fit")
        assert str(info.value) == (
            "jet fit: normal equations condition number exceeds 1e+12 at vertex 4"
        )


def _fit_outputs(imm):
    """Every array that jet_forms (build_frames, second_fundamental_form) and
    derivative_data return for ``imm``, by name."""
    frames, forms = jet_forms(imm)
    deriv = derivative_data(imm, frames, forms)
    return {
        f"{kind}.{name}": value
        for kind, obj in (("frames", frames), ("forms", forms), ("deriv", deriv))
        for name, value in vars(obj).items()
    }


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _with_tetrahedron(imm):
    """``imm`` plus a disjoint small tetrahedron whose vertices come last: their
    stencils hold 4 points, too few for the 6 coefficients of the jet fit."""
    tet = 3.0 + 0.2 * np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]) + imm.num_vertices
    return DiscreteImmersion(
        vertices=np.vstack([imm.vertices, tet]),
        elements=np.vstack([imm.elements, faces]),
        intrinsic_dim=2,
    )


class TestVertexBlocks:
    """The local fits run in vertex blocks, on the fit threads when a mesh
    spans more than one block; results and failures are those of one block."""

    ONE_BLOCK = 1 << 40

    @pytest.mark.parametrize("block", [7, 128])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: _jittered_polygon(1024, 4, 5),
            lambda: icosphere(subdiv=4, ambient_dim=5, subspace=_seeded_plane(5, 3, 7)),
            lambda: clifford_torus(resolution=64),
        ],
        ids=["polygon1024_r4", "icosphere4_r5", "clifford64"],
    )
    def test_blocks_match_one_block(self, build, block, monkeypatch):
        imm = build()
        monkeypatch.setattr(curvature, "_VERTEX_BLOCK", self.ONE_BLOCK)
        expected = _fit_outputs(imm)
        monkeypatch.setattr(curvature, "_VERTEX_BLOCK", block)
        pooled = []
        real_executor = curvature._executor
        monkeypatch.setattr(curvature, "_executor", lambda: pooled.append(1) or real_executor())
        got = _fit_outputs(imm)
        assert pooled  # the mesh spans several blocks, so they went to the pool
        for name, value in expected.items():
            assert _same_bits(got[name], value), name

    def _messages(self, monkeypatch, error, call, blocks):
        messages = []
        for block in (self.ONE_BLOCK, *blocks):
            monkeypatch.setattr(curvature, "_VERTEX_BLOCK", block)
            with pytest.raises(error) as info:
                call()
            messages.append(str(info.value))
        return messages

    def test_rank_deficient_neighborhood_in_a_later_block(self, monkeypatch):
        imm = grid_patch(m=12)
        squashed = imm.vertices.copy()
        squashed[108:, 1] = 0.0  # the last three grid rows collapse onto a line
        flat = object.__new__(DiscreteImmersion)  # skips the element validation
        flat.vertices = squashed
        flat.elements = imm.elements
        flat.intrinsic_dim = 2
        flat.closed = False
        messages = self._messages(
            monkeypatch, NeighborhoodRankDeficient, lambda: build_frames(flat), (16, 5)
        )
        assert messages == ["rank-deficient neighborhood at vertex 120"] * 3

    def test_underdetermined_fit_in_a_later_block(self, monkeypatch):
        imm = _with_tetrahedron(icosphere(subdiv=2))
        frames = build_frames(imm)
        messages = self._messages(
            monkeypatch, FitUnderdetermined, lambda: second_fundamental_form(imm, frames), (16,)
        )
        assert messages == ["jet fit: vertex 162 has 4 samples for 6 coefficients"] * 2

    def test_ill_conditioned_fit_in_a_later_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((40, 12, 3))
        for v in (29, 35):  # two equal columns: a singular Gram
            design[v, :, 2] = design[v, :, 1]
        rhs = rng.standard_normal((40, 12, 2))
        theta = np.ones((40, 12))

        def fit():
            _weighted_lstsq(lambda b: (design[b], rhs[b]), theta, 3, "jet fit")

        messages = self._messages(monkeypatch, FitIllConditioned, fit, (8,))
        assert messages == [
            "jet fit: normal equations condition number exceeds 1e+12 at vertex 29"
        ] * 2

    def test_a_mesh_of_one_block_starts_no_thread(self):
        probe = (
            "import threading\n"
            "from mcflow.curvature import derivative_data, jet_forms\n"
            "from mcflow.scenes import clifford_torus, icosphere, polygon_circle\n"
            "for imm in (icosphere(subdiv=3, ambient_dim=5),\n"
            "            polygon_circle(1024, ambient_dim=4),\n"
            "            clifford_torus(resolution=32)):  # V = 1024 in 5 pair blocks\n"
            "    derivative_data(imm, *jet_forms(imm))\n"
            "print(threading.active_count())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "1"

    def test_a_forked_child_makes_its_own_pool(self):
        # the child has none of the parent's fit threads; a pool it inherited
        # would take its blocks and never run them
        probe = (
            "import os, sys, time\n"
            "from mcflow.curvature import jet_forms\n"
            "from mcflow.scenes import icosphere\n"
            "imm = icosphere(subdiv=4)\n"
            "jet_forms(imm)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    jet_forms(imm)\n"
            "    os._exit(0)\n"
            "deadline = time.monotonic() + 30\n"
            "while time.monotonic() < deadline:\n"
            "    done, status = os.waitpid(pid, os.WNOHANG)\n"
            "    if done:\n"
            "        sys.exit(os.waitstatus_to_exitcode(status))\n"
            "    time.sleep(0.05)\n"
            "os.kill(pid, 9)\n"
            "os.waitpid(pid, 0)\n"
            "sys.exit('the forked child did not finish its fit')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    def test_one_cpu_fits_in_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(curvature, "_pool", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert curvature._executor() is None

    def test_concurrent_callers_share_the_fit_threads(self, monkeypatch):
        meshes = [
            icosphere(subdiv=2, ambient_dim=5, subspace=_seeded_plane(5, 3, seed))
            for seed in range(4)
        ]
        expected = [_fit_outputs(imm) for imm in meshes]  # 162 vertices: one block
        monkeypatch.setattr(curvature, "_VERTEX_BLOCK", 5)
        results = [None] * len(meshes)

        def fit(i):
            results[i] = _fit_outputs(meshes[i])

        callers = [threading.Thread(target=fit, args=(i,)) for i in range(len(meshes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for got, want in zip(results, expected):
            assert all(_same_bits(got[name], value) for name, value in want.items())


class TestEquivariance:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_isometry_invariance_of_scalars(self, seed):
        imm = icosphere(subdiv=2)
        rng = np.random.default_rng(seed)
        q = random_rotation(3, seed)
        shift = rng.uniform(-5, 5, 3)
        moved = imm.transformed(rotation=q, translation=shift)
        _, forms = jet_forms(imm)
        _, forms_moved = jet_forms(moved)
        for a, b in (
            (forms.h2, forms_moved.h2),
            (forms.a2, forms_moved.a2),
            (forms.aring2, forms_moved.aring2),
        ):
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(a).max(), 1.0)
        assert np.allclose(
            imm.vertex_weights, moved.vertex_weights, rtol=1e-10
        )

    @settings(max_examples=10, deadline=None)
    @given(lam=st.floats(0.1, 10.0))
    def test_scaling_covariance(self, lam):
        imm = icosphere(subdiv=1)
        _, forms = jet_forms(imm)
        _, scaled = jet_forms(imm.transformed(scale=lam))
        assert np.allclose(scaled.h2, forms.h2 / lam ** 2, rtol=1e-11)
        assert np.allclose(scaled.a2, forms.a2 / lam ** 2, rtol=1e-11)

    def test_refinement_consistency(self):
        errors = []
        for subdiv in (2, 3):
            _, forms = jet_forms(icosphere(subdiv=subdiv))
            errors.append(
                (np.abs(forms.h2 - 4.0).max(), np.abs(forms.a2 - 2.0).max())
            )
        assert errors[1][0] < errors[0][0]
        assert errors[1][1] < errors[0][1]

    def test_refinement_consistency_torus(self):
        errors = []
        for res in (24, 48):
            _, forms = jet_forms(clifford_torus(resolution=res))
            errors.append(np.abs(forms.h2 - 2.0).max())
        assert errors[1] < errors[0]


class TestSnapshotIO:
    def test_bytes_match_per_cell_formatting(self, tmp_path):
        # values that print in scientific notation, and negative zero
        imm = icosphere(subdiv=1)
        nv = imm.num_vertices
        scalars = {
            "H2": np.full(nv, -0.0),
            "A2": np.full(nv, 1e-20),
            "Aring2": np.linspace(-1e-7, 1e22, nv),
        }
        path = tmp_path / "snap.csv"
        write_snapshot(imm, path, scalars)
        table = np.column_stack(
            [imm.vertices, scalars["H2"], scalars["A2"], scalars["Aring2"], imm.vertex_weights]
        )
        rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table)
        assert path.read_text() == "x0,x1,x2,H2,A2,Aring2,weight\n" + rows
        elements = "".join(" ".join(str(int(i)) for i in el) + "\n" for el in imm.elements)
        assert (tmp_path / "snap.elements.txt").read_text() == elements

    def test_roundtrip(self, tmp_path):
        imm = icosphere(subdiv=1, r0=1.5)
        _, forms = jet_forms(imm)
        path = tmp_path / "snap.csv"
        write_snapshot(
            imm,
            path,
            {"H2": forms.h2, "A2": forms.a2, "Aring2": forms.aring2},
        )
        loaded, scalars = read_snapshot(path)
        assert np.array_equal(loaded.vertices, imm.vertices)
        assert np.array_equal(loaded.elements, imm.elements)
        assert np.array_equal(scalars["H2"], forms.h2)
        assert np.array_equal(scalars["weight"], imm.vertex_weights)
