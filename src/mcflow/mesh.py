"""Simplicial immersions: polylines (n=1) and triangle meshes (n=2).

Vertices live in R^{n+d} for any codimension d >= 1.  An immersion is treated
as a value: its vertex array and elements are never changed in place, and
``with_vertices`` returns a new immersion.  Each immersion fills two kinds of
caches on first use:

- per connectivity, shared by every ``with_vertices`` copy: ``topology`` (the
  edges, the triangle corners, the curve cycles, the stiffness sparsity
  pattern and, per ring, the neighborhood index arrays);
- per vertex array, never carried over by ``with_vertices``:
  ``element_measures`` (computed by the degeneracy check), ``vertex_weights``
  (the lumped mass M) and ``stiffness`` (the Laplace-Beltrami stiffness S).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

from .errors import DegenerateElement, InvalidImmersion, ParseError, UnsupportedDimension

#: elements smaller than this fraction of the mean element measure count as
#: collapsed (genuine singularity, not floating-point noise)
DEGENERATE_TOL = 1e-8


@dataclass
class DiscreteImmersion:
    """Vertex positions plus connectivity.

    ``elements`` holds segment pairs for n=1 and oriented triangles for n=2.
    ``closed`` asserts cycle/watertight connectivity and is validated.
    Construction validates everything; ``with_vertices`` keeps the elements
    and the connectivity caches (``topology``) and re-checks only geometry.
    Both compute ``element_measures`` in the degeneracy check.
    """

    vertices: np.ndarray
    elements: np.ndarray
    intrinsic_dim: int
    closed: bool = True

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        validate_immersion(self)

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.intrinsic_dim

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @functools.cached_property
    def topology(self) -> "MeshTopology":
        return MeshTopology(self)

    @functools.cached_property
    def element_measures(self) -> np.ndarray:
        """Length of each segment or area of each triangle (any ambient dim)."""
        x = self.vertices
        el = self.elements
        if self.intrinsic_dim == 1:
            return np.linalg.norm(x[el[:, 1]] - x[el[:, 0]], axis=1)
        e1 = x[el[:, 1]] - x[el[:, 0]]
        e2 = x[el[:, 2]] - x[el[:, 0]]
        g11 = np.einsum("ij,ij->i", e1, e1)
        g22 = np.einsum("ij,ij->i", e2, e2)
        g12 = np.einsum("ij,ij->i", e1, e2)
        gram = np.clip(g11 * g22 - g12 ** 2, 0.0, None)
        return 0.5 * np.sqrt(gram)

    @functools.cached_property
    def vertex_weights(self) -> np.ndarray:
        """Barycentric lumped vertex measure; sums to total length/area."""
        share = self.element_measures / (self.intrinsic_dim + 1)
        weights = np.zeros(self.num_vertices)
        np.add.at(weights, self.elements.ravel(), np.repeat(share, self.intrinsic_dim + 1))
        return weights

    @functools.cached_property
    def stiffness(self) -> sparse.csr_matrix:
        """Laplace-Beltrami stiffness S of this vertex array (``laplace_beltrami``)."""
        return laplace_beltrami(self)

    def with_vertices(self, vertices: np.ndarray) -> "DiscreteImmersion":
        """Same connectivity, new positions; shares ``topology`` with self but
        none of the arrays of self's vertex array."""
        expected = self.topology.num_vertices
        new = copy.copy(self)
        for name in ("element_measures", "vertex_weights", "stiffness"):
            new.__dict__.pop(name, None)
        new.vertices = np.ascontiguousarray(vertices, dtype=float)
        _check_coordinates(new)
        # the elements reference every one of the old vertices exactly
        if new.num_vertices < expected:
            raise InvalidImmersion("element index out of range")
        if new.num_vertices > expected:
            raise InvalidImmersion("every vertex must appear in at least one element")
        _check_measures(new)
        return new

    def transformed(self, rotation=None, translation=None, scale=1.0):
        x = self.vertices * scale
        if rotation is not None:
            x = x @ np.asarray(rotation, dtype=float).T
        if translation is not None:
            x = x + np.asarray(translation, dtype=float)
        return self.with_vertices(x)


def validate_immersion(imm: DiscreteImmersion) -> None:
    """Full check of a freshly built immersion: connectivity and geometry."""
    n = imm.intrinsic_dim
    if n not in (1, 2):
        raise UnsupportedDimension(f"intrinsic dimension {n} not supported")
    _check_coordinates(imm)
    if imm.elements.ndim != 2 or imm.elements.shape[1] != n + 1:
        raise InvalidImmersion(f"elements must have {n + 1} vertices each")
    nv = imm.num_vertices
    if imm.elements.size == 0:
        raise InvalidImmersion("immersion has no elements")
    if imm.elements.min() < 0 or imm.elements.max() >= nv:
        raise InvalidImmersion("element index out of range")

    referenced = np.zeros(nv, dtype=bool)
    referenced[imm.elements.ravel()] = True
    if not referenced.all():
        raise InvalidImmersion("every vertex must appear in at least one element")

    _check_measures(imm)

    if n == 1:
        degrees = np.bincount(imm.elements.ravel(), minlength=nv)
        if imm.closed:
            if not (degrees == 2).all():
                raise InvalidImmersion("closed curve must be a union of cycles")
        else:
            if degrees.max() > 2:
                raise InvalidImmersion("polyline vertex with more than two segments")
    else:
        _check_surface_edges(imm)


def _check_coordinates(imm: DiscreteImmersion) -> None:
    if imm.vertices.ndim != 2 or imm.vertices.shape[1] < imm.intrinsic_dim + 1:
        raise InvalidImmersion("ambient dimension must be at least n+1")
    if not np.isfinite(imm.vertices).all():
        raise InvalidImmersion("non-finite vertex coordinates")


def _check_measures(imm: DiscreteImmersion) -> None:
    measures = imm.element_measures
    small = measures <= DEGENERATE_TOL * measures.mean()
    if small.any():
        raise DegenerateElement(
            f"{int(small.sum())} element(s) below the degeneracy tolerance"
        )


def _directed_edges(elements: np.ndarray) -> np.ndarray:
    """Oriented edges: the segments themselves, or the three sides of each triangle."""
    if elements.shape[1] == 2:
        return elements
    return np.concatenate([elements[:, [0, 1]], elements[:, [1, 2]], elements[:, [2, 0]]])


def _check_surface_edges(imm: DiscreteImmersion) -> None:
    directed = _directed_edges(imm.elements)
    keys = directed[:, 0] * imm.num_vertices + directed[:, 1]
    if len(np.unique(keys)) != len(keys):
        raise InvalidImmersion("inconsistent orientation: repeated directed edge")
    und = np.sort(directed, axis=1)
    und_keys = und[:, 0] * imm.num_vertices + und[:, 1]
    _, counts = np.unique(und_keys, return_counts=True)
    if imm.closed:
        if not (counts == 2).all():
            raise InvalidImmersion("closed surface edge not shared by exactly 2 triangles")
    else:
        if counts.max() > 2:
            raise InvalidImmersion("non-manifold edge")


def _corner_edges(imm: DiscreteImmersion):
    """Every triangle corner (i, j, k) of ``MeshTopology.corners`` and its
    edges u = x_j - x_i, v = x_k - x_i."""
    x = imm.vertices
    i, j, k = imm.topology.corners
    return i, j, k, x[j] - x[i], x[k] - x[i]


def laplace_beltrami(imm: DiscreteImmersion) -> sparse.csr_matrix:
    """Stiffness matrix S of the current metric; read it as ``imm.stiffness``.

    Cotangent weights for surfaces, inverse segment lengths for curves.  With
    the lumped mass M = ``imm.vertex_weights`` the operator is
    Delta = M^{-1} (-S), and S is positive semidefinite.
    """
    from scipy import sparse

    nv = imm.num_vertices
    if imm.intrinsic_dim == 1:
        w = 1.0 / imm.element_measures
    else:
        # the weight of edge jk is half the cotangent of the angle at i
        _, _, _, u, v = _corner_edges(imm)
        uv = np.einsum("ij,ij->i", u, v)
        cross2 = np.einsum("ij,ij->i", u, u) * np.einsum("ij,ij->i", v, v) - uv ** 2
        area2 = np.sqrt(np.clip(cross2, 0.0, None))
        w = 0.5 * (uv / np.where(area2 > 0, area2, np.inf))
    slot, indices, indptr = imm.topology.stiffness_pattern
    # a slot collects at most two weights (an edge lies in at most two
    # elements), and a sum of two floats does not depend on their order, so
    # this equals the summed duplicates of a COO assembly bit for bit
    data = np.bincount(slot, weights=np.concatenate([w, w]), minlength=len(indices))
    off = sparse.csr_matrix((data, indices, indptr), shape=(nv, nv))
    # the row sums of csr.sum(axis=1); every vertex has a neighbour
    diag = np.add.reduceat(data, indptr[:-1])
    return sparse.diags(diag) - off


def angle_defects(imm: DiscreteImmersion) -> np.ndarray:
    """2*pi minus the incident triangle angles at each vertex (n=2 only)."""
    if imm.intrinsic_dim != 2:
        raise UnsupportedDimension("angle defect defined for n=2")
    i, _, _, u, v = _corner_edges(imm)
    cosang = np.einsum("ij,ij->i", u, v) / (
        np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
    )
    defect = np.full(imm.num_vertices, 2.0 * np.pi)
    np.subtract.at(defect, i, np.arccos(np.clip(cosang, -1.0, 1.0)))
    return defect


class MeshTopology:
    """Connectivity caches shared by the curvature and flow pipelines.

    Built once per connectivity; positions are not stored, so one topology
    serves every step of a flow with fixed elements.
    """

    def __init__(self, imm: DiscreteImmersion):
        self.intrinsic_dim = imm.intrinsic_dim
        self.num_vertices = imm.num_vertices
        self.elements = imm.elements
        self.edges = np.unique(np.sort(_directed_edges(imm.elements), axis=1), axis=0)
        self._ring_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @functools.cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays (i, j, k) of every triangle corner (n=2 only).

        Corners run over (0, 1, 2), (1, 2, 0), (2, 0, 1) of each triangle;
        each array has 3T rows, corner 0 of every triangle first.
        """
        if self.intrinsic_dim != 2:
            raise UnsupportedDimension("corners defined for n=2")
        return tuple(np.roll(self.elements, -c, axis=1).T.ravel() for c in range(3))

    @functools.cached_property
    def stiffness_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slot, indices, indptr) of the off-diagonal stiffness in CSR form.

        ``laplace_beltrami`` has one weight per segment, or per triangle
        corner for the edge (j, k) opposite it, and enters it at (a, b) and
        (b, a); ``slot`` is the position in the sorted CSR data of each of
        those 2E or 6T entries, weights at (a, b) first.
        """
        if self.intrinsic_dim == 1:
            a, b = self.elements[:, 0], self.elements[:, 1]
        else:
            _, a, b = self.corners
        nv = self.num_vertices
        keys = np.concatenate([a * nv + b, b * nv + a])
        pairs, slot = np.unique(keys, return_inverse=True)
        rows, indices = np.divmod(pairs, nv)
        indptr = np.zeros(nv + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nv), out=indptr[1:])
        return slot, indices, indptr

    def ring_neighborhoods(self, ring: int) -> tuple[np.ndarray, np.ndarray]:
        """Padded (V, m) index array and boolean mask of ring-BFS neighborhoods.

        Row v lists v first, then neighbors by increasing graph depth and
        index; padding repeats v with mask False.  Built once per ring from
        the patterns of the powers (A + I)^k, k = 0..ring, of the adjacency
        matrix A: w lies at depth ring + 1 - #{k : w in (A + I)^k} from v.
        """
        if ring < 1:
            raise ValueError("ring must be >= 1")
        if ring in self._ring_cache:
            return self._ring_cache[ring]
        from scipy import sparse

        nv = self.num_vertices
        loops = np.arange(nv)
        heads = np.concatenate([self.edges[:, 0], self.edges[:, 1], loops])
        tails = np.concatenate([self.edges[:, 1], self.edges[:, 0], loops])
        hop = sparse.csr_matrix((np.ones(len(heads)), (heads, tails)), shape=(nv, nv))
        reach = sparse.identity(nv, format="csr")
        hits = reach
        for _ in range(ring):
            reach = reach @ hop
            reach.data[:] = 1.0
            hits = hits + reach
        rows = np.repeat(loops, np.diff(hits.indptr))
        order = np.lexsort((hits.indices, -hits.data, rows))
        rows, cols = rows[order], hits.indices[order]
        pos = np.arange(len(rows)) - hits.indptr[rows]
        width = int(np.diff(hits.indptr).max())
        idx = np.repeat(loops[:, None], width, axis=1)
        mask = np.zeros((nv, width), dtype=bool)
        idx[rows, pos] = cols
        mask[rows, pos] = True
        self._ring_cache[ring] = (idx, mask)
        return idx, mask

    @functools.cached_property
    def cycles(self) -> list[np.ndarray]:
        """Ordered vertex cycles of a closed curve (n=1 only)."""
        if self.intrinsic_dim != 1:
            raise UnsupportedDimension("cycles defined for n=1")
        nxt = {}
        for a, b in self.elements:
            nxt[int(a)] = int(b)
        visited = set()
        out = []
        for start in nxt:
            if start in visited:
                continue
            cyc = [start]
            visited.add(start)
            cur = nxt[start]
            while cur != start:
                cyc.append(cur)
                visited.add(cur)
                cur = nxt[cur]
            out.append(np.asarray(cyc, dtype=np.int64))
        return out


# ---------------------------------------------------------------------------
# snapshot formats

def write_snapshot(imm: DiscreteImmersion, path, scalars: dict | None = None) -> None:
    """CSV snapshot: x0..x{D-1},H2,A2,Aring2,weight plus a connectivity sidecar."""
    scalars = scalars or {}
    dim = imm.ambient_dim
    header = [f"x{i}" for i in range(dim)] + ["H2", "A2", "Aring2", "weight"]
    cols = [imm.vertices[:, i] for i in range(dim)]
    zeros = np.zeros(imm.num_vertices)
    cols.append(np.asarray(scalars.get("H2", zeros)))
    cols.append(np.asarray(scalars.get("A2", zeros)))
    cols.append(np.asarray(scalars.get("Aring2", zeros)))
    cols.append(np.asarray(scalars["weight"] if "weight" in scalars else imm.vertex_weights))
    data = np.column_stack(cols)
    path = str(path)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data.tolist():  # Python floats: repr is the shortest round trip
            fh.write(",".join(map(repr, row)) + "\n")
    with open(_sidecar_path(path), "w") as fh:
        for el in imm.elements.tolist():
            fh.write(" ".join(map(str, el)) + "\n")


def read_snapshot(path):
    """Load a CSV snapshot; returns (immersion, scalar columns dict).

    Text that does not parse raises ``ParseError`` naming the file, and the
    line where one is known: a short or long row, a non-numeric cell, a file
    without data rows, a non-integer sidecar index or a sidecar row of the
    wrong arity.  Geometry faults raise what ``DiscreteImmersion`` raises.
    """
    path = str(path)
    header, data = _read_table(path, ",", float, header=True)
    if len(header) < 5:
        raise ParseError(f"{path}:1: header needs coordinates plus H2,A2,Aring2,weight", line=1)
    dim = len(header) - 4
    _, elements = _read_table(_sidecar_path(path), None, int)
    scalars = {
        "H2": data[:, dim],
        "A2": data[:, dim + 1],
        "Aring2": data[:, dim + 2],
        "weight": data[:, dim + 3],
    }
    imm = DiscreteImmersion(
        vertices=data[:, :dim], elements=elements, intrinsic_dim=elements.shape[1] - 1
    )
    return imm, scalars


def _read_table(path: str, sep, convert, header: bool = False):
    """(header tokens or None, array of ``convert``ed cells) of a text table.

    Blank lines are skipped; every row must be as wide as the header, or as
    the first row when there is none.
    """
    names, width, rows = None, None, []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.strip().split(sep)
                if header and names is None:
                    names, width = tokens, len(tokens)
                    continue
                if not line.strip():
                    continue
                width = width or len(tokens)
                if len(tokens) != width:
                    raise ParseError(
                        f"{path}:{lineno}: expected {width} values, got {len(tokens)}",
                        line=lineno,
                    )
                try:
                    rows.append([convert(tok) for tok in tokens])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}", line=lineno) from None
        table = np.array(rows, dtype=convert)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a text file") from None
    except OverflowError:
        raise ParseError(f"{path}: value out of range") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return names, table


def _sidecar_path(path: str) -> str:
    base = path[:-4] if path.endswith(".csv") else path
    return base + ".elements.txt"
