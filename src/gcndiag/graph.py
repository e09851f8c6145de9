"""Immutable CSR graph and its symmetrically normalized propagation operator.

Dense matrices throughout the package are plain ``numpy.ndarray`` in float64,
row-major. The graph side is stored in compressed sparse row form so the
propagation product scales with the number of edges.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError, is_integer


@dataclass(frozen=True)
class Graph:
    """Undirected graph: no self-loops, no duplicate edges, neighbors sorted.

    ``num_edges`` counts each undirected edge once; the CSR arrays store both
    directions, so the degree sum equals ``2 * num_edges``.
    """

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    num_edges: int

    def __post_init__(self):
        if self.row_offsets.shape != (self.n + 1,):
            raise InputError(
                f"row_offsets needs n+1 entries, got {self.row_offsets.shape[0]} "
                f"for n={self.n}"
            )
        if int(self.row_offsets[-1]) != self.col_indices.size:
            raise InputError("row_offsets do not cover col_indices")
        self.row_offsets.setflags(write=False)
        self.col_indices.setflags(write=False)

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def half_edge_sources(self) -> np.ndarray:
        """Source node of each half-edge, aligned with ``col_indices``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())

    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) array with u < v, each undirected edge once."""
        src = self.half_edge_sources()
        keep = src < self.col_indices
        return np.column_stack([src[keep], self.col_indices[keep]])


def build_graph(edge_list, n: int) -> Graph:
    """Build an undirected CSR graph from raw (u, v) pairs.

    Input may contain duplicates, both orientations of an edge, and
    self-loops; all are normalized away. Node ids must be integers in
    [0, n); a float id such as 1.0 counts, 1.7 and NaN do not.
    """
    if not is_integer(n) or n <= 0:
        raise InputError(f"node count must be a positive integer, got {n!r}")
    edges = np.asarray(edge_list)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise InputError("edge list must be a sequence of (u, v) pairs")
    ids = edges.astype(np.float64)  # so a fractional or NaN id fails, not truncated
    bad = (ids != np.floor(ids)) | (ids < 0) | (ids >= n)
    if bad.any():
        idx = int(np.flatnonzero(bad.any(axis=1))[0])
        u, v = edges[idx].tolist()
        raise InputError(
            f"edge {idx}: node id not an integer in [0, {n}): ({u}, {v})", index=idx
        )
    edges = edges.astype(np.int64)

    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi  # drop self-loops
    codes = np.unique(lo[keep] * n + hi[keep])
    u, v = codes // n, codes % n

    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=n)
    row_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return Graph(
        n=n,
        row_offsets=row_offsets,
        col_indices=dst.astype(np.int64),
        num_edges=int(codes.size),
    )


@dataclass(frozen=True)
class NormAdj:
    """Normalized adjacency with self-loops, held as one read-only CSR matrix.

    Entry (u, v) carries weight 1/sqrt((deg(u)+1)(deg(v)+1)) for graph edges,
    and the diagonal carries 1/(deg(u)+1); an isolated node therefore maps to
    the 1x1 identity.
    """

    n: int
    matrix: "scipy.sparse.csr_matrix"

    def __post_init__(self):
        for arr in (self.matrix.indptr, self.matrix.indices, self.matrix.data):
            arr.setflags(write=False)


def normalized_adjacency(g: Graph) -> NormAdj:
    """Compute D^{-1/2} (A + I) D^{-1/2} where D counts degrees plus the self-loop.

    scipy is imported here, so a command that builds no operator never
    loads it.
    """
    import scipy.sparse as sp

    deg = g.degrees().astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    weights = inv_sqrt[g.half_edge_sources()] * inv_sqrt[g.col_indices]
    off_diag = sp.csr_matrix(
        (weights, g.col_indices.copy(), g.row_offsets.copy()), shape=(g.n, g.n)
    )
    full = off_diag + sp.diags(inv_sqrt * inv_sqrt, format="csr")
    full.sort_indices()
    return NormAdj(n=g.n, matrix=full)


def spmm(a: NormAdj, m: np.ndarray) -> np.ndarray:
    """Sparse-dense product a @ m; fixed per-row summation order, deterministic."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"right operand must be 2-D, got ndim={m.ndim}")
    if m.shape[0] != a.n:
        raise ShapeError(
            f"dimension mismatch: adjacency is {a.n}x{a.n}, dense operand has "
            f"{m.shape[0]} rows"
        )
    return a.matrix @ m
