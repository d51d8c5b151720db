"""Subspaces of C^n and linear relations in C^n + C^m.

Subspaces are carried as matrices with orthonormal columns obtained from an
SVD; rank decisions use the one threshold DEFAULT_TOL relative to the largest
singular value, and every other bound of the package that decides a rank or
a membership is a fixed multiple of it.
Each basis is orthonormalized once: `from_span` is for arbitrary spanning
columns, while a basis that is orthonormal by construction, such as the
right singular vectors of an SVD null space (an adjoint, or the deficiency
spaces of `cayley.SymmetricModel`), an orthonormal basis times an
orthonormal coefficient block, or the graphs built by the random builders
of `cayley` from unitary matrices, is taken as given by `Subspace(basis)`.
Linear relations are subspaces of the direct sum of domain and codomain and
are the common carrier for boundary conditions, deficiency spaces and
Lagrangian planes.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10

__all__ = [
    "DEFAULT_TOL",
    "Subspace",
    "LinearRelation",
    "RelationStack",
    "span_orthonormalize",
    "adjoint_relation",
    "relations_from_span",
    "is_self_adjoint",
    "is_self_adjoint_batch",
    "cayley_unitary",
    "cayley_unitaries",
    "parts_decomposition",
    "map_relation",
    "restrict_relation",
    "matrix_to_json",
    "matrix_from_json",
    "relation_to_json",
    "relation_from_json",
]


def _as_matrix(a, rows=None):
    """Validate and convert input to a complex 2-d array (vectors become columns)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries in input matrix")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {a.shape[0]}")
    return a


def _hermitian_part(mat, tol, error, skew=False):
    """Hermitian part of a square matrix (skew-Hermitian part when skew),
    after checking that the matrix is that part up to tol * max(1, ||mat||)
    in Frobenius norm; raises ValueError(error) otherwise."""
    mat = np.asarray(mat, dtype=complex)
    adj = -mat.conj().T if skew else mat.conj().T
    if np.linalg.norm(mat - adj) > tol * max(1.0, np.linalg.norm(mat)):
        raise ValueError(error)
    return 0.5 * (mat + adj)


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _orthonormal_columns(columns):
    """Orthonormal basis of the column span of a matrix, or of each matrix
    in a stack (..., m, k); directions with singular value <= DEFAULT_TOL *
    s_max of their own matrix are dropped.

    Columns are normalized first so that the relative threshold reflects
    angles between directions, not disparate column scales.  Columns that
    are zero in every matrix are dropped; a column zero in only some members
    stays as a zero column of those.

    Returns (basis, ranks): basis has shape (..., m, r) with r the largest
    rank in the stack, and the columns of a member past its own rank are
    zero.  For a single matrix basis is exactly (m, rank).
    """
    *batch, m, _ = columns.shape
    norms = np.linalg.norm(columns, axis=-2)
    nonzero = norms > 0.0
    keep = nonzero.any(axis=tuple(range(len(batch)))) if batch else nonzero
    if not keep.all():
        columns, norms, nonzero = (columns[..., keep], norms[..., keep],
                                   nonzero[..., keep])
    if columns.shape[-1] == 0:
        return (np.zeros((*batch, m, 0), dtype=complex),
                np.zeros(batch, dtype=int))
    if batch and not nonzero.all():
        norms = np.where(nonzero, norms, 1.0)
    u, s, _ = np.linalg.svd(columns / norms[..., None, :],
                            full_matrices=False)
    ranks = (s > DEFAULT_TOL * s[..., :1]).sum(axis=-1)
    rank = int(ranks.max()) if batch else int(ranks)
    u = u[..., :rank]
    if batch and (ranks < rank).any():
        u = np.where(np.arange(rank) < ranks[..., None, None], u, 0.0)
    return u, ranks


class Subspace:
    """A subspace of C^n carried by an orthonormal column basis.

    The constructor takes the basis as given; `from_span` is the constructor
    that orthonormalizes arbitrary spanning columns.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, basis):
        basis = _as_matrix(basis)
        self.ambient_dim = basis.shape[0]
        self.basis = _freeze(basis)

    @classmethod
    def from_span(cls, columns, ambient_dim=None):
        columns = _as_matrix(columns, rows=ambient_dim)
        return cls(_orthonormal_columns(columns)[0])

    @classmethod
    def zero(cls, ambient_dim):
        return cls(np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim):
        return cls(np.eye(ambient_dim))

    @property
    def dim(self):
        return self.basis.shape[1]

    def complement(self):
        """Orthogonal complement."""
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return Subspace(u[:, self.dim:])

    def gap(self, other):
        """Largest principal-angle sine between two subspaces of the same
        ambient space; 1.0 when the dimensions differ.

        The sines are computed directly, as singular values of the
        complement projection of one basis onto the other, which stays
        accurate near zero where the cosine route loses half the digits.
        """
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")
        if self.dim != other.dim:
            return 1.0
        if self.dim == 0:
            return 0.0
        resid = other.basis - self.basis @ (self.basis.conj().T @ other.basis)
        s = np.linalg.svd(resid, compute_uv=False)
        return float(min(1.0, s[0]))

    def contains(self, other):
        """Whether a vector or a subspace lies in this subspace: its residual
        off the subspace is at most 10 * DEFAULT_TOL * max(1, its norm)."""
        if isinstance(other, Subspace):
            mat = other.basis
        else:
            mat = _as_matrix(other, rows=self.ambient_dim)
        resid = mat - self.basis @ (self.basis.conj().T @ mat)
        scale = max(1.0, np.linalg.norm(mat))
        return bool(np.linalg.norm(resid) <= 10 * DEFAULT_TOL * scale)

    def intersect(self, other):
        """Intersection: the null space of the stacked orthogonality
        constraints, orthonormal as the SVD returns it."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")
        cons = np.vstack([
            self.complement().basis.conj().T,
            other.complement().basis.conj().T,
        ])
        return Subspace(_null_space(cons))

    def add(self, other):
        """Span of the union."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")
        return Subspace.from_span(np.hstack([self.basis, other.basis]))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _null_space(a):
    """Orthonormal basis of Ker a, with the same relative rank threshold.

    For a stack (..., m, n) the null space of each member: member i has the
    last n - rank_i columns of the result, and any columns before those are
    zero.
    """
    return _null_space_dims(a)[0]


def _null_space_dims(a):
    """`_null_space` of a matrix or a stack, with the null dimension
    n - rank_i of each member."""
    *batch, m, n = a.shape
    if m == 0 or not a.any():
        return (np.tile(np.eye(n, dtype=complex), (*batch, 1, 1)),
                np.full(batch, n))
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    ranks = (s > DEFAULT_TOL * s[..., :1]).sum(axis=-1)
    low = int(ranks.min()) if batch else int(ranks)
    null = vh[..., low:, :].conj().swapaxes(-1, -2)
    if batch and (ranks > low).any():
        null = np.where(np.arange(low, n) >= ranks[..., None, None], null,
                        0.0)
    return null, n - ranks


def span_orthonormalize(columns):
    """Subspace spanned by the given columns.

    Singular directions with singular value <= DEFAULT_TOL * (largest
    singular value) are dropped.  Non-finite entries are rejected.
    """
    return Subspace.from_span(columns)


class LinearRelation:
    """A linear relation in C^dom_dim + C^cod_dim, i.e. a subspace of pairs."""

    __slots__ = ("dom_dim", "cod_dim", "graph")

    def __init__(self, dom_dim, cod_dim, graph):
        if graph.ambient_dim != dom_dim + cod_dim:
            raise ValueError("graph ambient dimension does not match dom+cod")
        self.dom_dim = int(dom_dim)
        self.cod_dim = int(cod_dim)
        self.graph = graph

    @classmethod
    def from_span(cls, dom_dim, cod_dim, columns):
        sub = Subspace.from_span(columns, ambient_dim=dom_dim + cod_dim)
        return cls(dom_dim, cod_dim, sub)

    @classmethod
    def from_blocks(cls, x_block, y_block):
        x_block = _as_matrix(x_block)
        y_block = _as_matrix(y_block)
        return cls.from_span(x_block.shape[0], y_block.shape[0],
                             np.vstack([x_block, y_block]))

    @classmethod
    def graph_of(cls, matrix):
        """The graph {(x, Mx)} of a matrix."""
        matrix = _as_matrix(matrix)
        n = matrix.shape[1]
        return cls.from_blocks(np.eye(n), matrix)

    @classmethod
    def zero_times_full(cls, dim):
        """The purely multivalued relation 0 + C^dim."""
        return cls.from_blocks(np.zeros((dim, dim)), np.eye(dim))

    @property
    def dim(self):
        return self.graph.dim

    def dom_block(self):
        return self.graph.basis[: self.dom_dim]

    def cod_block(self):
        return self.graph.basis[self.dom_dim:]

    def kernel_at(self, shift):
        """The subspace {x : (x, shift*x) in relation}."""
        coeff = _null_space(self.cod_block() - shift * self.dom_block())
        return Subspace.from_span(self.dom_block() @ coeff,
                                  ambient_dim=self.dom_dim)

    def multivalued_part(self):
        """The subspace {y : (0, y) in relation}."""
        coeff = _null_space(self.dom_block())
        return Subspace.from_span(self.cod_block() @ coeff,
                                  ambient_dim=self.cod_dim)

    def contains_relation(self, other):
        return self.graph.contains(other.graph)

    def gap(self, other):
        if (self.dom_dim, self.cod_dim) != (other.dom_dim, other.cod_dim):
            raise ValueError("relation shapes differ")
        return self.graph.gap(other.graph)

    def __repr__(self):
        return (f"LinearRelation(dom={self.dom_dim}, cod={self.cod_dim}, "
                f"dim={self.dim})")


class RelationStack:
    """A read-only sequence of relations in C^dom_dim + C^cod_dim, carried
    as one stack of graph bases (N, dom_dim + cod_dim, r) with the columns
    of member i past ranks[i] zero.

    The stacked relation code reads the bases directly; indexing or
    iterating builds the member as a `LinearRelation` on demand.
    """

    __slots__ = ("dom_dim", "cod_dim", "bases", "ranks")

    def __init__(self, dom_dim, cod_dim, bases, ranks):
        self.dom_dim = int(dom_dim)
        self.cod_dim = int(cod_dim)
        self.bases = _freeze(bases)
        self.ranks = _freeze(np.asarray(ranks, dtype=int))

    def __len__(self):
        return len(self.bases)

    def __getitem__(self, i):
        basis = self.bases[i][:, :self.ranks[i]]
        return LinearRelation(self.dom_dim, self.cod_dim, Subspace(basis))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self):
        return (f"RelationStack(len={len(self)}, dom={self.dom_dim}, "
                f"cod={self.cod_dim})")


def _groups(rels):
    """Indices of the relations grouped by (dom_dim, cod_dim, dim), in
    order of first appearance; the members of a group stack.  A
    RelationStack is grouped by the ranks of its members."""
    if isinstance(rels, RelationStack):
        return [((rels.dom_dim, rels.cod_dim, k),
                 np.flatnonzero(rels.ranks == k))
                for k in dict.fromkeys(rels.ranks.tolist())]
    groups = {}
    for i, rel in enumerate(rels):
        groups.setdefault((rel.dom_dim, rel.cod_dim, rel.dim), []).append(i)
    return groups.items()


def _graph_stack(rels, idx):
    """Graph bases of the indexed relations, all of one dimension, as one
    contiguous stack; a single relation of a list stays a plain matrix,
    which the stack code treats as a zero-batch stack."""
    if isinstance(rels, RelationStack):
        k = rels.ranks[idx[0]]
        return np.ascontiguousarray(rels.bases[idx][..., :k])
    if len(idx) == 1:
        return rels[idx[0]].graph.basis
    return np.array([rels[i].graph.basis for i in idx])


def relations_from_span(dom_dim, cod_dim, columns):
    """One relation per matrix of a stack (N, dom_dim + cod_dim, k): member i
    is `LinearRelation.from_span(dom_dim, cod_dim, columns[i])`, all
    orthonormalized by one stacked SVD into a RelationStack."""
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 3 or columns.shape[1] != dom_dim + cod_dim:
        raise ValueError(f"expected a stack of matrices with "
                         f"{dom_dim + cod_dim} rows, got shape "
                         f"{columns.shape}")
    if not np.isfinite(columns).all():
        raise ValueError("non-finite entries in input matrix")
    return RelationStack(dom_dim, cod_dim, *_orthonormal_columns(columns))


def _adjoint_bases(bases, dom_dim, gram_dom, gram_cod):
    """Graph bases of the adjoints of a relation, or of each member of a
    stack of graph bases (..., dom_dim + cod_dim, k).

    The adjoint is the null space of the constraints <b_j, x>_cod -
    <a_j, y>_dom = 0, whose SVD basis is orthonormal and is returned as it
    is.  Returns (basis, ranks) laid out as `_orthonormal_columns` lays out
    a stack: the ranks are the null dimensions, and on a stack each member
    has its null columns first and its zero columns last.
    """
    a_blk = bases[..., :dom_dim, :]
    b_blk = bases[..., dom_dim:, :]
    cod_dim = b_blk.shape[-2]
    gcod = np.eye(cod_dim) if gram_cod is None else np.asarray(gram_cod)
    gdom = np.eye(dom_dim) if gram_dom is None else np.asarray(gram_dom)
    # row j of the constraint matrix: <b_j, x>_cod - <a_j, y>_dom = 0
    cons = np.concatenate([b_blk.conj().swapaxes(-1, -2) @ gcod,
                           -a_blk.conj().swapaxes(-1, -2) @ gdom], axis=-1)
    null, dims = _null_space_dims(cons)
    width = null.shape[-1]
    if (dims < width).any():
        # _null_space puts the zero columns of a member first: rotate each
        # member's columns by its count of them, an index permutation
        cols = (np.arange(width) + (width - dims)[..., None]) % width
        null = np.take_along_axis(null, cols[..., None, :], axis=-1)
    return null, dims


def adjoint_relation(rel, gram_dom=None, gram_cod=None):
    """Adjoint of a relation: pairs (x, y) with <b, x> = <a, y> for all (a, b).

    Inner products default to the standard ones; optional Gram matrices give
    the inner products of weighted ambient spaces.  The result lives in
    C^cod_dim + C^dom_dim.
    """
    basis, _ = _adjoint_bases(rel.graph.basis, rel.dom_dim, gram_dom,
                              gram_cod)
    return LinearRelation(rel.cod_dim, rel.dom_dim, Subspace(basis))


def is_self_adjoint_batch(rels, *, gram=None):
    """`is_self_adjoint` of every relation of a sequence, as a boolean array.

    Relations of equal shape share one stacked adjoint and one stacked gap
    computation; each is judged by its gap to its adjoint against
    100 * DEFAULT_TOL.  A relation with dom_dim != cod_dim is not
    self-adjoint.
    """
    flags = np.zeros(len(rels), dtype=bool)
    for (n, cod_dim, k), idx in _groups(rels):
        if n != cod_dim:
            continue
        bases = _graph_stack(rels, idx)
        adj, adj_dims = _adjoint_bases(bases, n, gram, gram)
        # gap of subspaces: 1 when the dimensions differ, else the largest
        # principal-angle sine, as in Subspace.gap
        same = adj_dims == k
        gaps = np.where(same, 0.0, 1.0)
        if k and same.any():
            if not same.all():
                bases, adj = bases[same], adj[same]
            other = adj[..., :k]
            resid = other - bases @ (bases.conj().swapaxes(-1, -2) @ other)
            top = np.linalg.svd(resid, compute_uv=False)[..., 0]
            gaps[same] = np.minimum(1.0, top)
        flags[idx] = gaps <= 100 * DEFAULT_TOL
    return flags


def is_self_adjoint(rel, gram=None):
    """Whether a square relation equals its adjoint within the gap tolerance
    100 * DEFAULT_TOL."""
    if rel.dom_dim != rel.cod_dim:
        raise ValueError("self-adjointness needs dom_dim == cod_dim")
    return bool(is_self_adjoint_batch([rel], gram=gram)[0])


def cayley_unitaries(rels):
    """Cayley transforms of a sequence of self-adjoint relations, each as
    `cayley_unitary` gives it, by one stacked SVD and inverse per relation
    shape.

    Every relation is checked for a numerically singular Y + iX.
    """
    out = [None] * len(rels)
    for (n, cod_dim, k), idx in _groups(rels):
        if n != cod_dim:
            raise ValueError("Cayley transform needs dom_dim == cod_dim")
        if k != n:
            raise ValueError(
                f"relation of dimension {k} in C^{n}+C^{n} cannot be "
                "self-adjoint")
        bases = _graph_stack(rels, idx)
        x_blk = bases[..., :n, :]
        y_blk = bases[..., n:, :]
        denom = y_blk + 1j * x_blk
        if n > 0:
            svals = np.linalg.svd(denom, compute_uv=False)
            bad = (svals[..., -1]
                   <= DEFAULT_TOL * np.maximum(1.0, svals[..., 0]))
            if bad.any():
                raise np.linalg.LinAlgError(
                    "Y + iX is numerically singular: the relation is not "
                    "self-adjoint within tolerance")
        unitaries = (y_blk - 1j * x_blk) @ np.linalg.inv(denom)
        for i, u in zip(idx, unitaries.reshape(len(idx), n, n)):
            out[i] = u
    return out


def cayley_unitary(rel):
    """Cayley transform (B - i)(B + i)^(-1) of a self-adjoint relation.

    With the graph basis stacked as [X; Y] the transform is
    (Y - iX)(Y + iX)^(-1).  Multivalued directions map to the eigenvalue +1
    and graph-of-zero directions to -1.
    """
    return cayley_unitaries([rel])[0]


def parts_decomposition(rel):
    """Split a relation into its operator part and multivalued part.

    The multivalued part is {y : (0, y) in B}; the operator part is the
    restriction B /\\ (C^n + mul^perp), so B = operator_part (+) (0 + mul).
    """
    mul = rel.multivalued_part()
    op = restrict_relation(rel, Subspace.full(rel.dom_dim), mul.complement())
    return op, mul


def map_relation(lin_map, rel):
    """Image of a relation under an invertible linear map of C^dom + C^cod."""
    lin_map = _as_matrix(lin_map, rows=rel.dom_dim + rel.cod_dim)
    _check_invertible(lin_map)
    return LinearRelation.from_span(rel.dom_dim, rel.cod_dim,
                                    lin_map @ rel.graph.basis)


def _check_invertible(lin_map):
    svals = np.linalg.svd(lin_map, compute_uv=False)
    # the map of the zero space (no singular values) is invertible
    if svals.size and svals[-1] <= DEFAULT_TOL * max(1.0, svals[0]):
        raise ValueError("map_relation requires an invertible map")


def restrict_relation(rel, dom_sub, cod_sub):
    """Intersection B /\\ (K_dom + K_cod), via stacked null-space constraints."""
    if dom_sub.ambient_dim != rel.dom_dim or cod_sub.ambient_dim != rel.cod_dim:
        raise ValueError("restriction subspaces do not match the relation")
    cons = np.vstack([
        dom_sub.complement().basis.conj().T @ rel.dom_block(),
        cod_sub.complement().basis.conj().T @ rel.cod_block(),
    ])
    coeff = _null_space(cons)
    return LinearRelation.from_span(rel.dom_dim, rel.cod_dim,
                                    rel.graph.basis @ coeff)


def _json_pairs(values):
    """[re, im] float pairs of a sequence of complex numbers, in order."""
    return [[float(z.real), float(z.imag)] for z in values]


def _complex_pairs(nested, depth=1):
    """Complex array of lists of [re, im] number pairs nested `depth` deep,
    equal bit for bit to complex(re, im) of each; ValueError on any other
    entry."""
    error = "basis entries must be [re, im] pairs of numbers"
    try:
        pairs = np.array(nested)
    except ValueError:
        # ragged nesting, such as a null entry among the pairs
        raise ValueError(error) from None
    if pairs.size == 0 and pairs.ndim == depth:
        pairs = pairs.reshape(*pairs.shape, 2)
    # strings and nulls give text or object arrays
    if (pairs.dtype.kind not in "biuf" or pairs.ndim != depth + 1
            or pairs.shape[-1] != 2):
        raise ValueError(error)
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def matrix_to_json(mat):
    """Dense matrix as nested [re, im] pairs, row-major."""
    return [_json_pairs(row) for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(obj):
    """Inverse of `matrix_to_json`; the empty list is the 0 x 0 matrix."""
    if not obj:
        return np.zeros((0, 0), dtype=complex)
    return _complex_pairs(obj, depth=2)


def relation_to_json(rel):
    """JSON-ready dict; basis entries are [re, im] pairs in column-major order."""
    return {"dom_dim": rel.dom_dim, "cod_dim": rel.cod_dim,
            "basis": _json_pairs(rel.graph.basis.T.ravel())}


def relation_from_json(obj):
    dom_dim = obj["dom_dim"]
    cod_dim = obj["cod_dim"]
    # JSON integers only: not a float, a string or a bool
    if (type(dom_dim) is not int or type(cod_dim) is not int
            or dom_dim < 0 or cod_dim < 0 or dom_dim + cod_dim == 0):
        raise ValueError("dom_dim and cod_dim must be integers >= 0, "
                         "not both 0")
    flat = _complex_pairs(obj["basis"])
    rows = dom_dim + cod_dim
    if len(flat) % rows:
        raise ValueError("basis length is not a multiple of dom_dim + cod_dim")
    # the entries run down the columns
    mat = np.ascontiguousarray(flat.reshape(-1, rows).T)
    return LinearRelation.from_span(dom_dim, cod_dim, mat)
