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
    "is_self_adjoint",
    "is_self_adjoint_batch",
    "cayley_unitary",
    "cayley_unitaries",
    "parts_decomposition",
    "map_relation",
    "map_relations",
    "restrict_relation",
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
    in Frobenius norm; raises ValueError(error) otherwise.  A non-square or
    non-finite matrix raises ValueError first: no comparison holds for a
    NaN, so the check alone would pass one."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(mat).all():
        raise ValueError("non-finite entries in input matrix")
    adj = -mat.conj().T if skew else mat.conj().T
    if np.linalg.norm(mat - adj) > tol * max(1.0, np.linalg.norm(mat)):
        raise ValueError(error)
    return 0.5 * (mat + adj)


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _rescaled_norms(a, axis=None, zeros=False):
    """Norms of the columns of `a` (axis=-2) or of the whole matrix
    (axis=None), with the reduced axes kept.  Where a norm overflows (or,
    with `zeros`, underflows to 0), that column or matrix is divided by its
    largest real or imaginary part and measured again; the divisions are
    real, since a modulus could overflow, and so could numpy's complex
    division by a subnormal.  Returns (a, norms), and whatever is measured
    once keeps its bits.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=axis, keepdims=True)
    redo = np.isinf(norms) | (zeros & (norms == 0.0))
    if redo.any():
        peak = np.maximum(abs(a.real), abs(a.imag)).max(
            axis=axis, initial=0.0, keepdims=True)
        scale = np.where(redo & (peak > 0.0), peak, 1.0)
        a = a.copy()
        a.real /= scale
        a.imag /= scale
        norms = np.where(redo, np.linalg.norm(a, axis=axis, keepdims=True),
                         norms)
    return a, norms


def _orthonormal_columns(columns):
    """Orthonormal basis of the column span of a matrix, or of each matrix
    of a stack (..., m, k) whose members have one rank; directions with
    singular value <= DEFAULT_TOL * s_max of their own matrix are dropped.

    Columns are normalized first so that the relative threshold reflects
    angles between directions, not disparate column scales; a column whose
    norm overflows or underflows is measured again after scaling, so no
    column is lost to its scale alone.  Columns that are zero in every
    matrix are dropped.  Returns the basis (..., m, rank); members of a
    stack that come out with different ranks raise ValueError.
    """
    *batch, m, _ = columns.shape
    columns, norms = _rescaled_norms(columns, axis=-2, zeros=True)
    keep = (norms > 0.0).any(axis=tuple(range(norms.ndim - 1)))
    if not keep.all():
        columns, norms = columns[..., keep], norms[..., keep]
    if columns.shape[-1] == 0:
        return np.zeros((*batch, m, 0), dtype=complex)
    # a column zero in some members only spans nothing in those
    u, s, _ = np.linalg.svd(columns / np.where(norms > 0.0, norms, 1.0),
                            full_matrices=False)
    ranks = (s > DEFAULT_TOL * s[..., :1]).sum(axis=-1)
    rank = ranks.flat[0]
    if (ranks != rank).any():
        raise ValueError("the members of the stack differ in rank")
    return u[..., :rank]


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
        return cls(_orthonormal_columns(columns))

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
        return float(_gaps(self.basis, other.basis))

    def contains(self, other):
        """Whether a vector or a subspace lies in this subspace: its residual
        off the subspace is at most 10 * DEFAULT_TOL * max(1, its norm)."""
        if isinstance(other, Subspace):
            mat = other.basis
        else:
            mat = _as_matrix(other, rows=self.ambient_dim)
        # where its norm overflows the bound is relative, so a scaled copy
        # is measured instead
        mat, norm = _rescaled_norms(mat)
        resid = mat - self.basis @ (self.basis.conj().T @ mat)
        return bool(np.linalg.norm(resid)
                    <= 10 * DEFAULT_TOL * max(1.0, norm.item()))

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


def _gaps(a, b):
    """Largest principal-angle sine between the spans of two orthonormal
    bases of one dimension, or between those of each pair of a stack."""
    resid = b - a @ (a.conj().swapaxes(-1, -2) @ b)
    return np.minimum(1.0, np.linalg.svd(resid, compute_uv=False)[..., 0])


def _null_space(a):
    """Orthonormal basis of Ker a, with the same relative rank threshold."""
    return _null_space_dims(a)[0]


def _null_space_dims(a):
    """Null space of a matrix, or of each member of a stack (..., m, n),
    with the null dimension n - rank_i of each member.

    The basis is the right singular vectors as the SVD returns them, as
    many as the largest null dimension: member i's null space is its last
    dims[i] columns, so a stack whose members differ in rank is read member
    by member.
    """
    *batch, m, n = a.shape
    if m == 0 or not a.any():
        return (np.tile(np.eye(n, dtype=complex), (*batch, 1, 1)),
                np.full(batch, n))
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    ranks = (s > DEFAULT_TOL * s[..., :1]).sum(axis=-1)
    return vh[..., ranks.min():, :].conj().swapaxes(-1, -2), n - ranks


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
    """A read-only sequence of relations of one dimension in
    C^dom_dim + C^cod_dim, carried as one stack of graph bases
    (N, dom_dim + cod_dim, dim).

    The stacked relation code reads the bases directly; indexing or
    iterating builds the member as a `LinearRelation` on demand.
    """

    __slots__ = ("dom_dim", "cod_dim", "bases")

    def __init__(self, dom_dim, cod_dim, bases):
        self.dom_dim = int(dom_dim)
        self.cod_dim = int(cod_dim)
        self.bases = _freeze(bases)

    @property
    def dim(self):
        return self.bases.shape[-1]

    def __len__(self):
        return len(self.bases)

    def __getitem__(self, i):
        return LinearRelation(self.dom_dim, self.cod_dim,
                              Subspace(self.bases[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self):
        return (f"RelationStack(len={len(self)}, dom={self.dom_dim}, "
                f"cod={self.cod_dim}, dim={self.dim})")


def _groups(rels):
    """The relations grouped by shape (dom_dim, cod_dim, dim), in order of
    first appearance, as a list of (shape, indices, bases) with the graph
    bases of each group as one contiguous stack.  A nonempty
    RelationStack is one group, with its bases as they are."""
    if isinstance(rels, RelationStack):
        return ([((rels.dom_dim, rels.cod_dim, rels.dim),
                  np.arange(len(rels)), rels.bases)] if len(rels) else [])
    if len(rels) == 1:
        # one relation: a read-only view of its basis, not a copy
        (rel,) = rels
        return [((rel.dom_dim, rel.cod_dim, rel.dim), np.arange(1),
                 rel.graph.basis[None])]
    groups = {}
    for i, rel in enumerate(rels):
        groups.setdefault((rel.dom_dim, rel.cod_dim, rel.dim), []).append(i)
    return [(shape, idx, np.array([rels[i].graph.basis for i in idx]))
            for shape, idx in groups.items()]


def _one_shape(rels):
    """(dom_dim, cod_dim, bases) of relations of one shape, a sequence or a
    RelationStack; relations of different shapes, or no relations, raise
    ValueError."""
    groups = _groups(rels)
    if len(groups) != 1:
        raise ValueError("relations differ in shape" if groups
                         else "no relations")
    (((dom_dim, cod_dim, _), _, bases),) = groups
    return dom_dim, cod_dim, bases


def _adjoint_bases(bases, dom_dim, gram):
    """Graph bases of the adjoints of a relation, or of each member of a
    stack of graph bases (..., dom_dim + cod_dim, k), for the standard
    inner products or for the Gram matrix `gram` on both components.

    The adjoint is the null space of the constraints <b_j, x> -
    <a_j, y> = 0, whose SVD basis is orthonormal and is returned as it is.
    Without a Gram matrix the constraints are the conjugate blocks as they
    are, with no product by an identity.  Returns (basis, dims) as
    `_null_space_dims` lays out a stack: member i's adjoint is its last
    dims[i] columns.
    """
    # row j of the constraint matrix: <b_j, x> - <a_j, y> = 0
    rows = [bases[..., dom_dim:, :].conj().swapaxes(-1, -2),
            -bases[..., :dom_dim, :].conj().swapaxes(-1, -2)]
    if gram is not None:
        gram = np.asarray(gram)
        rows = [row @ gram for row in rows]
    return _null_space_dims(np.concatenate(rows, axis=-1))


def adjoint_relation(rel, gram=None):
    """Adjoint of a relation: pairs (x, y) with <b, x> = <a, y> for all (a, b).

    Inner products default to the standard ones; an optional Gram matrix
    gives the inner product of a weighted space, the same on both
    components, so it needs dom_dim == cod_dim.  The result lives in
    C^cod_dim + C^dom_dim.
    """
    if gram is not None and rel.dom_dim != rel.cod_dim:
        raise ValueError("a Gram matrix needs dom_dim == cod_dim")
    basis, _ = _adjoint_bases(rel.graph.basis, rel.dom_dim, gram)
    return LinearRelation(rel.cod_dim, rel.dom_dim, Subspace(basis))


def is_self_adjoint_batch(rels, *, gram=None):
    """`is_self_adjoint` of every relation of a sequence, as a boolean array.

    Relations of equal shape share one stacked adjoint and one stacked gap
    computation, so a list may mix shapes, as a fixture's samples do; each
    is judged by its gap to its adjoint against 100 * DEFAULT_TOL.  A
    relation with dom_dim != cod_dim is not self-adjoint.
    """
    flags = np.zeros(len(rels), dtype=bool)
    for (n, cod_dim, _), idx, bases in _groups(rels):
        if n == cod_dim:
            flags[idx] = _adjoints_and_verdicts(bases, n, gram)[1]
    return flags


def _adjoints_and_verdicts(bases, n, gram):
    """The adjoints of a stack of graph bases (N, 2n, k) of relations in
    C^n + C^n, laid out as `_adjoint_bases` gives them, and whether each
    relation is self-adjoint: its gap to its adjoint is at most
    100 * DEFAULT_TOL."""
    k = bases.shape[-1]
    adj, adj_dims = _adjoint_bases(bases, n, gram)
    # gap of subspaces: 1 when the dimensions differ, else the largest
    # principal-angle sine, as in Subspace.gap
    same = adj_dims == k
    gaps = np.where(same, 0.0, 1.0)
    if k and same.any():
        gaps = np.where(same, _gaps(bases, adj[..., -k:]), 1.0)
    return adj, gaps <= 100 * DEFAULT_TOL


def _adjoint_complement(rel):
    """Orthonormal basis of the orthogonal complement of the graph of a
    relation B in C^n + C^n, and `is_self_adjoint(B)`, from one adjoint.

    B^perp = {(y, -x) : (x, y) in B*} for every B, self-adjoint or not:
    <a, y> - <b, x> = 0 for all (a, b) in B is the adjoint's constraint,
    and both sides have dimension 2n - dim B.  The swapped orthonormal
    adjoint basis [Y; -X] is orthonormal as it stands, so the complement
    costs no SVD of its own.
    """
    n = rel.dom_dim
    adj, (self_adjoint,) = _adjoints_and_verdicts(
        rel.graph.basis[None], n, None)
    return np.concatenate([adj[0, n:], -adj[0, :n]]), bool(self_adjoint)


def is_self_adjoint(rel, gram=None):
    """Whether a square relation equals its adjoint within the gap tolerance
    100 * DEFAULT_TOL."""
    if rel.dom_dim != rel.cod_dim:
        raise ValueError("self-adjointness needs dom_dim == cod_dim")
    return bool(is_self_adjoint_batch([rel], gram=gram)[0])


def cayley_unitaries(rels):
    """Cayley transforms of self-adjoint relations of one shape, a sequence
    or a RelationStack, as one array (N, n, n) whose members are as
    `cayley_unitary` gives them: one stacked SVD checks every Y + iX for
    numerical singularity, and one stacked inverse divides by it.

    Relations of different shapes, or no relations, raise ValueError.
    """
    n, cod_dim, bases = _one_shape(rels)
    if n != cod_dim:
        raise ValueError("Cayley transform needs dom_dim == cod_dim")
    if bases.shape[-1] != n:
        raise ValueError(f"relation of dimension {bases.shape[-1]} in "
                         f"C^{n}+C^{n} cannot be self-adjoint")
    x_blk = bases[..., :n, :]
    y_blk = bases[..., n:, :]
    # Y + iX, then Y - iX once its inverse is taken, in one buffer: at
    # most three (N, n, n) arrays are live, where a large batch sets the
    # peak memory of its caller
    work = np.multiply(1j, x_blk)
    np.add(y_blk, work, out=work)
    if n > 0:
        svals = np.linalg.svd(work, compute_uv=False)
        if (svals[..., -1]
                <= DEFAULT_TOL * np.maximum(1.0, svals[..., 0])).any():
            raise np.linalg.LinAlgError(
                "Y + iX is numerically singular: the relation is not "
                "self-adjoint within tolerance")
    inverse = np.linalg.inv(work)
    np.multiply(1j, x_blk, out=work)
    np.subtract(y_blk, work, out=work)
    return work @ inverse


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


def map_relations(lin_map, rels):
    """Images of relations of one shape, a sequence or a RelationStack,
    under an invertible linear map of C^dom + C^cod, as a RelationStack.

    The map is checked for invertibility once, and the mapped graph bases
    are orthonormalized by one stacked SVD; each image equals
    `map_relation` of its relation.  Relations of different shapes, or no
    relations, raise ValueError.
    """
    dom_dim, cod_dim, bases = _one_shape(rels)
    lin_map = _as_matrix(lin_map, rows=dom_dim + cod_dim)
    _check_invertible(lin_map, "map_relation requires an invertible map")
    return RelationStack(dom_dim, cod_dim,
                         _orthonormal_columns(lin_map @ bases))


def map_relation(lin_map, rel):
    """Image of a relation under an invertible linear map of C^dom + C^cod:
    the one-relation form of `map_relations`."""
    return map_relations(lin_map, [rel])[0]


def _check_invertible(lin_map, message):
    """Raise ValueError(message) unless sigma_min > DEFAULT_TOL * max(1,
    sigma_max) for the finite square matrix `lin_map`."""
    svals = np.linalg.svd(lin_map, compute_uv=False)
    # the map of the zero space (no singular values) is invertible
    if svals.size and svals[-1] <= DEFAULT_TOL * max(1.0, svals[0]):
        raise ValueError(message)


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


def _complex_pairs(nested):
    """Complex vector of a list of [re, im] number pairs, equal bit for bit
    to complex(re, im) of each; ValueError on any other entry."""
    error = "basis entries must be [re, im] pairs of numbers"
    try:
        pairs = np.array(nested)
    except ValueError:
        # ragged nesting, such as a null entry among the pairs
        raise ValueError(error) from None
    if pairs.size == 0 and pairs.ndim == 1:
        pairs = pairs.reshape(0, 2)
    # strings and nulls give text or object arrays
    if (pairs.dtype.kind not in "biuf" or pairs.ndim != 2
            or pairs.shape[-1] != 2):
        raise ValueError(error)
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


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
