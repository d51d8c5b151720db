"""Self-adjoint extension engine on finite-dimensional models.

A symmetric model consists of a symmetric relation T in C^n + C^n, a fixed
self-adjoint extension A between T and its adjoint, and a nonreal spectral
parameter mu.  Because finite dimension rules out densely defined symmetric
operators with defect, T is genuinely a relation; elements of the domain of
the adjoint are carried as pairs (z, z') in the adjoint relation and every
formula of the extension calculus is applied at the level of pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .relspace import (DEFAULT_TOL, LinearRelation, RelationStack, Subspace,
                       _adjoint_complement, _complex_pairs, _freeze,
                       _json_pairs, _null_space_dims, _rescaled_norms,
                       adjoint_relation, cayley_unitaries, cayley_unitary,
                       is_self_adjoint, relation_from_json, relation_to_json)

__all__ = [
    "SymmetricModel",
    "random_symmetric_model",
    "random_selfadjoint_relation",
    "deficiency_spaces",
    "extension_isometry",
    "relation_resolvent_apply",
    "VonNeumannSplit",
    "von_neumann_components",
    "lagrange_residual",
    "boundary_data",
    "extension_from_relation",
    "partial_cayley",
    "embed_boundary_unitary",
    "cayley_factorization_check",
    "model_to_json",
    "model_from_json",
]


def _inner(u, v):
    """Standard inner product, conjugate-linear in the second slot."""
    return complex(np.vdot(v, u))


@dataclass(frozen=True)
class SymmetricModel:
    """A symmetric relation T with reference extension A and parameter mu,
    both in one space C^n + C^n with n = `dim`.

    Models are immutable; the isometry V of the reference extension is
    computed on first use and cached on the model.
    """

    T: LinearRelation
    A: LinearRelation
    mu: complex = 1j
    Tstar: LinearRelation = field(init=False, repr=False)
    kplus: Subspace = field(init=False, repr=False)
    kminus: Subspace = field(init=False, repr=False)

    def __post_init__(self):
        dims = {self.T.dom_dim, self.T.cod_dim, self.A.dom_dim, self.A.cod_dim}
        if len(dims) != 1:
            raise ValueError("T and A must lie in one space C^n + C^n")
        if self.mu.imag == 0:
            raise ValueError("mu must be nonreal")
        tstar = adjoint_relation(self.T)
        if not tstar.contains_relation(self.T):
            raise ValueError("T is not symmetric: T is not contained in T*")
        if not is_self_adjoint(self.A):
            raise ValueError("reference extension A is not self-adjoint")
        if not (self.A.contains_relation(self.T)
                and tstar.contains_relation(self.A)):
            raise ValueError("A is not squeezed between T and T*")
        # K+ = Ker(T* - mu) = Im(T - conj(mu))^perp and K- likewise: the
        # left null spaces of the two images of T's graph basis, by one
        # stacked SVD, orthonormal as they come; with equal dims each is
        # its whole block
        x, y = self.T.dom_block(), self.T.cod_block()
        images = np.stack([y - np.conj(self.mu) * x, y - self.mu * x])
        null, dims = _null_space_dims(images.conj().swapaxes(-1, -2))
        if dims[0] != dims[1]:
            raise ValueError("defect numbers disagree; no reference "
                             "extension can exist")
        object.__setattr__(self, "Tstar", tstar)
        object.__setattr__(self, "kplus", Subspace(null[0]))
        object.__setattr__(self, "kminus", Subspace(null[1]))

    @property
    def dim(self):
        return self.T.dom_dim

    @property
    def defect(self):
        return self.kminus.dim

    def with_mu(self, mu):
        """The full model of the same T and A at another nonreal mu."""
        return SymmetricModel(self.T, self.A, mu=mu)

    @cached_property
    def _a_invertible(self):
        """Whether A has neither a kernel nor a multivalued part.

        On the orthonormal graph basis [X; Y] of A, mul A = 0 exactly when
        X has full rank and ker A = 0 exactly when Y has, each by the rank
        rule of `_null_space_dims`; one stacked SVD decides both.
        """
        svals = np.linalg.svd(np.stack([self.A.dom_block(),
                                        self.A.cod_block()]),
                              compute_uv=False)
        return bool((svals > DEFAULT_TOL * svals[..., :1]).all())

    @cached_property
    def _isometry(self):
        """V = (A - mu)(A - conj(mu))^(-1) on the K+ basis, read-only.

        One resolvent solve within A for all basis vectors y of K+, each
        checked against its own residual bound.
        """
        mu = self.mu
        y = self.kplus.basis
        w, _, resid = relation_resolvent_apply(self.A, np.conj(mu),
                                               (mu - np.conj(mu)) * y)
        if not np.all(resid <= 1e3 * DEFAULT_TOL
                      * np.maximum(1.0, np.linalg.norm(y, axis=0))):
            raise np.linalg.LinAlgError("resolvent solve failed within A")
        return _freeze(y - w)

    @cached_property
    def _w(self):
        """W = K-^H V, the isometry on the orthonormal defect bases."""
        return self.kminus.basis.conj().T @ self._isometry


def random_symmetric_model(rng, dim, defect, mu=1j):
    """Random model: a Hermitian matrix restricted to a random subspace.

    The spectrum of the Hermitian core is kept away from zero so that the
    reference extension is invertible.  T's graph is orthonormalized once,
    from the random draw Z and its image; A's graph comes from the
    eigenpairs (q_j, l_j) as the columns (q_j, l_j q_j) / sqrt(1 + l_j^2),
    orthonormal by construction.
    """
    if not 0 <= defect <= dim:
        raise ValueError("defect must lie between 0 and dim")
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    evals = signs * rng.uniform(0.5, 3.0, size=dim)
    herm = q @ np.diag(evals) @ q.conj().T
    z = (rng.standard_normal((dim, dim - defect))
         + 1j * rng.standard_normal((dim, dim - defect)))
    t_rel = LinearRelation.from_blocks(z, herm @ z)
    scale = 1.0 / np.sqrt(1.0 + evals ** 2)
    a_rel = LinearRelation(dim, dim, Subspace(np.vstack(
        [q * scale, q * (evals * scale)])))
    return SymmetricModel(t_rel, a_rel, mu=mu)


def random_selfadjoint_relation(rng, dim):
    """Random self-adjoint relation on C^dim, via the inverse Cayley map.

    For a unitary U the graph basis [i(U - I)/2; (U + I)/2] is orthonormal,
    X^H X + Y^H Y = I, so it is taken as given.
    """
    q, r = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    x_blk = 0.5j * (u - np.eye(dim))
    y_blk = 0.5 * (u + np.eye(dim))
    return LinearRelation(dim, dim, Subspace(np.vstack([x_blk, y_blk])))


def deficiency_spaces(model):
    """Deficiency subspaces: kernels of T* - mu and T* - conj(mu)."""
    return model.kplus, model.kminus


def model_to_json(model):
    return {"dim": model.dim,
            "T": relation_to_json(model.T),
            "A": relation_to_json(model.A),
            "mu": _json_pairs([model.mu])[0]}


def model_from_json(obj):
    mu = complex(_complex_pairs([obj["mu"]])[0])
    model = SymmetricModel(relation_from_json(obj["T"]),
                           relation_from_json(obj["A"]), mu=mu)
    dim = obj["dim"]
    if type(dim) is not int or dim != model.dim:
        raise ValueError(f"dim is {dim!r}, not the JSON integer {model.dim}")
    return model


def relation_resolvent_apply(rel, shift, rhs):
    """Within a relation, find the pair (w, w') with w' - shift*w = rhs.

    Returns (w, w', residual) where the residual reports the least-squares
    defect of the solve; it vanishes when shift is in the resolvent set.
    A matrix rhs is solved column by column in one solve, and the residual
    is then the array of column residuals.
    """
    x_blk = rel.dom_block()
    y_blk = rel.cod_block()
    coeff, *_ = np.linalg.lstsq(y_blk - shift * x_blk, rhs, rcond=None)
    w = x_blk @ coeff
    wprime = y_blk @ coeff
    resid = np.linalg.norm((wprime - shift * w) - rhs, axis=0)
    return w, wprime, resid


def extension_isometry(model):
    """Matrix of the isometry (A - mu)(A - conj(mu))^(-1) from K+ to K-.

    Columns are the images of the orthonormal basis vectors of K+ as vectors
    in the ambient space.  The matrix is computed once per model and is
    read-only.
    """
    return model._isometry


@dataclass
class VonNeumannSplit:
    """Decomposition of a pair in T* into symmetric and deficiency parts."""

    z_T: np.ndarray          # pair (stacked, length 2n) in T
    z_plus: np.ndarray       # vector in K+
    z_minus: np.ndarray      # vector in K-
    z0: np.ndarray           # first boundary value, in K-
    z1: np.ndarray           # second boundary value, in K-
    split_residual: float    # distance of z_T from T
    reconstruction_residual: float | None


def _as_pair(model, z):
    """A stacked pair (z, z') of length 2n as a flat complex vector; any
    other length raises ValueError."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.size != 2 * model.dim:
        raise ValueError("a pair of T* is stacked as (z, z') of length 2n")
    return z


def _split_block(model, pairs):
    """Coefficients of the deficiency parts of a 2n x k block of pairs in T*.

    Every column must lie in T* within 10 * DEFAULT_TOL * max(1, |column|),
    the membership bound of `Subspace.contains`, measured on a scaled copy
    of a column whose norm overflows.  The decomposition is
    along T (+) {(y, mu y)} (+) {(y, conj(mu) y)}, and its deficiency parts
    are orthogonal projections: Im(T - conj(mu)) is orthogonal to K+, so a
    pair (x, x') has c_plus = K+^H (x' - conj(mu) x) / (mu - conj(mu)), and
    c_minus likewise with mu and conj(mu) traded.  Returns the coefficient
    blocks (c_plus, c_minus) on the bases of K+ and K-.
    """
    graph = model.Tstar.graph
    scaled, norms = _rescaled_norms(pairs, axis=-2)
    outside = scaled - graph.basis @ (graph.basis.conj().T @ scaled)
    scale = np.maximum(1.0, norms)
    if not np.all(np.linalg.norm(outside, axis=0) <= 10 * DEFAULT_TOL * scale):
        raise ValueError("input pair does not belong to T*")
    mu, mu_bar = model.mu, np.conj(model.mu)
    x, xp = pairs[:model.dim], pairs[model.dim:]
    c_plus = model.kplus.basis.conj().T @ (xp - mu_bar * x) / (mu - mu_bar)
    c_minus = model.kminus.basis.conj().T @ (xp - mu * x) / (mu_bar - mu)
    return c_plus, c_minus


def _boundary_coords(w, mu, c_plus, c_minus):
    """Coordinates on the K- basis of the two boundary values.

    z0 = z_minus + V z_plus and z1 = -mu z_minus - conj(mu) V z_plus, from
    the split coefficients of z_plus and z_minus and W = K-^H V.  The
    interval model (`sturm`) applies it to coefficients on its four traces.
    """
    v_plus = w @ c_plus
    return c_minus + v_plus, -mu * c_minus - np.conj(mu) * v_plus


def _unit_scaled(pair):
    """(pair, 1.0) for a pair of finite norm; for a pair whose norm
    overflows, the copy of it that `_rescaled_norms` measures, divided by
    its largest real or imaginary part, and that part.  A residual that is
    linear in the pair is measured on the copy and multiplied back by the
    part, so it is finite wherever its value is representable."""
    scaled, _ = _rescaled_norms(pair)
    if scaled is pair:
        return pair, 1.0
    return scaled, float(np.maximum(abs(pair.real), abs(pair.imag)).max())


def von_neumann_components(model, z):
    """Split a pair in T* along T (+) {(y, mu y)} (+) {(y, conj(mu) y)}.

    Takes the pair stacked as (z, z') of length 2n; any other length raises
    ValueError.  The boundary values are
    z0 = z_minus + V z_plus and z1 = -mu z_minus - conj(mu) V z_plus.
    When A is invertible the reconstruction identity
    z = z_T + A(A - mu)^(-1) z0 + (A - mu)^(-1) z1 is checked and its
    residual reported; otherwise that field is None.  A pair whose norm
    overflows is split as a copy scaled by its largest part, and its parts
    and residuals are scaled back.
    """
    pair, scale = _unit_scaled(_as_pair(model, z))
    n = model.dim
    c_plus, c_minus = _split_block(model, pair[:, None])
    g0, g1 = _boundary_coords(model._w, model.mu, c_plus, c_minus)
    mu = model.mu
    km = model.kminus.basis
    z_plus = (model.kplus.basis @ c_plus)[:, 0]
    z_minus = (km @ c_minus)[:, 0]
    z_t = pair - np.concatenate([z_plus + z_minus,
                                 mu * z_plus + np.conj(mu) * z_minus])
    t_basis = model.T.graph.basis
    split_resid = np.linalg.norm(z_t - t_basis @ (t_basis.conj().T @ z_t))
    z0 = (km @ g0)[:, 0]
    z1 = (km @ g1)[:, 0]
    recon = None
    if model._a_invertible:
        w, wp, r = relation_resolvent_apply(model.A, mu,
                                            np.column_stack([z0, z1]))
        recon = float(np.linalg.norm(pair[:n] - (z_t[:n] + wp[:, 0]
                                                 + w[:, 1]))
                      + r[0] + r[1]) * scale
    parts = (z_t, z_plus, z_minus, z0, z1)
    if scale != 1.0:
        parts = [vec * scale for vec in parts]
    return VonNeumannSplit(*parts, float(split_resid) * scale, recon)


def lagrange_residual(model, x, z):
    """Residual of the abstract Lagrange identity for two pairs in T*, each
    stacked as in `von_neumann_components`.

    |<x', z> - <x, z'> - (<G1 x, G0 z> - <G0 x, G1 z>)| with the boundary
    values from one von Neumann split of both pairs.  A pair whose norm
    overflows is measured as a copy scaled by its largest part, and the
    residual is scaled back.
    """
    xp, x_scale = _unit_scaled(_as_pair(model, x))
    zp, z_scale = _unit_scaled(_as_pair(model, z))
    n = model.dim
    c_plus, c_minus = _split_block(model, np.column_stack([xp, zp]))
    g0, g1 = _boundary_coords(model._w, model.mu, c_plus, c_minus)
    lhs = _inner(xp[n:], zp[:n]) - _inner(xp[:n], zp[n:])
    rhs = _inner(g1[:, 0], g0[:, 1]) - _inner(g0[:, 0], g1[:, 1])
    # Python floats: a product past the largest float is inf, with no
    # warning
    return abs(lhs - rhs) * x_scale * z_scale


def boundary_data(model):
    """Boundary-value matrices of the deficiency triplet on a basis of T*.

    Returns (basis, g0, g1): `basis` is the pair basis of T*, and the
    columns of g0, g1 are the coordinates of the two boundary values of each
    basis pair with respect to the orthonormal basis of K-.  The whole basis
    is split at once, by its two projections onto K+ and K-.
    """
    basis = model.Tstar.graph.basis
    g0, g1 = _boundary_coords(model._w, model.mu, *_split_block(model, basis))
    return basis, g0, g1


def extension_from_relation(model, boundary_rel):
    """Extension of T defined by a boundary relation on K- coordinates.

    Restrict T* to the pairs whose boundary values (G0 z, G1 z) lie in the
    given relation.  The result is self-adjoint exactly when the boundary
    relation is; a non-self-adjoint input is accepted but flagged.
    """
    perp = _check_boundary_relation(model, boundary_rel)
    _, g0, g1 = boundary_data(model)
    return _extensions(model, g0[None], g1[None], perp)[0]


def _check_boundary_relation(model, boundary_rel, stacklevel=3):
    """Reject a boundary relation B of the wrong size, warn, in the frame
    of the public function's caller, when it is not self-adjoint, and
    return an orthonormal basis of the orthogonal complement of its graph.

    The complement comes from the one SVD of B's adjoint, as
    B^perp = {(y, -x) : (x, y) in B*}, and the verdict from B's Lagrange
    form (`relspace._adjoint_complement`).
    """
    d = model.kminus.dim
    if boundary_rel.dom_dim != d or boundary_rel.cod_dim != d:
        raise ValueError("boundary relation does not match the defect space")
    perp, self_adjoint = _adjoint_complement(boundary_rel)
    if not self_adjoint:
        warnings.warn("boundary relation is not self-adjoint; the extension "
                      "will not be self-adjoint either",
                      stacklevel=stacklevel)
    return perp


def _extensions(model, g0, g1, perp):
    """Extensions of T cut by the boundary relation whose graph has the
    orthogonal complement spanned by `perp`, one for each member of a
    stack (N, d, n + d) of boundary values g0, g1 of the T* basis, as a
    RelationStack, from one stacked cut.

    Each graph basis is the orthonormal basis of T* times the orthonormal
    null-space coefficients of its cut, orthonormal as it is, so it is
    taken as given.  Cuts of different null dimensions raise LinAlgError.
    """
    coeff, dims = _boundary_cut(g0, g1, perp)
    if (dims != dims[0]).any():
        raise np.linalg.LinAlgError("the boundary cuts differ in dimension")
    return RelationStack(model.dim, model.dim,
                         model.Tstar.graph.basis @ coeff)


def _boundary_cut(g0, g1, perp):
    """Coefficients of the combinations of the columns of (g0; g1), or of
    each member of a stack of them, that lie in the boundary relation
    whose graph has the orthogonal complement spanned by `perp`, with the
    null dimensions, laid out as `_null_space_dims` gives them."""
    return _null_space_dims(perp.conj().T
                            @ np.concatenate([g0, g1], axis=-2))


def partial_cayley(rel, mu):
    """mu-Cayley transform of a symmetric relation as a partial isometry.

    Maps (y' - conj(mu) y) to (y' - mu y) over the pairs of the relation and
    vanishes on the orthogonal complement of Im(T - conj(mu)).
    """
    x_blk = rel.dom_block()
    y_blk = rel.cod_block()
    m1 = y_blk - np.conj(mu) * x_blk
    m2 = y_blk - mu * x_blk
    return m2 @ np.linalg.pinv(m1, rcond=DEFAULT_TOL)


def embed_boundary_unitary(subspace, small_unitary):
    """Extend a unitary on a subspace by the identity on its complement."""
    b = subspace.basis
    n = subspace.ambient_dim
    return np.eye(n, dtype=complex) + b @ (small_unitary - np.eye(b.shape[1])) @ b.conj().T


def cayley_factorization_check(model, boundary_rel):
    """Residuals of the two Cayley factorization identities.

    The boundary relation (in defect-space coordinates) is read once on K-
    for the identity U(A') = U(B)_H U(A) with mu = i, and once on
    K+ = Ker(T* - i) for the twin identity U(A') = U(A) U(B)_H obtained
    from mu = -i.  Requires mu = i in the model.  At -i, K+ and K- trade
    places, so do the two coefficient blocks of the split, and W = K-^H V
    becomes W^(-1) = W^H: both extensions are cut from one split of the
    T* basis, and the one least-squares solve is the resolvent solve at i.
    A W farther than 1e3 * DEFAULT_TOL from unitary raises LinAlgError.
    The boundary relation is checked once for both identities.
    """
    res_plus, res_minus, _ = _factorization(model, boundary_rel)
    return res_plus, res_minus


def _factorization(model, boundary_rel):
    """`cayley_factorization_check`, also returning the two extensions
    (at i and at -i) that it built, as a RelationStack.

    The relation algebra is done once: the complement of B's graph comes
    from B's adjoint, both extensions are cut by one stacked null space of
    the (2, d, n + d) cuts, and U(A) and their Cayley transforms are one
    batch of three; U(B) is taken alone.  B's self-adjointness is read off
    its Lagrange form, and each Cayley inverse certifies its own
    denominator, so on a fresh model that is 2 SVDs (B's adjoint and the
    cut), 2 inverses and the one least-squares solve.  For a d-dimensional
    B both cuts have null dimension n, since (g0; g1) maps onto C^2d.
    """
    if model.mu != 1j:
        raise ValueError("factorization check requires mu = i")
    u_b = cayley_unitary(boundary_rel)
    # stacklevel 4: the caller of cayley_factorization_check
    perp = _check_boundary_relation(model, boundary_rel, stacklevel=4)
    w = model._w
    if (np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1]))
            > 1e3 * DEFAULT_TOL):
        raise np.linalg.LinAlgError("isometry of the reference extension is "
                                    "not unitary")
    c_plus, c_minus = _split_block(model, model.Tstar.graph.basis)
    # the boundary values at i, and at -i with the blocks swapped and W^H
    g0_plus, g1_plus = _boundary_coords(w, 1j, c_plus, c_minus)
    g0_minus, g1_minus = _boundary_coords(w.conj().T, -1j, c_minus, c_plus)
    extensions = _extensions(model, np.stack([g0_plus, g0_minus]),
                             np.stack([g1_plus, g1_minus]), perp)
    # A leads the Cayley batch and the extensions are read back from it:
    # no basis is held twice, and no input of the cut outlives it, where
    # a large model sets the peak memory of the check
    del c_plus, c_minus, g0_plus, g1_plus, g0_minus, g1_minus
    bases = np.concatenate([model.A.graph.basis[None], extensions.bases])
    extensions = RelationStack(model.dim, model.dim, bases[1:])
    u_a, u_prime, u_second = cayley_unitaries(
        RelationStack(model.dim, model.dim, bases))
    u_bh_minus = embed_boundary_unitary(model.kminus, u_b)
    res_plus = np.linalg.norm(u_prime - u_bh_minus @ u_a)
    u_bh_plus = embed_boundary_unitary(model.kplus, u_b)
    res_minus = np.linalg.norm(u_second - u_a @ u_bh_plus)
    return float(res_plus), float(res_minus), extensions
