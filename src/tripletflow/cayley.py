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

from .relspace import (DEFAULT_TOL, LinearRelation, Subspace, _freeze,
                       _null_space, adjoint_relation, cayley_unitary,
                       is_self_adjoint, restrict_relation)

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
    """A symmetric relation T with reference extension A and parameter mu.

    Models are immutable; the isometry V of the reference extension is
    computed on first use and cached on the model.
    """

    dim: int
    T: LinearRelation
    A: LinearRelation
    mu: complex = 1j
    tol: float = DEFAULT_TOL
    Tstar: LinearRelation = field(init=False, repr=False)
    kplus: Subspace = field(init=False, repr=False)
    kminus: Subspace = field(init=False, repr=False)

    def __post_init__(self):
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
        kplus = tstar.kernel_at(self.mu)
        kminus = tstar.kernel_at(np.conj(self.mu))
        if kplus.dim != kminus.dim:
            raise ValueError("defect numbers disagree; no reference "
                             "extension can exist")
        object.__setattr__(self, "Tstar", tstar)
        object.__setattr__(self, "kplus", kplus)
        object.__setattr__(self, "kminus", kminus)

    @property
    def defect(self):
        return self.kminus.dim

    def with_mu(self, mu):
        return SymmetricModel(self.dim, self.T, self.A, mu=mu, tol=self.tol)

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
        if not np.all(resid <= 1e3 * self.tol
                      * np.maximum(1.0, np.linalg.norm(y, axis=0))):
            raise np.linalg.LinAlgError("resolvent solve failed within A")
        return _freeze(y - w)


def random_symmetric_model(rng, dim, defect, mu=1j, tol=DEFAULT_TOL):
    """Random model: a Hermitian matrix restricted to a random subspace.

    The spectrum of the Hermitian core is kept away from zero so that the
    reference extension is invertible.
    """
    if not 0 <= defect <= dim:
        raise ValueError("defect must lie between 0 and dim")
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    evals = signs * rng.uniform(0.5, 3.0, size=dim)
    herm = q @ np.diag(evals) @ q.conj().T
    dom = Subspace.from_span(rng.standard_normal((dim, dim - defect))
                             + 1j * rng.standard_normal((dim, dim - defect)),
                             ambient_dim=dim, tol=tol)
    t_rel = LinearRelation.from_blocks(dom.basis, herm @ dom.basis, tol=tol)
    a_rel = LinearRelation.graph_of(herm, tol=tol)
    return SymmetricModel(dim, t_rel, a_rel, mu=mu, tol=tol)


def random_selfadjoint_relation(rng, dim, operator_only=False, tol=DEFAULT_TOL):
    """Random self-adjoint relation on C^dim, via the inverse Cayley map."""
    if operator_only:
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return LinearRelation.graph_of(0.5 * (h + h.conj().T), tol=tol)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    x_blk = 0.5j * (u - np.eye(dim))
    y_blk = 0.5 * (u + np.eye(dim))
    return LinearRelation.from_blocks(x_blk, y_blk, tol=tol)


def deficiency_spaces(model):
    """Deficiency subspaces: kernels of T* - mu and T* - conj(mu)."""
    return model.kplus, model.kminus


def model_to_json(model):
    from .relspace import relation_to_json

    return {"dim": model.dim,
            "T": relation_to_json(model.T),
            "A": relation_to_json(model.A),
            "mu": [model.mu.real, model.mu.imag]}


def model_from_json(obj, tol=DEFAULT_TOL):
    from .relspace import relation_from_json

    re, im = obj["mu"]
    return SymmetricModel(int(obj["dim"]),
                          relation_from_json(obj["T"], tol=tol),
                          relation_from_json(obj["A"], tol=tol),
                          mu=complex(re, im), tol=tol)


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
    split_residual: float
    reconstruction_residual: float | None


def _as_pair(model, z, action=None):
    """Stacked pair of length 2n from a pair, or a vector and its action."""
    z = np.asarray(z, dtype=complex).ravel()
    if action is not None:
        return np.concatenate([z, np.asarray(action, dtype=complex).ravel()])
    if z.size == 2 * model.dim:
        return z
    # canonical completion: least-squares image within T*
    coeff, *_ = np.linalg.lstsq(model.Tstar.dom_block(), z, rcond=None)
    pair = model.Tstar.graph.basis @ coeff
    pair[: model.dim] = z
    return pair


def _split_block(model, pairs):
    """Split the columns of a 2n x k block of pairs in T* in one solve.

    Every column must lie in T* within 10 * tol * max(1, |column|).  The
    decomposition is along T (+) {(y, mu y)} (+) {(y, conj(mu) y)}; returns
    the coefficient blocks on the bases of T, K+ and K- and the split
    residual of each column.
    """
    graph = model.Tstar.graph
    outside = pairs - graph.basis @ (graph.basis.conj().T @ pairs)
    scale = np.maximum(1.0, np.linalg.norm(pairs, axis=0))
    if not np.all(np.linalg.norm(outside, axis=0) <= 10 * graph.tol * scale):
        raise ValueError("input pair does not belong to T*")
    mu = model.mu
    kp = model.kplus.basis
    km = model.kminus.basis
    blocks = np.hstack([model.T.graph.basis,
                        np.vstack([kp, mu * kp]),
                        np.vstack([km, np.conj(mu) * km])])
    coeff, *_ = np.linalg.lstsq(blocks, pairs, rcond=None)
    split_resid = np.linalg.norm(blocks @ coeff - pairs, axis=0)
    st = model.T.dim
    sp = model.kplus.dim
    return coeff[:st], coeff[st:st + sp], coeff[st + sp:], split_resid


def _boundary_coords(model, c_plus, c_minus):
    """Coordinates on the K- basis of the two boundary values.

    z0 = z_minus + V z_plus and z1 = -mu z_minus - conj(mu) V z_plus, from
    the split coefficients of z_plus and z_minus.
    """
    v_plus = (model.kminus.basis.conj().T @ model._isometry) @ c_plus
    return (c_minus + v_plus,
            -model.mu * c_minus - np.conj(model.mu) * v_plus)


def von_neumann_components(model, z, action=None, check_reconstruction=True):
    """Split a pair in T* along T (+) {(y, mu y)} (+) {(y, conj(mu) y)}.

    Accepts either a stacked pair of length 2n, or a vector z together with
    its image under the adjoint.  The boundary values are
    z0 = z_minus + V z_plus and z1 = -mu z_minus - conj(mu) V z_plus.
    When A is invertible the reconstruction identity
    z = z_T + A(A - mu)^(-1) z0 + (A - mu)^(-1) z1 is checked and its
    residual reported; otherwise that field is None.
    """
    pair = _as_pair(model, z, action)
    n = model.dim
    c_t, c_plus, c_minus, split_resid = _split_block(model, pair[:, None])
    g0, g1 = _boundary_coords(model, c_plus, c_minus)
    km = model.kminus.basis
    z_t = (model.T.graph.basis @ c_t)[:, 0]
    z_plus = (model.kplus.basis @ c_plus)[:, 0]
    z_minus = (km @ c_minus)[:, 0]
    z0 = (km @ g0)[:, 0]
    z1 = (km @ g1)[:, 0]
    recon = None
    if check_reconstruction:
        mul_a = model.A.multivalued_part().dim
        ker_a = model.A.kernel_at(0.0).dim
        if mul_a == 0 and ker_a == 0:
            w, wp, r = relation_resolvent_apply(model.A, model.mu,
                                                np.column_stack([z0, z1]))
            recon = float(np.linalg.norm(pair[:n] - (z_t[:n] + wp[:, 0]
                                                     + w[:, 1]))
                          + r[0] + r[1])
    return VonNeumannSplit(z_t, z_plus, z_minus, z0, z1,
                           float(split_resid[0]), recon)


def lagrange_residual(model, x, z, x_action=None, z_action=None):
    """Residual of the abstract Lagrange identity for two pairs in T*.

    |<x', z> - <x, z'> - (<G1 x, G0 z> - <G0 x, G1 z>)| with the boundary
    values from one von Neumann split of both pairs.
    """
    xp = _as_pair(model, x, x_action)
    zp = _as_pair(model, z, z_action)
    n = model.dim
    _, c_plus, c_minus, _ = _split_block(model, np.column_stack([xp, zp]))
    g0, g1 = _boundary_coords(model, c_plus, c_minus)
    lhs = _inner(xp[n:], zp[:n]) - _inner(xp[:n], zp[n:])
    rhs = _inner(g1[:, 0], g0[:, 1]) - _inner(g0[:, 0], g1[:, 1])
    return abs(lhs - rhs)


def boundary_data(model):
    """Boundary-value matrices of the deficiency triplet on a basis of T*.

    Returns (basis, g0, g1, vmat): `basis` is the pair basis of T*, and the
    columns of g0, g1 are the coordinates of the two boundary values of each
    basis pair with respect to the orthonormal basis of K-.  The whole basis
    is split in one solve.
    """
    basis = model.Tstar.graph.basis
    _, c_plus, c_minus, _ = _split_block(model, basis)
    g0, g1 = _boundary_coords(model, c_plus, c_minus)
    return basis, g0, g1, extension_isometry(model)


def extension_from_relation(model, boundary_rel):
    """Extension of T defined by a boundary relation on K- coordinates.

    Restrict T* to the pairs whose boundary values (G0 z, G1 z) lie in the
    given relation.  The result is self-adjoint exactly when the boundary
    relation is; a non-self-adjoint input is accepted but flagged.
    """
    d = model.kminus.dim
    if boundary_rel.dom_dim != d or boundary_rel.cod_dim != d:
        raise ValueError("boundary relation does not match the defect space")
    if not is_self_adjoint(boundary_rel):
        warnings.warn("boundary relation is not self-adjoint; the extension "
                      "will not be self-adjoint either", stacklevel=2)
    basis, g0, g1, _ = boundary_data(model)
    stacked = np.vstack([g0, g1])
    perp = boundary_rel.graph.complement().basis
    coeff = _null_space(perp.conj().T @ stacked, model.tol)
    return LinearRelation.from_span(model.dim, model.dim, basis @ coeff,
                                    tol=model.tol)


def partial_cayley(rel, mu, tol=None):
    """mu-Cayley transform of a symmetric relation as a partial isometry.

    Maps (y' - conj(mu) y) to (y' - mu y) over the pairs of the relation and
    vanishes on the orthogonal complement of Im(T - conj(mu)).
    """
    tol = rel.tol if tol is None else tol
    x_blk = rel.dom_block()
    y_blk = rel.cod_block()
    m1 = y_blk - np.conj(mu) * x_blk
    m2 = y_blk - mu * x_blk
    return m2 @ np.linalg.pinv(m1, rcond=tol)


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
    from mu = -i.  Requires mu = i in the model.
    """
    if model.mu != 1j:
        raise ValueError("factorization check requires mu = i")
    u_a = cayley_unitary(model.A)
    u_b = cayley_unitary(boundary_rel)

    a_prime = extension_from_relation(model, boundary_rel)
    u_bh_minus = embed_boundary_unitary(model.kminus, u_b)
    res_plus = np.linalg.norm(cayley_unitary(a_prime) - u_bh_minus @ u_a)

    model_minus = model.with_mu(-1j)
    a_second = extension_from_relation(model_minus, boundary_rel)
    u_bh_plus = embed_boundary_unitary(model.kplus, u_b)
    res_minus = np.linalg.norm(cayley_unitary(a_second) - u_a @ u_bh_plus)
    return float(res_plus), float(res_minus)
