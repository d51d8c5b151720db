"""Gelfand triples on finite-dimensional weighted spaces.

A triple K in K_partial in K' is carried entirely by two Gram matrices on a
common coordinate space: gram_K for the small space and gram_partial for the
pivot space.  The canonical isometries are derived from the square root of
the embedding composed with its adjoint; in finite dimension the extension
of the square root to the dual coincides with the square root itself, so
every statement about the triple becomes a matrix identity.

Inner products are linear in the first slot and conjugate-linear in the
second throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .relspace import (DEFAULT_TOL, _hermitian_part, adjoint_relation,
                       is_self_adjoint, map_relation)

__all__ = [
    "GelfandTriple",
    "build_triple",
    "identity_triple",
    "dual_pairing",
    "primal_pairing",
    "shift_identity_residual",
    "triple_adjoint",
    "is_triple_self_adjoint",
]


def _check_hpd(gram, name):
    gram = np.asarray(gram, dtype=complex)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if gram.shape[0] == 0:
        return gram
    gram = _hermitian_part(gram, DEFAULT_TOL, f"{name} is not Hermitian")
    evals = np.linalg.eigvalsh(gram)
    if evals.min() <= DEFAULT_TOL * max(1.0, evals.max()):
        raise ValueError(f"{name} is not positive definite")
    return gram


@dataclass(frozen=True)
class GelfandTriple:
    """A finite-dimensional Gelfand triple carried by two Gram matrices.

    Derived data: the embedding adjoint iota_star = gram_K^(-1) gram_partial,
    the nonnegative operator j = iota o iota_star, its principal square root
    lam taken in the pivot metric (lam_prime equals lam as a matrix), and the
    Gram matrix gram_partial iota_star of the dual space.  The Hermitian and positivity checks
    use the rank tolerance DEFAULT_TOL.
    """

    gram_K: np.ndarray
    gram_partial: np.ndarray
    iota_star: np.ndarray = field(init=False, repr=False)
    j: np.ndarray = field(init=False, repr=False)
    lam: np.ndarray = field(init=False, repr=False)
    lam_inv: np.ndarray = field(init=False, repr=False)
    gram_dual: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        gk = _check_hpd(self.gram_K, "gram_K")
        gp = _check_hpd(self.gram_partial, "gram_partial")
        if gk.shape != gp.shape:
            raise ValueError("Gram matrices differ in size")
        if gk.shape[0] == 0:
            empty = np.zeros((0, 0), dtype=complex)
            for name in ("gram_K", "gram_partial", "iota_star", "j", "lam",
                         "lam_inv", "gram_dual"):
                object.__setattr__(self, name, empty)
            return
        iota_star = np.linalg.solve(gk, gp)
        jmat = iota_star  # iota is the identity in shared coordinates
        # principal square root in the pivot metric: symmetrize with the
        # Cholesky factor of gram_partial, take the Hermitian eigensolver root
        chol = np.linalg.cholesky(gp)
        sym = chol.conj().T @ jmat @ np.linalg.inv(chol.conj().T)
        sym = 0.5 * (sym + sym.conj().T)
        evals, evecs = np.linalg.eigh(sym)
        if evals.min() <= DEFAULT_TOL * max(1.0, evals.max()):
            raise ValueError("embedding operator j is not strictly positive")
        root = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
        lam = np.linalg.solve(chol.conj().T, root @ chol.conj().T)
        object.__setattr__(self, "gram_K", gk)
        object.__setattr__(self, "gram_partial", gp)
        object.__setattr__(self, "iota_star", iota_star)
        object.__setattr__(self, "j", jmat)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam_inv", np.linalg.inv(lam))
        object.__setattr__(self, "gram_dual", gp @ iota_star)

    @property
    def dim(self):
        return self.gram_K.shape[0]

    # -- inner products ---------------------------------------------------
    def inner_K(self, u, v):
        return complex(np.vdot(v, self.gram_K @ u))

    def inner_partial(self, u, v):
        return complex(np.vdot(v, self.gram_partial @ u))

    def inner_dual(self, u, v):
        return complex(np.vdot(v, self.gram_dual @ u))

    @property
    def lam_prime(self):
        """The continuity extension of lam to the dual; equal to lam here."""
        return self.lam

    @property
    def shift_map(self):
        """The block map lam' (+) lam^(-1) of K' + K onto the pivot pair."""
        d = self.dim
        out = np.zeros((2 * d, 2 * d), dtype=complex)
        out[:d, :d] = self.lam_prime
        out[d:, d:] = self.lam_inv
        return out


def build_triple(gram_K, gram_partial):
    """Construct the Gelfand triple associated with the pair of Grams."""
    return GelfandTriple(np.asarray(gram_K, dtype=complex),
                         np.asarray(gram_partial, dtype=complex))


def identity_triple(dim):
    return build_triple(np.eye(dim), np.eye(dim))


def dual_pairing(triple, y, x):
    """Canonical pairing of a dual vector y against x in K.

    On the pivot space it is the pivot inner product, and in finite
    dimension that formula is the whole pairing.
    """
    return triple.inner_partial(y, x)


def primal_pairing(triple, x, y):
    """The conjugate pairing of x in K against a dual vector y."""
    return complex(np.conj(dual_pairing(triple, y, x)))


def shift_identity_residual(triple, y, x):
    """|<y, x>_pairing - <lam' y, lam^(-1) x>_partial|; zero in exact arithmetic."""
    lhs = dual_pairing(triple, y, x)
    rhs = triple.inner_partial(triple.lam_prime @ y, triple.lam_inv @ x)
    return abs(lhs - rhs)


def triple_adjoint(triple, rel):
    """Adjoint of a relation in K' + K coordinates with respect to the pairings.

    For the identity triple this reduces to the plain relation adjoint.
    """
    if rel.dom_dim != triple.dim or rel.cod_dim != triple.dim:
        raise ValueError("relation does not match the triple dimension")
    return adjoint_relation(rel, triple.gram_partial)


def is_triple_self_adjoint(triple, rel):
    """Self-adjointness across the triple.

    The relation is self-adjoint for the pairings iff its image under
    lam' (+) lam^(-1) is a self-adjoint relation in the pivot metric.
    """
    return is_self_adjoint(map_relation(triple.shift_map, rel),
                           gram=triple.gram_partial)
