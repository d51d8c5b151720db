"""Symbol-level calculus for first-order boundary problems.

At a boundary covector the principal symbol is t*sigma + tau with sigma
Hermitian invertible and tau Hermitian; the spectral splitting of
rho = sigma^(-1) tau by the sign of the imaginary part of the eigenvalues
drives everything else: the projector onto the lower splitting subspace
along the upper one, the transversality conditions, and in the graded case
the unitary whose graph is the lower subspace.

The matrix sign function is computed with a determinant-scaled Newton
iteration; a dense eigendecomposition is used only as a cross-check oracle
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .relspace import (LinearRelation, Subspace, _hermitian_part,
                       cayley_unitary)
from .famindex import det_winding

# tolerance of the Hermitian, invertibility and graded-shape checks of a
# SymbolPoint
_SYMBOL_TOL = 1e-9

__all__ = [
    "SymbolPoint",
    "matrix_sign",
    "spectral_split",
    "calderon_symbol",
    "dirac_unitary",
    "transversality_check",
    "mixing_map",
    "split_form_lagrangian_gap",
    "graph_condition_selfadjoint_gap",
    "split_winding_report",
]


@dataclass
class SymbolPoint:
    """Principal symbol data at a fixed boundary covector."""

    sigma: np.ndarray
    tau: np.ndarray
    dirac_like: bool = False
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sigma = _hermitian_part(self.sigma, _SYMBOL_TOL,
                                "sigma must be Hermitian")
        tau = _hermitian_part(self.tau, _SYMBOL_TOL, "tau must be Hermitian")
        svals = np.linalg.svd(sigma, compute_uv=False)
        if svals[-1] <= _SYMBOL_TOL * svals[0]:
            raise ValueError("sigma must be invertible")
        self.sigma = sigma
        self.tau = tau
        self.rho = np.linalg.solve(sigma, tau)
        if self.dirac_like:
            n = sigma.shape[0]
            if n % 2:
                raise ValueError("graded symbols need even dimension")
            half = n // 2
            off = self.rho[:half, half:]
            _hermitian_part(-off, 10 * _SYMBOL_TOL,
                            "off-diagonal block of rho must be skew-adjoint",
                            skew=True)
            blocks_ok = (
                np.linalg.norm(self.rho[:half, :half]) <= _SYMBOL_TOL
                and np.linalg.norm(self.rho[half:, half:]) <= _SYMBOL_TOL
                and np.linalg.norm(self.rho[half:, :half] - off)
                <= _SYMBOL_TOL)
            if not blocks_ok:
                raise ValueError("rho does not have the graded block shape")

    @classmethod
    def dirac(cls, tau_bold):
        """Graded point with rho = [[0, -tb], [-tb, 0]], tb skew-adjoint.

        The Hermitian coefficient of the normal direction is the grading
        diag(1, -1), which anticommutes with the skew-Hermitian rho, so the
        tangential part stays Hermitian.
        """
        tb = _hermitian_part(tau_bold, _SYMBOL_TOL,
                             "tau_bold must be skew-adjoint", skew=True)
        half = tb.shape[0]
        sigma = np.zeros((2 * half, 2 * half), dtype=complex)
        sigma[:half, :half] = np.eye(half)
        sigma[half:, half:] = -np.eye(half)
        tau = np.zeros_like(sigma)
        tau[:half, half:] = -tb
        tau[half:, :half] = tb
        return cls(sigma=sigma, tau=tau, dirac_like=True)

    @property
    def half_dim(self):
        return self.sigma.shape[0] // 2


def matrix_sign(mat):
    """Matrix sign function by determinant-scaled Newton iteration.

    Converged once ||S^2 - I|| <= 1e-12 * max(1, ||S||^2): the rounding
    floor of S @ S grows with ||S||^2, so an absolute test cannot be met by
    an ill-conditioned sign.  That test still passes up to ||S||^2 times
    above the floor, so one more step, which squares the error, is taken
    before returning.  Fails when an eigenvalue sits too close to the
    imaginary axis, which is exactly the degenerate case excluded by
    ellipticity.  The 0 x 0 matrix is its own sign.
    """
    s = np.asarray(mat, dtype=complex)
    n = s.shape[0]
    if not n:
        return s
    converged = False
    for _ in range(100):
        det = np.linalg.det(s)
        if det == 0 or not np.isfinite(det):
            raise np.linalg.LinAlgError("sign iteration hit a singular matrix")
        scale = abs(det) ** (-1.0 / n)
        s_scaled = scale * s
        try:
            inv = np.linalg.inv(s_scaled)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "sign iteration hit a singular matrix") from exc
        s = 0.5 * (s_scaled + inv)
        if converged:
            return s
        converged = (np.linalg.norm(s @ s - np.eye(n))
                     <= 1e-12 * max(1.0, np.linalg.norm(s) ** 2))
    raise np.linalg.LinAlgError(
        "sign iteration did not converge: eigenvalue too close to the "
        "imaginary axis")


def _projector_range(proj):
    """Range of a (possibly oblique) projector; the rank is read off the
    trace, which is robust even when the projector is ill-conditioned."""
    n = proj.shape[0]
    rank = int(round(float(np.trace(proj).real)))
    if rank <= 0:
        return Subspace.zero(n)
    u, _, _ = np.linalg.svd(proj)
    return Subspace(u[:, :rank])


def spectral_split(rho):
    """Splitting subspaces of a matrix with no real eigenvalues.

    Returns (lower, upper): the spans of the generalized eigenspaces with
    negative and positive imaginary eigenvalues, computed from the sign of
    i*rho; the projector onto the lower space is (1 + sign(i*rho))/2.
    """
    rho = np.asarray(rho, dtype=complex)
    sign = matrix_sign(1j * rho)
    n = rho.shape[0]
    lower = _projector_range(0.5 * (np.eye(n) + sign))
    upper = _projector_range(0.5 * (np.eye(n) - sign))
    if lower.dim + upper.dim != n:
        raise np.linalg.LinAlgError("splitting subspaces do not fill the space")
    return lower, upper


def calderon_symbol(rho):
    """Projection onto the lower splitting subspace of rho along the upper."""
    rho = np.asarray(rho, dtype=complex)
    sign = matrix_sign(1j * rho)
    return 0.5 * (np.eye(rho.shape[0]) + sign)


def dirac_unitary(tau_bold):
    """Unitary with i*tb = -(unitary)*|tb| for skew-adjoint invertible tb.

    Its graph is the lower splitting subspace of the graded block matrix
    [[0, -tb], [-tb, 0]].
    """
    tb = _hermitian_part(tau_bold, _SYMBOL_TOL,
                         "tau_bold must be skew-adjoint", skew=True)
    herm = 1j * tb
    evals, evecs = np.linalg.eigh(herm)
    mags = np.abs(evals)
    if mags.min() <= _SYMBOL_TOL * max(1.0, mags.max()):
        raise ValueError("tau_bold must be invertible")
    absval = evecs @ np.diag(mags) @ evecs.conj().T
    return -herm @ np.linalg.inv(absval)


def transversality_check(point):
    """Minimal principal angles between the splitting subspaces and the two
    coordinate half-spaces of the graded decomposition.

    Returns a dict with the four smallest angles and an overall verdict;
    transversality means every angle is positive.
    """
    lower, upper = spectral_split(point.rho)
    half = point.half_dim
    n = 2 * half
    # coordinate half-spaces: orthonormal as they are
    first = Subspace(np.eye(n)[:, :half])
    second = Subspace(np.eye(n)[:, half:])

    def min_angle(sub, axis):
        # atan2, not arccos: a cosine alone reads angles below 2e-8 as 0
        if sub.dim == 0 or axis.dim == 0:
            return float(np.pi / 2)
        small, large = sorted((sub.basis, axis.basis), key=np.shape)
        proj = large.conj().T @ small
        cos = np.linalg.svd(proj, compute_uv=False)[0]
        sin = np.linalg.svd(small - large @ proj, compute_uv=False)[-1]
        return float(np.arctan2(sin, cos))

    angles = {
        "lower_vs_first": min_angle(lower, first),
        "lower_vs_second": min_angle(lower, second),
        "upper_vs_first": min_angle(upper, first),
        "upper_vs_second": min_angle(upper, second),
    }
    angles["transversal"] = bool(min(v for k, v in angles.items()
                                     if k != "transversal") > 1e-9)
    return angles


def mixing_map(upsilon, sigma):
    """The summand-mixing automorphism (a, b) -> (a - U^(-1) b, U a + b).

    upsilon must be unitary and commute with sigma, the hypothesis that
    makes the graph boundary condition self-adjoint.  Returns the pair
    (map, inverse) as block matrices on the doubled space.
    """
    u = np.asarray(upsilon, dtype=complex)
    u_inv, eye = u.conj().T, np.eye(u.shape[0])
    if np.linalg.norm(u_inv @ u - eye) > 1e-9:
        raise ValueError("upsilon must be unitary")
    sigma = np.asarray(sigma, dtype=complex)
    if np.linalg.norm(u @ sigma - sigma @ u) > 1e-9 * max(
            1.0, np.linalg.norm(sigma)):
        raise ValueError("upsilon must commute with sigma")
    return (np.block([[eye, -u_inv], [u, eye]]),
            np.block([[0.5 * eye, 0.5 * u_inv], [-0.5 * u, 0.5 * eye]]))


def split_form_lagrangian_gap(rel, sigma):
    """Gap measuring whether a relation is Lagrangian for the split form.

    The form has coefficient sigma on the first summand and -sigma on the
    second; the relation is a self-adjoint boundary condition in the split
    picture exactly when the image of its graph under sigma (+) -sigma is
    the orthogonal complement of the graph.  The mixing map carries such
    relations to plainly self-adjoint ones and back.
    """
    n = rel.dom_dim
    sig_hat = np.zeros((2 * n, 2 * n), dtype=complex)
    sig_hat[:n, :n] = np.asarray(sigma, dtype=complex)
    sig_hat[n:, n:] = -np.asarray(sigma, dtype=complex)
    image = Subspace.from_span(sig_hat @ rel.graph.basis, ambient_dim=2 * n)
    return image.gap(rel.graph.complement())


def graph_condition_selfadjoint_gap(upsilon, sigma):
    """Lagrangian gap of the graph of a unitary commuting with sigma; zero
    gap is the self-adjointness of that boundary condition."""
    return split_form_lagrangian_gap(
        LinearRelation.graph_of(np.asarray(upsilon, dtype=complex)), sigma)


def split_winding_report(tau_loop, grading_loop=None):
    """Winding additivity across a grading for a loop of skew-adjoint
    invertible symbols.

    For each sample the Hermitian matrix i*tau is compressed to the two
    eigenbundles of the grading map (a skew-adjoint matrix commuting with
    tau; constant multiplication by -i when omitted, in which case the
    lower bundle is everything) by the grading's spectral projectors,
    P = calderon_symbol(grading) for the lower bundle and I - P for the
    upper.  The Cayley transform of the graph of P (i*tau) P is -1 off the
    range of P, so its determinant is the compressed one times the
    constant (-1)^(n - rank P) and has the same winding; no frame of the
    bundle is chosen.  Reports the winding of the Cayley loop of the total
    family and of the two compressions, and the additivity defect, which
    is required to vanish.  A loop too coarse for `det_winding`'s step
    bound raises RefinementError.
    """
    taus = [np.asarray(t, dtype=complex) for t in tau_loop]
    if grading_loop is None:
        gradings = [-1j * np.eye(tb.shape[0]) for tb in taus]
    else:
        gradings = [np.asarray(g, dtype=complex) for g in grading_loop]
    herms, lowers = [], []
    for tb, f in zip(taus, gradings):
        _hermitian_part(tb, 1e-8, "tau must be skew-adjoint", skew=True)
        _hermitian_part(f, 1e-8, "grading must be skew-adjoint", skew=True)
        if np.linalg.norm(tb @ f - f @ tb) > 1e-8 * max(
                1.0, np.linalg.norm(tb) * np.linalg.norm(f)):
            raise ValueError("grading must commute with the symbol")
        herms.append(1j * tb)
        lowers.append(calderon_symbol(f))

    def winding(mats):
        return det_winding([cayley_unitary(LinearRelation.graph_of(
            0.5 * (m + m.conj().T))) for m in mats])

    total = winding(herms)
    lower_w = winding([p @ h @ p for p, h in zip(lowers, herms)])
    uppers = [np.eye(p.shape[0]) - p for p in lowers]
    upper_w = winding([q @ h @ q for q, h in zip(uppers, herms)])
    return {
        "total": total,
        "lower": lower_w,
        "upper": upper_w,
        "additivity_defect": total - lower_w - upper_w,
    }
