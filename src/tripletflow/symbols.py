"""Symbol-level calculus for first-order boundary problems.

At a boundary covector the principal symbol is t*sigma + tau with sigma
Hermitian invertible and tau Hermitian; the spectral splitting of
rho = sigma^(-1) tau by the sign of the imaginary part of the eigenvalues
drives everything else: the projector onto the lower splitting subspace
along the upper one, the transversality conditions, and in the graded case
the unitary whose graph is the lower subspace.

The matrix sign is a determinant-scaled Newton iteration on one matrix or
a stack; a point's split is made once, and a winding report's Cayley loops
are (H - i)(H + i)^(-1), stacked.  Eigendecompositions are a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .relspace import LinearRelation, Subspace, _as_matrix, _hermitian_part
from .famindex import det_winding

# tolerance of the Hermitian, skew, invertibility, unitarity and commutation
# checks of symbol inputs
_SYMBOL_TOL = 1e-9

__all__ = [
    "SymbolPoint",
    "matrix_sign",
    "spectral_split",
    "spectral_splits",
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
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sigma = _hermitian_part(self.sigma, _SYMBOL_TOL,
                                "sigma must be Hermitian")
        tau = _hermitian_part(self.tau, _SYMBOL_TOL, "tau must be Hermitian")
        svals = np.linalg.svd(sigma, compute_uv=False)
        if svals.size and svals[-1] <= _SYMBOL_TOL * svals[0]:
            raise ValueError("sigma must be invertible")
        self.sigma = sigma
        self.tau = tau
        self.rho = np.linalg.solve(sigma, tau)

    @classmethod
    def dirac(cls, tau_bold):
        """Graded point with rho = [[0, -tb], [-tb, 0]], tb skew-adjoint.

        The Hermitian coefficient of the normal direction is the grading
        diag(1, -1), which anticommutes with the skew-Hermitian rho, so the
        tangential part stays Hermitian; rho has the graded shape exactly.
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
        return cls(sigma=sigma, tau=tau)

    @property
    def half_dim(self):
        return self.sigma.shape[0] // 2


def matrix_sign(mat):
    """Matrix sign function by determinant-scaled Newton iteration, of one
    matrix or of each member of a stack (..., n, n).

    Converged once ||S^2 - I|| <= 1e-12 * max(1, ||S||^2): the rounding
    floor of S @ S grows with ||S||^2, so an absolute test cannot be met by
    an ill-conditioned sign.  That test still passes up to ||S||^2 times
    above the floor, so one more step, which squares the error, is taken
    before returning.  Each member of a stack has its own scale, test and
    extra step, and comes out bit for bit as alone.  Fails when an
    eigenvalue sits too close to the imaginary axis, the degenerate case
    excluded by ellipticity.  The 0 x 0 matrix is its own sign.
    """
    s = np.asarray(mat, dtype=complex)
    n = s.shape[-1]
    if not s.size:
        return s
    shape, s, eye = s.shape, s.reshape(-1, n, n), np.eye(n)
    out, live = np.empty_like(s), np.arange(len(s))
    converged = np.zeros(len(s), dtype=bool)
    for _ in range(100):
        mags = [abs(det) for det in np.linalg.det(s)]
        if not all(0 < mag < np.inf for mag in mags):
            raise np.linalg.LinAlgError("sign iteration hit a singular matrix")
        # each scale a scalar power: the array power differs in the last ulp
        scales = np.array([mag ** (-1.0 / n) for mag in mags])
        s_scaled = scales[:, None, None] * s
        try:
            inv = np.linalg.inv(s_scaled)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "sign iteration hit a singular matrix") from exc
        s = 0.5 * (s_scaled + inv)
        if converged.any():
            out[live[converged]] = s[converged]
            live, s = live[~converged], s[~converged]
            if not len(live):
                return out.reshape(shape)
        flat = np.concatenate([s @ s - eye, s]).view(float)
        defect, size = np.einsum("kij,kij->k", flat, flat).reshape(2, -1)
        converged = np.sqrt(defect) <= 1e-12 * np.maximum(1.0, size)
    raise np.linalg.LinAlgError(
        "sign iteration did not converge: eigenvalue too close to the "
        "imaginary axis")


def spectral_split(rho):
    """The pair (lower, upper) of `spectral_splits` for one matrix."""
    return spectral_splits(np.asarray(rho, dtype=complex)[None])[0]


def spectral_splits(rhos):
    """Splitting subspaces (lower, upper) of each matrix of a stack
    (k, n, n) with no real eigenvalues: the spans of the generalized
    eigenspaces with negative and positive imaginary eigenvalues, ranges of
    the projectors (1 +- sign(i*rho))/2 from one SVD of all 2k, with ranks
    read off the traces, robust even when a projector is ill-conditioned."""
    sign = matrix_sign(1j * np.asarray(rhos, dtype=complex))
    k, n = len(sign), sign.shape[-1]
    projs = 0.5 * (np.eye(n) + np.concatenate([sign, -sign]))
    ranks = [int(round(float(np.trace(p).real))) for p in projs]
    frames = np.linalg.svd(projs)[0] if projs.size else projs
    spaces = [Subspace(u[:, :rank]) for u, rank in zip(frames, ranks)]
    if any(lo.dim + up.dim != n for lo, up in zip(spaces[:k], spaces[k:])):
        raise np.linalg.LinAlgError("splitting subspaces do not fill the space")
    return list(zip(spaces[:k], spaces[k:]))


def calderon_symbol(rho):
    """Projection onto the lower splitting subspace of rho along the upper."""
    rho = np.asarray(rho, dtype=complex)
    return 0.5 * (np.eye(rho.shape[-1]) + matrix_sign(1j * rho))


def dirac_unitary(tau_bold):
    """The unitary -sign(i*tb), with i*tb = -(unitary)*|tb|, for
    skew-adjoint invertible tb: -V sign(L) V^H from the eigendecomposition
    V L V^H of i*tb, unitary to rounding whatever the condition of tb.

    Its graph is the lower splitting subspace of the graded block matrix
    [[0, -tb], [-tb, 0]].
    """
    tb = _hermitian_part(tau_bold, _SYMBOL_TOL,
                         "tau_bold must be skew-adjoint", skew=True)
    evals, evecs = np.linalg.eigh(1j * tb)
    mags = np.abs(evals)
    if mags.size and mags.min() <= _SYMBOL_TOL * max(1.0, mags.max()):
        raise ValueError("tau_bold must be invertible")
    return -(evecs * np.sign(evals)) @ evecs.conj().T


def transversality_check(point, split=None):
    """Minimal principal angles between the splitting subspaces (`split`,
    if the caller has them) and the two coordinate half-spaces of the
    graded decomposition, and a verdict: transversal if all are positive.

    A space with orthonormal basis rows B1 on a half-space and B2 off it
    makes with that half-space the angle of cosine sigma_max(B1) and sine
    sigma_min(B2), or sine 0 when the space is wider than the half-space,
    which it then meets; swapping B1 and B2 gives the angle with the other
    half-space.  So one SVD of the pair (B1, B2) gives both angles of a
    space.  An empty space or half-space is at a right angle to the other.
    """
    split = spectral_split(point.rho) if split is None else split
    half = point.half_dim
    values = []
    for sub in split:
        if not (half and sub.dim):
            values += [np.pi / 2] * 2
            continue
        svals = np.linalg.svd(np.stack([sub.basis[:half], sub.basis[half:]]),
                              compute_uv=False)
        # contiguous sines: numpy's arctan2 on strided input takes another
        # kernel, which can differ in the last bit
        sins = svals[[1, 0], -1] if sub.dim <= half else np.zeros(2)
        # atan2, not arccos: a cosine alone reads angles below 2e-8 as 0
        values += np.arctan2(sins, svals[:, 0]).tolist()
    angles = dict(zip(("lower_vs_first", "lower_vs_second", "upper_vs_first",
                       "upper_vs_second"), values))
    angles["transversal"] = bool(min(angles.values()) > 1e-9)
    return angles


def mixing_map(upsilon, sigma):
    """The summand-mixing automorphism (a, b) -> (a - U^(-1) b, U a + b).

    upsilon must be unitary and commute with sigma, the hypothesis that
    makes the graph boundary condition self-adjoint.  Returns the pair
    (map, inverse) as block matrices on the doubled space.
    """
    u = _as_matrix(upsilon)
    u_inv, eye = u.conj().T, np.eye(u.shape[0])
    if np.linalg.norm(u_inv @ u - eye) > _SYMBOL_TOL:
        raise ValueError("upsilon must be unitary")
    sigma = _as_matrix(sigma)
    if np.linalg.norm(u @ sigma - sigma @ u) > _SYMBOL_TOL * max(
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
    upper.  The Cayley transform (H - i)(H + i)^(-1) of H = P (i*tau) P is
    -1 off the range of P, so its determinant winds as the compressed one
    (no frame is chosen).  Returns the three windings and their additivity
    defect, which must vanish; a coarse loop raises RefinementError.
    """
    taus = np.asarray(tau_loop, dtype=complex)
    if len(taus) < 2:
        raise ValueError("a loop needs at least two samples")
    eye = np.eye(taus.shape[-1])
    gradings = (np.broadcast_to(-1j * eye, taus.shape) if grading_loop is None
                else np.asarray(grading_loop, dtype=complex))
    if len(gradings) != len(taus):
        raise ValueError("tau and grading loops differ in length")
    norm_t, norm_g = np.linalg.norm([taus, gradings], axis=(-2, -1))
    defects = np.linalg.norm(
        [taus + taus.conj().swapaxes(-1, -2),
         gradings + gradings.conj().swapaxes(-1, -2),
         taus @ gradings - gradings @ taus], axis=(-2, -1))
    failed = defects > 1e-8 * np.maximum(1.0, [norm_t, norm_g, norm_t * norm_g])
    if failed.any():  # the first failing check of the first failing sample
        raise ValueError(("tau must be skew-adjoint",
                          "grading must be skew-adjoint",
                          "grading must commute with the symbol")[
            failed[:, failed.any(axis=0).argmax()].argmax()])
    herms, lowers = 1j * taus, calderon_symbol(gradings)
    uppers = eye - lowers
    mats = np.stack([herms, lowers @ herms @ lowers, uppers @ herms @ uppers])
    mats = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
    cayley = (mats - 1j * eye) @ np.linalg.inv(mats + 1j * eye)
    total, lower_w, upper_w = (det_winding(loop) for loop in cayley)
    return {"total": total, "lower": lower_w, "upper": upper_w,
            "additivity_defect": total - lower_w - upper_w}
