import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import cayley as cy
from tripletflow import famindex as fi
from tripletflow import gelfand as gf
from tripletflow import relspace as rs
from tripletflow import symbols as sy
from tripletflow import triplet as tp

from conftest import random_complex
from test_orthonormalize_once import count_linalg


def random_offaxis(rng, n):
    """Matrix with spectrum bounded away from the real axis."""
    d = np.diag(rng.standard_normal(n)
                + 1j * rng.uniform(0.5, 2.0, n)
                * np.where(rng.random(n) < 0.5, -1.0, 1.0))
    v = random_complex(rng, n, n)
    return v @ d @ np.linalg.inv(v), d


def random_skew_invertible(rng, n):
    tb = random_complex(rng, n, n)
    tb = 0.5 * (tb - tb.conj().T)
    evs = np.linalg.eigvalsh(1j * tb)
    gap = np.min(np.abs(evs))
    if gap < 0.3:
        tb = tb + 1j * (0.5 + gap) * np.eye(n)
    return tb


def test_spectral_split_diagonal():
    lower, upper = sy.spectral_split(np.diag([-1j, 1j]))
    assert lower.contains(np.array([1.0, 0.0]).reshape(-1, 1))
    assert upper.contains(np.array([0.0, 1.0]).reshape(-1, 1))


def test_spectral_split_rejects_real_spectrum():
    with pytest.raises(np.linalg.LinAlgError):
        sy.spectral_split(np.diag([1.0, -2.0]))


def test_spectral_split_against_eigendecomposition(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rho, _ = random_offaxis(rng, n)
        lower, upper = sy.spectral_split(rho)
        evals, evecs = np.linalg.eig(rho)
        low_oracle = rs.Subspace.from_span(evecs[:, evals.imag < 0],
                                           ambient_dim=n)
        up_oracle = rs.Subspace.from_span(evecs[:, evals.imag > 0],
                                          ambient_dim=n)
        assert lower.gap(low_oracle) < 1e-9
        assert upper.gap(up_oracle) < 1e-9


def test_empty_symbol_has_empty_split_and_projection():
    empty = np.zeros((0, 0))
    assert sy.matrix_sign(empty).shape == (0, 0)
    lower, upper = sy.spectral_split(empty)
    assert (lower.dim, upper.dim, lower.ambient_dim) == (0, 0, 0)
    assert sy.calderon_symbol(empty).shape == (0, 0)
    assert sy.dirac_unitary(empty).shape == (0, 0)
    for point in (sy.SymbolPoint(empty, empty), sy.SymbolPoint.dirac(empty)):
        assert point.rho.shape == (0, 0)
        assert sy.transversality_check(point) == {
            "lower_vs_first": math.pi / 2, "lower_vs_second": math.pi / 2,
            "upper_vs_first": math.pi / 2, "upper_vs_second": math.pi / 2,
            "transversal": True}


def test_calderon_symbol_examples(rng):
    assert np.allclose(sy.calderon_symbol(np.diag([-1j, 1j])),
                       np.diag([1.0, 0.0]))
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rho, _ = random_offaxis(rng, n)
        cplus = sy.calderon_symbol(rho)
        assert np.linalg.norm(cplus @ cplus - cplus) < 1e-10
        assert np.linalg.norm(cplus @ rho - rho @ cplus) < 1e-9 * max(
            1.0, np.linalg.norm(rho))
        # residue oracle: sum of eigenprojectors over the lower half plane
        evals, evecs = np.linalg.eig(rho)
        vinv = np.linalg.inv(evecs)
        proj = np.zeros((n, n), dtype=complex)
        for j in range(n):
            if evals[j].imag < 0:
                proj += np.outer(evecs[:, j], vinv[j])
        assert np.linalg.norm(cplus - proj) < 1e-8


def test_split_negation_swaps_subspaces(rng):
    rho, _ = random_offaxis(rng, 5)
    _, upper = sy.spectral_split(rho)
    lower_neg, _ = sy.spectral_split(-rho)
    assert upper.gap(lower_neg) < 1e-9


def test_dirac_unitary_scalars():
    assert abs(sy.dirac_unitary(np.array([[2j]]))[0, 0] - 1.0) < 1e-14
    assert abs(sy.dirac_unitary(np.array([[-2j]]))[0, 0] + 1.0) < 1e-14


def test_dirac_unitary_rotation_block():
    tb = np.array([[0.0, 1.5], [-1.5, 0.0]], dtype=complex)
    ups = sy.dirac_unitary(tb)
    # defining identity and unitarity
    herm = 1j * tb
    evals, evecs = np.linalg.eigh(herm)
    absval = evecs @ np.diag(np.abs(evals)) @ evecs.conj().T
    assert np.linalg.norm(1j * tb + ups @ absval) < 1e-12
    assert np.linalg.norm(ups.conj().T @ ups - np.eye(2)) < 1e-12
    point = sy.SymbolPoint.dirac(tb)
    lower, _ = sy.spectral_split(point.rho)
    assert rs.LinearRelation.graph_of(ups).graph.gap(lower) < 1e-9


def test_dirac_graph_fifty_fixtures(rng):
    worst = 0.0
    count = 0
    while count < 50:
        n = int(rng.integers(1, 6))
        tb = random_skew_invertible(rng, n)
        if np.min(np.abs(np.linalg.eigvalsh(1j * tb))) < 1e-3:
            continue
        count += 1
        ups = sy.dirac_unitary(tb)
        lower, _ = sy.spectral_split(sy.SymbolPoint.dirac(tb).rho)
        worst = max(worst, rs.LinearRelation.graph_of(ups).graph.gap(lower))
    assert worst < 1e-9


def test_dirac_unitary_rejects_singular():
    with pytest.raises(ValueError):
        sy.dirac_unitary(np.zeros((2, 2)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), log_cond=st.floats(0.0, 8.0),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_dirac_unitary_is_the_sign(n, log_cond, log_scale, seed):
    # U = -sign(i tb) is characterized by: Hermitian, unitary, commuting
    # with i tb, and -U (i tb) = |tb| positive semidefinite; the moduli of
    # the eigenvalues of i tb span a condition number up to 1e8
    rng = np.random.default_rng(seed)
    vecs = np.linalg.qr(random_complex(rng, n, n))[0]
    mags = 10.0 ** (log_scale + log_cond * np.r_[0.0, 1.0, rng.random(n)][:n])
    evals = np.where(rng.random(n) < 0.5, -1.0, 1.0) * mags
    tb = -1j * (vecs * evals) @ vecs.conj().T
    tb = 0.5 * (tb - tb.conj().T)
    ups = sy.dirac_unitary(tb)
    herm = 1j * tb
    absval = -ups @ herm
    defects = [np.linalg.norm(ups - ups.conj().T),
               np.linalg.norm(ups.conj().T @ ups - np.eye(n)),
               np.linalg.norm(ups @ herm - herm @ ups),
               max(0.0, -np.linalg.eigvalsh(
                   0.5 * (absval + absval.conj().T)).min())]
    assert max(defects) <= 1e-13 * max(1.0, np.linalg.norm(tb))


def test_dirac_unitary_makes_one_eigendecomposition(monkeypatch, rng):
    tb = random_skew_invertible(rng, 4)
    calls = count_linalg(monkeypatch, ("eigh", "eig", "svd", "inv", "solve",
                                       "lstsq"))
    sy.dirac_unitary(tb)
    assert calls == [("eigh", (4, 4))]


def test_dirac_point_is_the_graded_block(rng):
    # exactly, with no rounding: equal as values, so that a zero's sign is
    # free
    for n in (1, 3, 5):
        tb = random_skew_invertible(rng, n)
        zero = np.zeros((n, n))
        assert np.array_equal(sy.SymbolPoint.dirac(tb).rho,
                              np.block([[zero, -tb], [-tb, zero]]))


def _problem_with_shear(shear):
    model = cy.random_symmetric_model(np.random.default_rng(0), 5, 2)
    return tp.MatrixBoundaryProblem(model, mix=(np.eye(2), shear))


_NAN = np.full((2, 2), np.nan)
_BAD_TB = [(np.eye(2), "skew-adjoint"), (_NAN, "non-finite"),
           (np.full((2, 2), np.inf), "non-finite"),
           (np.eye(2, 3), "square matrix")]


@pytest.mark.parametrize("call, arg, match", [
    *[(func, tb, match) for func in (sy.SymbolPoint.dirac, sy.dirac_unitary)
      for tb, match in _BAD_TB],
    (lambda sigma: sy.SymbolPoint(sigma, np.eye(2)), _NAN, "non-finite"),
    (lambda tau: sy.SymbolPoint(np.eye(2), tau), _NAN, "non-finite"),
    (lambda ups: sy.mixing_map(ups, np.eye(2)), _NAN, "non-finite"),
    (lambda sigma: sy.mixing_map(np.eye(2), sigma), _NAN, "non-finite"),
    (lambda gram: gf.build_triple(gram, np.eye(2)), _NAN, "non-finite"),
    (_problem_with_shear, _NAN, "non-finite"),
])
def test_symbol_inputs_rejected(call, arg, match):
    # a NaN passes every tolerance test, since no comparison with it holds
    with pytest.raises(ValueError, match=match):
        call(arg)


def test_symbol_point_validation(rng):
    with pytest.raises(ValueError):
        sy.SymbolPoint(sigma=np.array([[0.0, 1.0], [0.0, 0.0]]),
                       tau=np.eye(2))
    with pytest.raises(ValueError):
        sy.SymbolPoint(sigma=np.zeros((2, 2)), tau=np.eye(2))
    point = sy.SymbolPoint(sigma=np.diag([1.0, -1.0]), tau=np.eye(2))
    assert np.allclose(point.rho, np.diag([1.0, -1.0]))


def test_transversality_dirac_and_degenerate(rng):
    tb = random_skew_invertible(rng, 2)
    report = sy.transversality_check(sy.SymbolPoint.dirac(tb))
    assert report["transversal"]

    # degenerate fixture: rho = diag(-i, i) in a 1+1 splitting has the first
    # coordinate axis as its lower space, so transversality fails
    class _AxisPoint:
        rho = np.diag([-1j, 1j])
        half_dim = 1

    angles = sy.transversality_check(_AxisPoint())
    assert not angles["transversal"]
    assert angles["lower_vs_first"] < 1e-12


@pytest.mark.parametrize("angle", [3e-9, 1e-8, 1e-6])
def test_transversality_resolves_small_angles(angle):
    # rho = diag(-i, i) rotated by the angle: its lower space makes that
    # angle with the first axis, and its upper space with the second
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])

    class _TiltedPoint:
        rho = rot @ np.diag([-1j, 1j]) @ rot.T
        half_dim = 1

    angles = sy.transversality_check(_TiltedPoint())
    assert angles["transversal"]
    for key in ("lower_vs_first", "upper_vs_second"):
        assert abs(angles[key] - angle) <= 1e-6 * angle


def test_mixing_map_requirements(rng):
    sig = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ups = 1j * sig
    evals = np.linalg.eigvalsh(-1j * sig.conj().T @ ups)
    assert np.all(evals > 0)
    phi, phi_inv = sy.mixing_map(ups, sigma=sig)
    assert np.linalg.norm(phi @ phi_inv - np.eye(4)) < 1e-14
    with pytest.raises(ValueError):
        sy.mixing_map(2.0 * np.eye(2), sig)
    with pytest.raises(ValueError):
        sy.mixing_map(np.diag([1.0, -1.0]) + 0j, sigma=sig)


def test_mixing_map_lagrangian_correspondence(rng):
    sig = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ups = 1j * sig
    phi, phi_inv = sy.mixing_map(ups, sigma=sig)
    assert sy.graph_condition_selfadjoint_gap(ups, sig) < 1e-12
    for _ in range(6):
        herm = random_complex(rng, 2, 2)
        herm = herm + herm.conj().T
        image = rs.map_relation(phi_inv, rs.LinearRelation.graph_of(herm))
        assert image.dim == 2
        assert sy.split_form_lagrangian_gap(image, sig) < 1e-10
        assert rs.is_self_adjoint(rs.map_relation(phi, image))
        generic = rs.LinearRelation.graph_of(random_complex(rng, 2, 2))
        if rs.adjoint_relation(generic).gap(generic) > 1e-6:
            bad = rs.map_relation(phi_inv, generic)
            assert sy.split_form_lagrangian_gap(bad, sig) > 1e-6


def test_split_winding_constant_grading(rng):
    theta = np.linspace(0, 2 * math.pi, 48, endpoint=False)
    taus = []
    for t in theta:
        tb = np.array([[1j * (2 + math.cos(t)), math.sin(t)],
                       [-math.sin(t), 1j * (2 - math.cos(t))]], dtype=complex)
        taus.append(0.5 * (tb - tb.conj().T))
    report = sy.split_winding_report(taus)
    assert report == {"total": 0, "lower": 0, "upper": 0,
                      "additivity_defect": 0}


def test_split_winding_block_grading():
    theta = np.linspace(0, 2 * math.pi, 48, endpoint=False)
    taus = [np.diag([1j * (2 + math.sin(t)), -1j * (1.5 + math.cos(t))])
            for t in theta]
    grads = [np.diag([1j, -1j]) for _ in theta]
    report = sy.split_winding_report(taus, grads)
    assert report["additivity_defect"] == 0
    assert report["total"] == report["lower"] + report["upper"]


def test_split_winding_rejects_noncommuting():
    theta = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    taus = [np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
            for _ in theta]
    grads = [np.diag([1j, -1j]) for _ in theta]
    with pytest.raises(ValueError):
        sy.split_winding_report(taus, grads)


def test_split_winding_rejects_matrices_that_are_not_skew_adjoint():
    theta = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    skew = [np.diag([1j, -1j]) for _ in theta]
    herm = [np.diag([1.0, -1.0]).astype(complex) for _ in theta]
    with pytest.raises(ValueError, match="tau must be skew-adjoint"):
        sy.split_winding_report(herm, skew)
    with pytest.raises(ValueError, match="grading must be skew-adjoint"):
        sy.split_winding_report(skew, herm)


def half_turn_loop(samples, half_turn, tau_diag, grading_diag):
    """tau and the grading, both diagonal, conjugated by
    cos(theta/2) I + sin(theta/2) G for a real G with G^2 = -I: the
    conjugation comes back to itself after one turn, but each eigenbundle
    of the grading turns into minus itself."""
    theta = np.linspace(0, 2 * math.pi, samples, endpoint=False)
    eye = np.eye(len(tau_diag))
    turns = [math.cos(t / 2) * eye + math.sin(t / 2) * half_turn
             for t in theta]
    return ([u @ np.diag(tau_diag) @ u.T for u in turns],
            [u @ np.diag(grading_diag) @ u.T for u in turns])


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
# couples coordinates 0 <-> 2 and 1 <-> 3, across the two 2-dim bundles
COUPLING = np.zeros((4, 4))
COUPLING[2, 0] = COUPLING[3, 1] = 1.0
COUPLING[0, 2] = COUPLING[1, 3] = -1.0


@pytest.mark.parametrize("half_turn, tau_diag, grading_diag", [
    (ROTATION, [2j, -1.5j], [1j, -1j]),
    (COUPLING, [2j, 3j, -1.5j, -2.5j], [1j, 1j, -1j, -1j])],
    ids=["2x2", "4x4"])
def test_split_winding_of_bundles_that_turn_into_minus_themselves(
        half_turn, tau_diag, grading_diag):
    # no frame of either bundle closes up, yet the compressed determinants
    # do: the windings are read off the spectral projectors
    taus, grads = half_turn_loop(48, half_turn, tau_diag, grading_diag)
    assert sy.split_winding_report(taus, grads) == {
        "total": 0, "lower": 0, "upper": 0, "additivity_defect": 0}
    taus, grads = half_turn_loop(8, half_turn, tau_diag, grading_diag)
    with pytest.raises(fi.RefinementError, match="loop step too coarse"):
        sy.split_winding_report(taus, grads)


@pytest.mark.parametrize("count", [0, 1])
def test_split_winding_needs_two_samples(count):
    taus = [np.diag([1j, -2j]) for _ in range(count)]
    with pytest.raises(ValueError, match="a loop needs at least two samples"):
        sy.split_winding_report(taus)


def test_direct_sum_winding_with_nonzero_parts():
    # additivity of the winding over a pointwise direct sum where the two
    # summands wind in opposite directions
    theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    upper = [np.array([[np.exp(1j * t)]]) for t in theta]
    lower = [np.array([[np.exp(-1j * t)]]) for t in theta]
    sums = [np.diag([u[0, 0], l[0, 0]]) for u, l in zip(upper, lower)]
    wu = fi.det_winding(upper)
    wl = fi.det_winding(lower)
    assert (wu, wl) == (1, -1)
    assert fi.det_winding(sums) == wu + wl == 0
