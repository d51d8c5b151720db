"""The symbol calculus on stacks: one sign iteration per stack, one split per
point and one Cayley batch per winding loop.

Each stacked path is compared with the path it replaced, kept below as a
reference: the sign of each member alone, bit for bit; the two-SVD angle
of a subspace against a coordinate half-space; and the Cayley transform of
the graph of a Hermitian matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import relspace as rs
from tripletflow import symbols as sy
from tripletflow import verify as vf

from conftest import random_complex
from test_orthonormalize_once import count_linalg


def random_sign_input(rng, n, offset):
    """A matrix whose eigenvalues have real parts of modulus at least
    `offset`, so that a smaller offset takes more Newton steps."""
    reals = offset * np.exp(rng.uniform(0.0, 3.0, n))
    d = np.diag(np.where(rng.random(n) < 0.5, -1.0, 1.0) * reals
                + 1j * rng.standard_normal(n))
    v = random_complex(rng, n, n)
    return v @ d @ np.linalg.inv(v)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def sign_steps(monkeypatch, mat):
    """Newton steps of the sign of one matrix, one inverse per step."""
    with monkeypatch.context() as patch:
        calls = count_linalg(patch)
        sy.matrix_sign(mat)
    return len(calls)


def old_matrix_sign(mat):
    """The sign iteration of one matrix, as it was before stacks."""
    s = np.asarray(mat, dtype=complex)
    n = s.shape[0]
    converged = False
    for _ in range(100):
        det = np.linalg.det(s)
        s_scaled = abs(det) ** (-1.0 / n) * s
        s = 0.5 * (s_scaled + np.linalg.inv(s_scaled))
        if converged:
            return s
        converged = (np.linalg.norm(s @ s - np.eye(n))
                     <= 1e-12 * max(1.0, np.linalg.norm(s) ** 2))
    raise AssertionError("no convergence")


def test_sign_equals_the_single_matrix_iteration_on_verify_draws():
    # the scales and steps are the same floating-point operations as
    # before; only the convergence test's norm is summed another way
    rng = np.random.default_rng(0)
    rhos = [vf._random_rho(rng) for _ in range(300)]
    for rho in rhos:
        assert same_bits(sy.matrix_sign(1j * rho), old_matrix_sign(1j * rho))
    for n in range(2, 7):
        stack = np.array([1j * rho for rho in rhos if len(rho) == n])
        for member, sign in zip(stack, sy.matrix_sign(stack)):
            assert same_bits(old_matrix_sign(member), sign)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 6), count=st.integers(1, 5),
       offsets=st.lists(st.sampled_from([1e-4, 1e-2, 0.3, 1.0]),
                        min_size=5, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_sign_equals_each_member_alone(n, count, offsets, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([random_sign_input(rng, n, offsets[k])
                      for k in range(count)]).reshape(count, n, n)
    signs = sy.matrix_sign(stack)
    assert signs.shape == stack.shape
    for member, sign in zip(stack, signs):
        assert same_bits(sy.matrix_sign(member), sign)
    # a leading shape of more than one axis is kept
    assert same_bits(sy.matrix_sign(stack.reshape(1, count, n, n)),
                     signs.reshape(1, count, n, n))


def test_stack_members_leave_after_their_own_step_count(monkeypatch):
    rng = np.random.default_rng(7)
    stack = np.array([random_sign_input(rng, 4, offset)
                      for offset in (1.0, 1e-2, 1e-4, 0.3)])
    steps = [sign_steps(monkeypatch, member) for member in stack]
    assert len(set(steps)) > 1
    signs = sy.matrix_sign(stack)
    for member, sign in zip(stack, signs):
        assert same_bits(sy.matrix_sign(member), sign)
    # the stack takes as many steps as its slowest member
    assert sign_steps(monkeypatch, stack) == max(steps)


@pytest.mark.parametrize("bad, message", [
    (np.diag([1j, 2.3j, 5.7j]), "sign iteration did not converge"),
    (1j * np.eye(3), "sign iteration hit a singular matrix")],
    ids=["no-convergence", "singular"])
def test_stacked_sign_raises_as_its_failing_member(bad, message):
    with pytest.raises(np.linalg.LinAlgError) as alone:
        sy.matrix_sign(bad)
    assert str(alone.value).startswith(message)
    rng = np.random.default_rng(3)
    stack = np.array([random_sign_input(rng, 3, 1.0), bad,
                      random_sign_input(rng, 3, 0.3)])
    with pytest.raises(np.linalg.LinAlgError) as stacked:
        sy.matrix_sign(stack)
    assert str(stacked.value) == str(alone.value)


def test_calderon_symbol_of_a_stack_equals_each_member_alone(rng):
    # i * rho has no eigenvalue on the imaginary axis
    rhos = np.array([-1j * random_sign_input(rng, 3, 0.1) for _ in range(6)])
    projs = sy.calderon_symbol(rhos)
    for rho, proj in zip(rhos, projs):
        assert same_bits(sy.calderon_symbol(rho), proj)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_spectral_split_takes_one_svd_of_both_projectors(monkeypatch, n):
    rng = np.random.default_rng(n)
    rho = random_sign_input(rng, n, 0.5)
    calls = count_linalg(monkeypatch)
    lower, upper = sy.spectral_split(rho)
    assert [c for c in calls if c[0] == "svd"] == [("svd", (2, n, n))]
    assert lower.dim + upper.dim == n


def test_spectral_splits_of_a_stack_equal_each_member_alone(monkeypatch):
    rng = np.random.default_rng(11)
    rhos = np.array([random_sign_input(rng, 4, 0.2) for _ in range(5)])
    alone = [sy.spectral_split(rho) for rho in rhos]
    calls = count_linalg(monkeypatch)
    stacked = sy.spectral_splits(rhos)
    assert [c for c in calls if c[0] == "svd"] == [("svd", (10, 4, 4))]
    for pair, pair_alone in zip(stacked, alone, strict=True):
        for space, space_alone in zip(pair, pair_alone):
            assert same_bits(space.basis, space_alone.basis)
    assert sy.spectral_splits(np.zeros((0, 3, 3))) == []


def old_min_angle(sub, axis):
    """Transversality angle as two SVDs of the basis against the axis."""
    if sub.dim == 0 or axis.dim == 0:
        return float(np.pi / 2)
    small, large = sorted((sub.basis, axis.basis), key=np.shape)
    proj = large.conj().T @ small
    cos = np.linalg.svd(proj, compute_uv=False)[0]
    sin = np.linalg.svd(small - large @ proj, compute_uv=False)[-1]
    return float(np.arctan2(sin, cos))


def old_angles(point):
    lower, upper = sy.spectral_split(point.rho)
    half = point.half_dim
    eye = np.eye(2 * half)
    first, second = rs.Subspace(eye[:, :half]), rs.Subspace(eye[:, half:])
    return {"lower_vs_first": old_min_angle(lower, first),
            "lower_vs_second": old_min_angle(lower, second),
            "upper_vs_first": old_min_angle(upper, first),
            "upper_vs_second": old_min_angle(upper, second)}


def random_dirac_point(rng, half):
    tb = random_complex(rng, half, half)
    tb = 0.5 * (tb - tb.conj().T)
    gap = np.min(np.abs(np.linalg.eigvalsh(1j * tb)))
    if gap < 0.2:
        tb = tb + 1j * (0.3 + gap) * np.eye(half)
    return sy.SymbolPoint.dirac(tb)


def test_stacked_angles_match_the_two_svd_angles(rng):
    for _ in range(60):
        point = random_dirac_point(rng, int(rng.integers(1, 7)))
        split = sy.spectral_split(point.rho)
        assert split[0].dim == split[1].dim == point.half_dim
        angles = sy.transversality_check(point, split)
        assert sy.transversality_check(point) == angles
        for key, value in old_angles(point).items():
            assert abs(angles[key] - value) <= 1e-15
        assert angles["transversal"]


@pytest.mark.parametrize("rho", [np.diag([-1j, -2j]), np.diag([2j, 1j]),
                                 np.diag([-1j, 1j, 2j, 3j])],
                         ids=["lower-2", "upper-2", "lower-1-of-4"])
def test_split_of_another_dimension_keeps_the_two_svd_angles(rho):
    class _Point:
        half_dim = len(rho) // 2

    _Point.rho = rho
    angles = sy.transversality_check(_Point())
    assert {k: v for k, v in angles.items() if k != "transversal"} == \
        old_angles(_Point())


def old_transversality_angles(split, half):
    """The angles as they were computed with two paths: one stacked SVD for
    splits of half dimension, two SVDs per angle (`old_min_angle`) for any
    other split."""
    lower, upper = split
    if half and lower.dim == upper.dim == half:
        svals = np.linalg.svd(np.stack(
            [lower.basis[:half], lower.basis[half:],
             upper.basis[:half], upper.basis[half:]]), compute_uv=False)
        values = np.arctan2(svals[[1, 0, 3, 2], -1], svals[:, 0])
    else:
        eye = np.eye(2 * half)
        values = [old_min_angle(sub, rs.Subspace(axis))
                  for sub in (lower, upper)
                  for axis in (eye[:, :half], eye[:, half:])]
    return [float(value) for value in values]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.data())
def test_one_angle_formula_for_every_split(half, data):
    # rho of dimension 2 * half with `lower` eigenvalues below the real
    # axis, so the splits range from empty to the whole space
    n = 2 * half
    lower = data.draw(st.integers(0, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    imag = rng.uniform(0.5, 2.0, n) * np.where(np.arange(n) < lower, -1, 1)
    vecs = random_complex(rng, n, n) + 3.0 * np.eye(n)
    rho = vecs @ np.diag(rng.standard_normal(n) + 1j * imag) \
        @ np.linalg.inv(vecs)

    class _Point:
        half_dim = half

    _Point.rho = rho
    split = sy.spectral_split(rho)
    assert split[0].dim == lower
    angles = sy.transversality_check(_Point(), split)
    verdict = angles.pop("transversal")
    new, old = list(angles.values()), old_transversality_angles(split, half)
    if lower == half:
        assert new == old
    for space, pair in enumerate((slice(0, 2), slice(2, 4))):
        if split[space].dim > half:
            # the space meets both half-spaces: the angles are 0, where the
            # two-SVD path left a rounding residue
            assert new[pair] == [0.0, 0.0]
            assert max(old[pair]) <= 1e-14
        else:
            assert np.all(np.abs(np.subtract(new[pair], old[pair])) <= 1e-15)
    assert verdict == (min(old) > 1e-9)


def verify_flat_loop():
    theta = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    taus = []
    for t in theta:
        tb = np.array([[1j * (2 + math.cos(t)), math.sin(t)],
                       [-math.sin(t), 1j * (2 - math.cos(t))]], dtype=complex)
        taus.append(0.5 * (tb - tb.conj().T))
    return taus


def test_split_winding_report_makes_no_svd_and_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the report builds no graph and no relation")

    monkeypatch.setattr(rs.LinearRelation, "graph_of", refuse)
    monkeypatch.setattr(rs, "cayley_unitary", refuse)
    monkeypatch.setattr(rs, "cayley_unitaries", refuse)
    calls = count_linalg(monkeypatch)
    report = sy.split_winding_report(verify_flat_loop())
    assert report == {"total": 0, "lower": 0, "upper": 0,
                      "additivity_defect": 0}
    # the sign of the constant grading -i, converged after one step and
    # returned after the extra one, then one inverse for all three loops
    assert calls == [("inv", (48, 2, 2)), ("inv", (48, 2, 2)),
                     ("inv", (3, 48, 2, 2))]


def random_graded_loop(rng, samples, dims):
    """Skew-adjoint taus commuting with a constant grading whose lower and
    upper bundles have dimensions `dims`, both conjugated by one unitary."""
    n = sum(dims)
    unitary, _ = np.linalg.qr(random_complex(rng, n, n))
    grading = unitary @ np.diag([1j] * dims[0] + [-1j] * dims[1]) \
        @ unitary.conj().T
    taus = []
    for _ in range(samples):
        block = np.zeros((n, n), dtype=complex)
        for lo, hi in ((0, dims[0]), (dims[0], n)):
            m = random_complex(rng, hi - lo, hi - lo)
            block[lo:hi, lo:hi] = 0.5 * (m - m.conj().T)
        taus.append(unitary @ block @ unitary.conj().T)
    return taus, [grading] * samples


@pytest.mark.parametrize("dims", [(2, 0), (1, 1), (2, 3)])
def test_cayley_loops_match_the_transform_of_the_graph(rng, monkeypatch,
                                                      dims):
    taus, grads = random_graded_loop(rng, 16, dims)
    loops = []
    monkeypatch.setattr(sy, "det_winding", lambda loop: loops.append(loop)
                        or 0)
    sy.split_winding_report(taus, grads)
    herms = [1j * tb for tb in taus]
    lowers = [sy.calderon_symbol(g) for g in grads]
    uppers = [np.eye(len(p)) - p for p in lowers]
    references = [herms, [p @ h @ p for p, h in zip(lowers, herms)],
                  [q @ h @ q for q, h in zip(uppers, herms)]]
    assert len(loops) == 3
    for loop, mats in zip(loops, references):
        for unitary, m in zip(loop, mats):
            expected = rs.cayley_unitary(
                rs.LinearRelation.graph_of(0.5 * (m + m.conj().T)))
            assert np.linalg.norm(unitary - expected) <= 1e-13


def test_split_winding_names_the_first_failing_sample():
    taus = [np.diag([1j, -2j]) for _ in range(6)]
    grads = [np.diag([1j, -1j]) for _ in range(6)]
    # sample 1 does not commute with its grading; sample 3 is not skew
    taus[1] = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    taus[3] = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError, match="grading must commute"):
        sy.split_winding_report(taus, grads)
    grads[0] = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="grading must be skew-adjoint"):
        sy.split_winding_report(taus, grads)


def test_split_winding_loops_of_two_lengths_are_refused():
    taus = [np.diag([1j, -2j]) for _ in range(6)]
    with pytest.raises(ValueError, match="differ in length"):
        sy.split_winding_report(taus, [np.diag([1j, -1j])] * 5)


def test_verify_splits_each_point_once(monkeypatch):
    def refuse(rho):
        raise AssertionError("verify splits its points in stacks")

    stacks, checks = [], []
    splits, check = sy.spectral_splits, sy.transversality_check
    monkeypatch.setattr(sy, "spectral_split", refuse)
    monkeypatch.setattr(sy, "spectral_splits", lambda rhos:
                        stacks.append(list(rhos)) or splits(rhos))
    monkeypatch.setattr(sy, "transversality_check",
                        lambda point, known=None:
                        checks.append((point.rho, known))
                        or check(point, known))
    trials = 8
    assert all(r["pass"] for r in vf.suite_symbols(trials=trials, seed=0))
    # rho and -rho for each rho of the negation-swap loop, then each Dirac
    # point once, its split handed to the transversality check
    split_rhos = [rho for stack in stacks for rho in stack]
    assert checks and len(split_rhos) == 2 * (trials // 2) + len(checks)
    for point_rho, known in checks:
        assert sum(rho is point_rho for rho in split_rhos) == 1
        assert known is not None
