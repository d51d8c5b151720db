import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import famindex as fi
from tripletflow import relspace as rs
from tripletflow import sturm
from tripletflow.triplet import reduced_triplet, transform_boundary_condition

from conftest import random_complex
from test_orthonormalize_once import count_linalg

THETA = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)


def scalar_loop(winding):
    return [np.array([[np.exp(1j * winding * t)]]) for t in THETA]


# -- determinant winding -------------------------------------------------------

def test_winding_constant_loop():
    assert fi.det_winding([np.eye(3, dtype=complex) for _ in THETA]) == 0


def test_winding_scalar_loop():
    assert fi.det_winding(scalar_loop(1)) == 1
    assert fi.det_winding(scalar_loop(-3)) == -3


def test_winding_additive_under_direct_sum():
    sums = [np.diag([np.exp(1j * t), np.exp(-2j * t)]) for t in THETA]
    assert fi.det_winding(sums) == -1


def test_winding_reparameterization_and_reversal():
    warped = [np.array([[np.exp(1j * (t + 0.4 * math.sin(t)))]])
              for t in THETA]
    assert fi.det_winding(warped) == 1
    reverse = [warped[0]] + warped[:0:-1]
    assert fi.det_winding(reverse) == -1


def test_winding_needs_refinement_without_callback():
    coarse = [np.array([[np.exp(1j * t)]])
              for t in np.linspace(0, 2 * math.pi, 8, endpoint=False)]
    # steps of pi/4 produce ||dU|| ~ 0.76 > 0.5
    with pytest.raises(fi.RefinementError, match="refinement"):
        fi.det_winding(coarse)
    wind = fi.det_winding(fi.FamilyLoop(
        np.linspace(0, 2 * math.pi, 8, endpoint=False), coarse,
        generator=lambda t: np.array([[np.exp(1j * t)]])))
    assert wind == 1


@pytest.mark.parametrize("count", [40, 80])
def test_loops_reject_thetas_of_another_length(count):
    # 64 samples each
    thetas = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    with pytest.raises(ValueError, match="differ in length"):
        fi.det_winding(fi.FamilyLoop(thetas, scalar_loop(1)))


def test_winding_rejects_reversed_thetas():
    with pytest.raises(ValueError, match="strictly increasing"):
        fi.det_winding(fi.FamilyLoop(THETA[::-1], scalar_loop(1)[::-1]))


def test_winding_mobius_relation_loop():
    # graph of -kappa over the circle: the generator of the circle index
    def unitary(theta):
        rel = rs.LinearRelation.from_blocks(
            np.array([[1.0]]),
            np.array([[-sturm.kappa_of_theta(theta)]])
            if not math.isinf(sturm.kappa_of_theta(theta))
            else np.array([[1.0]]))
        if math.isinf(sturm.kappa_of_theta(theta)):
            rel = rs.LinearRelation.zero_times_full(1)
        return rs.cayley_unitary(rel)

    loop = [unitary(t) for t in THETA]
    assert fi.det_winding(fi.FamilyLoop(THETA, loop, unitary)) == 1


@pytest.mark.parametrize("symbol", [
    lambda t: 2.0 * np.exp(1j * t),
    lambda t: 0.5 * np.exp(1j * t),
    lambda t: 0.5j + np.cos(t),
])
def test_relation_index_rejects_loops_that_are_not_unitary(symbol):
    # graphs of 1 x 1 matrices, real at no more than two samples: the
    # Cayley transforms of the others are not unitary, and no integer is
    # attached to the loop
    rels = [rs.LinearRelation.graph_of(np.array([[symbol(t)]]))
            for t in THETA]
    bad = np.flatnonzero(~rs.is_self_adjoint_batch(rels))
    assert len(bad) >= len(THETA) - 2
    with pytest.raises(ValueError, match=re.escape(
            f"sample at theta={THETA[bad[0]]} is not unitary")):
        fi.relation_family_index(fi.FamilyLoop(THETA, rels))


def test_winding_checks_refined_samples_for_unitarity():
    coarse = np.linspace(0, 2 * math.pi, 8, endpoint=False)

    def generator(t):
        # unitary on the grid only: every refined sample is scaled
        scale = 1.0 if np.isclose(coarse, t).any() else 1.01
        return np.array([[scale * np.exp(1j * t)]])

    with pytest.raises(ValueError, match=r"theta=0\.39269\d* is not "
                                         "unitary"):
        fi.det_winding(fi.FamilyLoop(coarse, [generator(t) for t in coarse],
                                     generator))


def test_index_report_consistency_is_derived():
    assert fi.IndexReport(spectral_flow=None, winding=3).consistent
    assert fi.IndexReport(spectral_flow=2, winding=2).consistent
    assert not fi.IndexReport(spectral_flow=1, winding=-1).consistent
    report = fi.IndexReport(spectral_flow=None, winding=0).to_dict()
    assert report["consistent"] is True and "crossing_kappa" not in report


# -- spectral flow -------------------------------------------------------------

def test_spectral_flow_constant_and_oscillating():
    eigs = [np.array([1.0, 5.0]) for _ in THETA]
    assert fi.spectral_flow(fi.FamilyLoop(list(THETA), eigs), level=0.0) == 0
    cosine = [np.array([math.cos(t)]) for t in THETA]
    assert fi.spectral_flow(fi.FamilyLoop(list(THETA), cosine), level=0.0,
                            window=0.6) == 0


def test_spectral_flow_counts_upward_crossing():
    # a single branch sweeping from -1 to 1 once around (sawtooth with the
    # jump far from the level)
    def branch(t):
        return np.array([-1.0 + t / math.pi])

    loop = fi.FamilyLoop(list(THETA), [branch(t) for t in THETA],
                         generator=branch)
    flow = fi.spectral_flow(loop, level=0.0, window=0.4)
    assert flow == 1


def test_spectral_flow_refinement_error():
    thetas = list(np.linspace(0, 2 * math.pi, 10, endpoint=False))
    eigs = [np.array([math.sin(8 * t) * 2.0]) for t in thetas]
    with pytest.raises(fi.RefinementError):
        fi.spectral_flow(fi.FamilyLoop(thetas, eigs), level=0.0, window=0.25)


@pytest.mark.parametrize("shift", [0.3, 1.1, 2.5])
def test_crossing_is_read_off_the_eigenvalue_walk(shift):
    # one branch rising from -1 to 1 once around, with its jump at theta =
    # shift: it meets level zero at shift + pi, wherever shift puts it
    def sawtooth(theta):
        return np.array([((theta - shift) % (2 * math.pi)) / math.pi - 1.0])

    loop = fi.FamilyLoop(list(THETA), [sawtooth(t) for t in THETA],
                         generator=sawtooth)
    flow, crossings = fi._flow_walk(loop, level=0.0, window=0.4)
    assert flow == 1 and len(crossings) == 1
    theta = fi._polish_crossing(lambda ts: [sawtooth(t) for t in ts],
                                *crossings[0])
    assert abs(theta - (shift + math.pi)) < 1e-12


def test_rellich_spectral_flow_and_crossing():
    loop = fi.rellich_eigenvalue_samples(samples=360)
    assert fi.spectral_flow(loop, level=0.0, window=1.0) == 1


@pytest.fixture(scope="module")
def robin_loop():
    return fi.rellich_eigenvalue_samples(samples=720)


@pytest.mark.parametrize("level, window, match", [
    (0.0, 0.0, "window"), (0.0, -1.0, "window"), (0.0, math.nan, "window"),
    (0.0, math.inf, "window"), (math.nan, 1.0, "level"),
    (math.inf, 1.0, "level"), (-math.inf, 1.0, "level")])
def test_spectral_flow_rejects_bad_level_and_window(robin_loop, level,
                                                    window, match):
    # each read as flow 0 on this loop of flow 1 when accepted
    assert fi.spectral_flow(robin_loop, level=0.0, window=1.0) == 1
    with pytest.raises(ValueError, match=match):
        fi.spectral_flow(robin_loop, level=level, window=window)


# -- relation families ----------------------------------------------------------

def test_relation_family_constant_is_zero(rng):
    h = random_complex(rng, 2, 2)
    h = h + h.conj().T
    rels = [rs.LinearRelation.graph_of(h) for _ in THETA]
    assert fi.relation_family_index(fi.FamilyLoop(list(THETA), rels)) == 0


def test_transformed_family_matches_plain_robin_part():
    rt = reduced_triplet(sturm.RellichBoundaryProblem())

    def transformed(theta):
        return transform_boundary_condition(
            rt, sturm.robin_relation(sturm.kappa_of_theta(theta)))

    loop = fi.FamilyLoop(list(THETA), [transformed(t) for t in THETA],
                         generator=transformed)
    assert fi.relation_family_index(loop) == 1

    def raw(theta):
        return sturm.robin_relation(sturm.kappa_of_theta(theta))

    raw_loop = fi.FamilyLoop(list(THETA), [raw(t) for t in THETA],
                             generator=raw)
    assert fi.relation_family_index(raw_loop) == 1


def test_conjugation_invariance(rng):
    h = random_complex(rng, 2, 2)
    h = h + h.conj().T

    def conjugator(t):
        evals, evecs = np.linalg.eigh(math.sin(t) * h)
        return evecs @ np.diag(np.exp(1j * evals)) @ evecs.conj().T

    def conjugated(theta):
        rel = sturm.robin_relation(sturm.kappa_of_theta(theta))
        w = conjugator(theta)
        lmap = np.zeros((4, 4), dtype=complex)
        lmap[:2, :2] = w
        lmap[2:, 2:] = w
        return rs.map_relation(lmap, rel)

    loop = fi.FamilyLoop(list(THETA), [conjugated(t) for t in THETA],
                         generator=conjugated)
    assert fi.relation_family_index(loop) == 1


def test_weyl_shift_homotopy(rng):
    shift = random_complex(rng, 2, 2)
    shift = shift + shift.conj().T
    windings = set()
    for tpar in (0.0, 0.5, 1.0):
        def shifted(theta, tp=tpar):
            smap = np.eye(4, dtype=complex)
            smap[2:, :2] = -tp * shift
            return rs.map_relation(
                smap, sturm.robin_relation(sturm.kappa_of_theta(theta)))

        loop = fi.FamilyLoop(list(THETA), [shifted(t) for t in THETA],
                             generator=shifted)
        for rel in loop.payloads:
            assert rs.is_self_adjoint(rel)
        windings.add(fi.relation_family_index(loop))
    assert len(windings) == 1


# -- reports ---------------------------------------------------------------------

def test_verify_index_theorem_default():
    report = fi.verify_index_theorem(samples=240)
    assert report.spectral_flow == 1
    assert report.winding == 1
    assert report.consistent
    # within 2 ulps of the exact crossing at kappa = 1
    assert abs(report.crossing_kappa - 1.0) <= 2 * np.spacing(1.0)


# Known wrong flows: a branch that jumps across the level between two
# samples is taken for window-edge traffic.  Today these read 0 and 1.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
@pytest.mark.parametrize("samples", [2, 3, 5, 7])
def test_index_theorem_flow_on_coarse_loops(samples):
    report = fi.verify_index_theorem(samples=samples)
    assert report.winding == 1
    assert report.spectral_flow == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
@pytest.mark.parametrize("seed, speed", [(17, 1), (5, 6)])
def test_periodic_branch_has_no_flow_at_random_angles(seed, speed):
    thetas = np.sort(np.random.default_rng(seed).uniform(0, 2 * math.pi, 16))

    def gen(theta):
        return np.array([math.sin(speed * theta)])

    loop = fi.FamilyLoop(thetas, [gen(t) for t in thetas], gen)
    assert fi.spectral_flow(loop, 0.0, window=0.5) == 0


def test_constant_dirichlet_report():
    rep = fi.robin_index_report(lambda th: math.inf, samples=16)
    assert rep.spectral_flow == 0 and rep.winding == 0 and rep.consistent


def test_orientation_reversed_report():
    rep = fi.robin_index_report(
        lambda th: sturm.kappa_of_theta((2 * math.pi - th) % (2 * math.pi)),
        samples=360)
    assert rep.spectral_flow == -1 and rep.winding == -1 and rep.consistent


def test_double_speed_report():
    rep = fi.robin_index_report(
        lambda th: sturm.kappa_of_theta((2.0 * th) % (2 * math.pi)),
        samples=720)
    assert rep.spectral_flow == 2 and rep.winding == 2 and rep.consistent


def test_branch_table_continuity():
    thetas = np.linspace(0, 2 * math.pi, 24, endpoint=False)
    kappas = [sturm.kappa_of_theta(t) for t in thetas]
    eigs = [sturm.secular_eigenvalues(k, lambda_max=60.0) for k in kappas]
    rows = fi.branch_table(thetas, kappas, eigs)
    assert rows[0][2] == 0
    # branch ids are stable along the Neumann start
    first_ids = [r[2] for r in rows if r[0] == 0.0]
    second_ids = [r[2] for r in rows if abs(r[0] - thetas[1]) < 1e-12]
    assert first_ids == second_ids


def test_family_loop_validation():
    with pytest.raises(ValueError):
        fi.FamilyLoop([0.0, 0.0], [np.eye(1), np.eye(1)])
    with pytest.raises(ValueError):
        fi.FamilyLoop([0.0], [np.eye(1)])
    # orientation is not a loop field: a reversed loop is its own family
    with pytest.raises(TypeError):
        fi.FamilyLoop([0.0, 1.0], [np.eye(1), np.eye(1)], orientation=-1)


@pytest.mark.parametrize("thetas", [[0.0, 3.0, 7.0], [-0.1, 1.0],
                                    [0.0, 2 * math.pi], [0.0, float("nan")],
                                    [0.0, float("nan"), 1.0]])
def test_family_loop_rejects_angles_outside_circle(thetas):
    # a theta >= 2*pi would make the wrap-around interval run backwards
    with pytest.raises(ValueError, match=r"\[0, 2\*pi\)"):
        fi.FamilyLoop(thetas, [np.eye(1)] * len(thetas))


# -- the loop walker -------------------------------------------------------------

def counted(loop):
    """The loop with its generator wrapped to count its calls in
    `.generator.calls`."""
    def generator(theta):
        generator.calls += 1
        return loop.generator(theta)

    generator.calls = 0
    return fi.FamilyLoop(loop.thetas, loop.payloads, generator)


def count_calls(monkeypatch, name):
    """Replace famindex.<name> by a wrapper that appends to the returned
    list on each call."""
    calls, inner = [], getattr(fi, name)

    def wrapped(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(fi, name, wrapped)
    return calls


def test_flow_walk_stops_at_a_collapsed_interval():
    # at lambda_max 0.5 a branch leaves the list inside the window, so no
    # bisection can attribute it: the walk narrows onto that point until
    # the midpoint is an end of the interval, and stops there
    loop = counted(fi.rellich_eigenvalue_samples(72, 0.5))
    text = ("cannot attribute branches on [4.900615, 4.900615]; "
            "supply a finer loop or a generator")
    with pytest.raises(fi.RefinementError, match=re.escape(text)), \
            mock.patch.object(fi, "_MAX_INSERTS", 200):
        fi.spectral_flow(loop, 0.0, 1.0)
    assert loop.generator.calls < 100


def test_winding_stops_at_a_collapsed_interval():
    # the loop jumps from 1 to -1 at theta = pi
    def jump(theta):
        return np.array([[1.0 if theta < math.pi else -1.0]])

    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    loop = counted(fi.FamilyLoop(thetas, [jump(t) for t in thetas], jump))
    text = ("loop step too coarse on [3.141593, 3.141593] (||dU|| = 2.000)"
            "; supply more samples or a refinement callback")
    with pytest.raises(fi.RefinementError, match=re.escape(text)):
        fi.det_winding(loop)
    assert loop.generator.calls < 100


def old_step_verdicts(u0s, u1s):
    """The step test as it was before one eigendecomposition served both
    measures: the spectral norm of U1 - U0 as the step size, and the
    eigenphases of the transition taken only where that size passes."""
    gaps = np.linalg.norm(u1s - u0s, 2, axis=(-2, -1))
    fine = gaps < 0.5
    angles = np.zeros(len(gaps))
    trans = u1s[fine] @ u0s[fine].conj().swapaxes(-1, -2)
    angles[fine] = np.sum(np.angle(np.linalg.eigvals(trans)), axis=-1)
    return gaps, fine, angles


def random_unitary(rng, n):
    return np.linalg.qr(random_complex(rng, n, n))[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.floats(0.3, 0.7))
def test_step_size_and_angle_from_the_transition_eigenvalues(n, count, seed,
                                                              scale):
    # steps exp(i s H / ||H||) U0 with s from 0.24 to 0.875, so that the
    # step sizes 2 sin(s / 2) straddle the bound 0.5
    rng = np.random.default_rng(seed)
    u0s = np.array([random_unitary(rng, n) for _ in range(count)])
    u1s = np.empty_like(u0s)
    for k, u0 in enumerate(u0s):
        herm = random_complex(rng, n, n)
        lam, vec = np.linalg.eigh(herm + herm.conj().T)
        t = scale * rng.uniform(0.8, 1.25) / np.abs(lam).max()
        u1s[k] = (vec * np.exp(1j * t * lam)) @ vec.conj().T @ u0
    lams = fi._transition_eigenvalues(u0s, u1s)
    gaps = np.max(np.abs(lams - 1.0), axis=-1)
    angles = np.sum(np.angle(lams), axis=-1)
    old_gaps, old_fine, old_angles = old_step_verdicts(u0s, u1s)
    assert np.all(np.abs(gaps - old_gaps) <= 1e-14)
    assert np.array_equal(gaps < 0.5, old_fine)
    assert angles[old_fine].tobytes() == old_angles[old_fine].tobytes()


def test_winding_takes_one_eigendecomposition_and_no_svd(monkeypatch):
    loop = fi.rellich_boundary_family(720)
    unitaries = rs.cayley_unitaries(loop.payloads)
    calls = count_linalg(monkeypatch, names=("svd", "eigvals"))
    assert fi.det_winding(fi.FamilyLoop(loop.thetas, unitaries)) == 1
    assert calls == [("eigvals", (720, 2, 2))]


@pytest.mark.parametrize("samples,inserts", [(720, (0, 0)), (8, (10, 6))])
def test_each_interval_is_judged_once(monkeypatch, samples, inserts):
    # the sweep judges every sample interval in one call, and each half of
    # a bisection is judged once, as a stack of one
    steps = count_calls(monkeypatch, "_transition_eigenvalues")
    judged = count_calls(monkeypatch, "_judge_intervals")
    relations = counted(fi.rellich_boundary_family(samples))
    eigenvalues = counted(fi.rellich_eigenvalue_samples(samples))
    assert fi.relation_family_index(relations) == 1
    assert fi.spectral_flow(eigenvalues, 0.0, 1.0) == 1
    assert (relations.generator.calls, eigenvalues.generator.calls) == inserts
    assert len(steps) == 1 + 2 * relations.generator.calls
    assert len(judged) == 1 + 2 * eigenvalues.generator.calls
