"""Stacked relation algebra against per-sample references.

The references below are the per-sample constructions the stacked code
replaces: one SVD, adjoint, transform or walk step per relation.  They are
kept here so the stacked paths can be compared with them exactly.  The
transformed Robin loop, whose bases are fixed only up to the SVD's choice,
is held to a 40-digit mpmath oracle of the same loop instead.
"""

import importlib
import math
import pkgutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import mpmath
except ImportError:  # the exact-loop oracle test is skipped without it
    mpmath = None

import tripletflow
from tripletflow import cayley as cy
from tripletflow import famindex as fi
from tripletflow import relspace as rs
from tripletflow import sturm
from tripletflow import triplet as tp
from tripletflow import verify as vf
from tripletflow.triplet import (reduced_triplet,
                                 transform_boundary_conditions)
from tripletflow.verify import _finite_problem

from conftest import random_complex


# -- per-sample references --------------------------------------------------

def robin_relation_reference(kappa):
    if math.isinf(kappa):
        cols = np.array([[0, 0], [0, 0], [1, 0], [0, 1]], dtype=complex)
    else:
        cols = np.array([[0, 0], [1, 0], [0, 1], [-kappa, 0]], dtype=complex)
    return rs.LinearRelation.from_span(2, 2, cols)


def transform_reference(rt, rel):
    """Restrict to the full small space, shear by -DtN, then apply
    lam' (+) lam^(-1), one relation at a time."""
    d = rt.triple.dim
    full = rs.Subspace.full(d)
    restricted = rs.restrict_relation(rel, full, full)
    shear = np.eye(2 * d, dtype=complex)
    shear[d:, :d] = -rt.dtn
    lam_map = np.zeros((2 * d, 2 * d), dtype=complex)
    lam_map[:d, :d] = rt.triple.lam_prime
    lam_map[d:, d:] = rt.triple.lam_inv
    return rs.map_relation(lam_map, rs.map_relation(shear, restricted))


def cayley_reference(rel):
    x_blk, y_blk = rel.dom_block(), rel.cod_block()
    return (y_blk - 1j * x_blk) @ np.linalg.inv(y_blk + 1j * x_blk)


def winding_reference(mats, thetas, refine=None, step_bound=0.5,
                      round_tol=0.05, max_inserts=20000):
    """The sample-by-sample bisection walk of a determinant loop."""
    period = 2.0 * math.pi
    count = len(mats)
    stack = [(thetas[i], thetas[(i + 1) % count]
              + (period if i + 1 == count else 0.0),
              mats[i], mats[(i + 1) % count]) for i in range(count)]
    stack.reverse()
    total, inserted = 0.0, 0
    while stack:
        t0, t1, u0, u1 = stack.pop()
        gap = np.linalg.norm(u1 - u0, 2)
        if gap >= step_bound:
            if refine is None or inserted >= max_inserts:
                raise fi.RefinementError(
                    f"loop step too coarse on [{t0:.6f}, {t1:.6f}] "
                    f"(||dU|| = {gap:.3f}); supply more samples or a "
                    "refinement callback")
            tm = 0.5 * (t0 + t1)
            um = refine(tm % period)
            inserted += 1
            stack.append((tm, t1, um, u1))
            stack.append((t0, tm, u0, um))
            continue
        trans = u1 @ u0.conj().T
        total += float(np.sum(np.angle(np.linalg.eigvals(trans))))
    turns = total / period
    if abs(turns - round(turns)) > round_tol:
        raise fi.RefinementError("not near an integer")
    return int(round(turns)), total


def pairs_reference(a, b, margin):
    """Greedy nearest-neighbor pairing of two eigenvalue sets, walking the
    stable flat argsort (ties in row-major order) until the first move
    above the margin."""
    pairs, used_a, used_b = [], set(), set()
    if a.size and b.size:
        order = np.argsort(np.abs(a[:, None] - b[None, :]), axis=None,
                           kind="stable")
        for flat in order:
            i, j = divmod(int(flat), b.size)
            if i in used_a or j in used_b:
                continue
            if abs(a[i] - b[j]) > margin:
                break
            pairs.append((a[i], b[j]))
            used_a.add(i)
            used_b.add(j)
    unmatched = ([a[i] for i in range(a.size) if i not in used_a]
                 + [b[j] for j in range(b.size) if j not in used_b])
    return pairs, unmatched


def flow_reference(thetas, samples, refine=None, level=0.0, window=1.0,
                   max_inserts=20000):
    """The interval-by-interval bisection walk of an eigenvalue loop:
    (flow, crossings) as `famindex._flow_walk` returns them."""
    period = 2.0 * math.pi
    margin = 0.45 * window
    count = len(samples)
    stack = [(thetas[i], thetas[(i + 1) % count]
              + (period if i + 1 == count else 0.0),
              samples[i], samples[(i + 1) % count]) for i in range(count)]
    stack.reverse()
    flow, crossings, inserted = 0, [], 0
    while stack:
        t0, t1, e0, e1 = stack.pop()
        a = e0[np.abs(e0 - level) <= window]
        b = e1[np.abs(e1 - level) <= window]
        pairs, unmatched = pairs_reference(a, b, margin)
        if any(abs(abs(lam - level) - window) > margin for lam in unmatched):
            if refine is None or inserted >= max_inserts:
                raise fi.RefinementError(
                    f"cannot attribute branches on [{t0:.6f}, {t1:.6f}]; "
                    "supply a finer loop or a generator")
            tm = 0.5 * (t0 + t1)
            em = np.asarray(refine(tm % period), dtype=float)
            inserted += 1
            stack.append((tm, t1, em, e1))
            stack.append((t0, tm, e0, em))
            continue
        for la, lb in pairs:
            if la <= level < lb:
                flow += 1
            elif lb <= level < la:
                flow -= 1
            else:
                continue
            crossings.append((t0, t1, la, lb))
    return flow, crossings, inserted


def polish_reference(generator, t0, t1, la, lb, level=0.0):
    """The bisection polish of a level crossing, one generator call per
    midpoint."""
    below_at_t0 = la <= level
    for _ in range(200):
        tm = 0.5 * (t0 + t1)
        if not t0 < tm < t1:
            break
        em = np.asarray(generator(tm % (2.0 * math.pi)), dtype=float)
        if not em.size:
            raise fi.RefinementError(
                f"the crossing branch vanished at theta={tm:.17g}")
        vm = float(em[np.argmin(np.abs(em - 0.5 * (la + lb)))])
        if (vm <= level) == below_at_t0:
            t0, la = tm, vm
        else:
            t1, lb = tm, vm
    return (0.5 * (t0 + t1)) % (2.0 * math.pi)


def batched(generator):
    """The batched form of a scalar loop generator."""
    return lambda thetas: [generator(t) for t in thetas]


def branch_table_reference(thetas, kappas, eig_lists, match_tol=None):
    """Branch ids by a per-pair loop over the stable flat argsort of all
    moves (ties in row-major order)."""
    rows, next_id, prev_vals, prev_ids = [], 0, None, None
    for theta, kappa, eigs in zip(thetas, kappas, eig_lists):
        eigs = np.asarray(eigs, dtype=float)
        ids = np.full(eigs.shape, -1, dtype=int)
        if prev_vals is not None and prev_vals.size and eigs.size:
            used = set()
            order = np.argsort(np.abs(eigs[:, None] - prev_vals[None, :]),
                               axis=None, kind="stable")
            for flat in order:
                i, j = divmod(int(flat), prev_vals.size)
                if ids[i] >= 0 or j in used:
                    continue
                limit = (match_tol if match_tol is not None
                         else 0.5 + 0.25 * abs(prev_vals[j]))
                if abs(eigs[i] - prev_vals[j]) <= limit:
                    ids[i] = prev_ids[j]
                    used.add(j)
        for i in range(eigs.size):
            if ids[i] < 0:
                ids[i] = next_id
                next_id += 1
        rows.extend((float(theta), float(kappa), int(bid), float(lam))
                    for lam, bid in zip(eigs, ids))
        prev_vals, prev_ids = eigs, ids
    return rows


# -- the Robin relation loop ------------------------------------------------

def mp_matrix(mat):
    """A complex matrix as an mpmath matrix, entry for entry exact."""
    return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row]
                          for row in np.asarray(mat)])


def exact_robin_loop(rt, kappas):
    """(Cayley unitary, orthogonal projection onto the graph) of each
    transformed Robin relation, in the working precision of mpmath.

    The relation is (Lambda' (+) Lambda^-1) S R with R the exact Robin
    relation of the float kappa and S the shear by -DtN, both maps taken
    exactly from the same float `rt.dtn` and `rt.triple.shift_map` as the
    stacked path; the unitary and the projection do not depend on the
    spanning columns.
    """
    d = rt.triple.dim
    shear = np.eye(2 * d, dtype=complex)
    shear[d:, :d] = -rt.dtn
    trans = mp_matrix(rt.triple.shift_map) * mp_matrix(shear)
    out = []
    for kappa in kappas:
        if math.isinf(kappa):
            raw = mpmath.matrix([[0, 0], [0, 0], [1, 0], [0, 1]])
        else:
            raw = mpmath.matrix([[0, 0], [1, 0], [0, 1],
                                 [-mpmath.mpf(kappa), 0]])
        cols = trans * raw
        x_blk, y_blk = cols[:d, :], cols[d:, :]
        unitary = (y_blk - 1j * x_blk) * mpmath.inverse(y_blk + 1j * x_blk)
        proj = cols * mpmath.inverse(cols.H * cols) * cols.H
        out.append((unitary, proj))
    return out


@pytest.mark.parametrize("samples", [72, 720])
def test_robin_relation_loop_matches_the_exact_loop(samples):
    pytest.importorskip("mpmath")
    loop = fi.rellich_boundary_family(samples=samples)
    rt = reduced_triplet(sturm.RellichBoundaryProblem())
    kappas = [sturm.kappa_of_theta(theta) for theta in loop.thetas]
    worst_unitary = worst_gap = 0.0
    with mpmath.workdps(40):
        exact = exact_robin_loop(rt, kappas)
        for rel, u, (u_exact, proj) in zip(
                loop.payloads, rs.cayley_unitaries(loop.payloads), exact):
            diff = mp_matrix(u) - u_exact
            worst_unitary = max(worst_unitary, max(
                float(abs(z)) for row in diff.tolist() for z in row))
            # the gap: the largest singular value of the basis off the
            # exact relation
            basis = mp_matrix(rel.graph.basis)
            resid = np.array((basis - proj * basis).tolist(), dtype=complex)
            worst_gap = max(worst_gap, float(
                np.linalg.svd(resid, compute_uv=False)[0]))
    assert worst_unitary <= 1e-15
    assert worst_gap <= 1e-15


def closed_form_robin_basis(kappa):
    if math.isinf(kappa):
        cols = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    else:
        h = np.hypot(1.0, kappa)
        cols = [[0.0, 0.0], [1.0 / h, 0.0], [0.0, 1.0], [-kappa / h, 0.0]]
    return np.array(cols, dtype=complex)


def test_robin_relations_equal_per_kappa_spans():
    # from 1e155 on the squared norm of the span column (0, 1, 0, -kappa)
    # overflows
    kappas = [0.0, -0.0, 1.0, -3.5, 60.0, 1e155, 1e300, -1e300, math.inf,
              -math.inf]
    stack = sturm.robin_relations(kappas)
    assert stack.dim == 2
    for kappa, rel in zip(kappas, stack):
        assert rel.dim == 2
        np.testing.assert_array_equal(rel.graph.basis,
                                      closed_form_robin_basis(kappa))
        assert rel.gap(robin_relation_reference(kappa)) <= 1e-15
    with pytest.raises(ValueError, match="non-finite"):
        sturm.robin_relations([0.5, float("nan")])


def test_robin_relation_loop_svd_count(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    rt = reduced_triplet(sturm.RellichBoundaryProblem())
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    thetas = fi._theta_grid(720)
    raw = sturm.robin_relations([sturm.kappa_of_theta(t) for t in thetas])
    # the Robin graphs are orthonormal as written
    assert not calls
    transform_boundary_conditions(rt, raw)
    # one map_relations call, the shear's: one invertibility check and one
    # stacked SVD; the isometry map of the identity triple is skipped
    assert calls == [(4, 4), (720, 4, 2)]


def test_identity_triple_transform_is_the_composed_map():
    rt = reduced_triplet(sturm.RellichBoundaryProblem())
    raw = sturm.robin_relations(
        [sturm.kappa_of_theta(t) for t in fi._theta_grid(720)])
    shear = np.eye(4, dtype=complex)
    shear[2:, :2] = -rt.dtn
    composed = rs.map_relations(rt.triple.shift_map @ shear, raw)
    assert np.array_equal(transform_boundary_conditions(rt, raw).bases,
                          composed.bases)


@pytest.mark.parametrize("seed", [0, 42, 163, 166])
def test_weighted_transform_is_the_two_step_chain(monkeypatch, seed):
    # the relations verify's triplet suite transforms, on problems with a
    # Gram on the small space and a mix (E, H), go through the shear and
    # then the isometry map, not their product, which loses digits: at
    # seed 163 (cond E = 591) the product's image is 3.4e-12 from the
    # exact one, the chain's 5.9e-13
    drawn = []
    transform = tp.transform_boundary_condition

    def recording(rt, rel):
        drawn.append((rt, rel))
        return transform(rt, rel)

    monkeypatch.setattr(tp, "transform_boundary_condition", recording)
    vf.suite_triplet(seed=seed)
    assert drawn
    for rt, rel in drawn:
        d = rt.triple.dim
        assert not np.array_equal(rt.triple.shift_map, np.eye(2 * d))
        shear = np.eye(2 * d, dtype=complex)
        shear[d:, :d] = -rt.dtn
        chain = rs.map_relations(rt.triple.shift_map,
                                 rs.map_relations(shear, [rel]))
        assert np.array_equal(transform(rt, rel).graph.basis,
                              chain.bases[0])


def test_transform_equals_the_restricting_reference_chain():
    # the restriction to the full small space keeps an orthonormal graph
    rng = np.random.default_rng(3)
    bp = _finite_problem(rng, dim=7, defect=3)
    rt = reduced_triplet(bp)
    rels = [cy.random_selfadjoint_relation(rng, 3) for _ in range(6)]
    for got, rel in zip(transform_boundary_conditions(rt, rels), rels):
        ref = transform_reference(rt, rel)
        assert got.dim == ref.dim == 3
        assert got.gap(ref) <= 1e-13


def test_transform_rejects_mixed_shapes():
    rt = reduced_triplet(sturm.RellichBoundaryProblem())
    short = rs.LinearRelation.from_span(2, 2, np.eye(4)[:, :1])
    with pytest.raises(ValueError, match="differ"):
        transform_boundary_conditions(rt, [sturm.robin_relation(1.0), short])
    # an empty batch has no shape: map_relations rejects it
    with pytest.raises(ValueError, match="no relations"):
        transform_boundary_conditions(rt, [])
    with pytest.raises(ValueError, match="does not match the triple"):
        transform_boundary_conditions(
            rt, [rs.LinearRelation.graph_of(np.eye(3))])


# -- stacked orthonormalization ----------------------------------------------

@st.composite
def column_stacks(draw, one_rank=False):
    """A stack of complex matrices whose members have their own ranks or,
    with one_rank, one rank, and sometimes a zero column shared by all
    members and zero columns of their own; with one_rank a column is zeroed
    only where the member keeps its rank without it."""
    count = draw(st.integers(1, 5))
    m = draw(st.integers(1, 7))
    k = draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    common = draw(st.integers(0, min(m, k)))
    # with one_rank, zeroing one column keeps a member's rank when
    # spare >= 0, and zeroing two when spare >= 1
    spare = k - 1 - (common if one_rank else 0)
    shared = spare >= 0 and draw(st.booleans())
    members = []
    for _ in range(count):
        rank = common if one_rank else draw(st.integers(0, min(m, k)))
        mat = random_complex(rng, m, rank) @ random_complex(rng, rank, k)
        if spare - shared >= 0 and draw(st.booleans()):
            mat[:, draw(st.integers(0, k - 1))] = 0.0
        members.append(mat)
    if shared:
        column = draw(st.integers(0, k - 1))
        for mat in members:
            mat[:, column] = 0.0
    return np.array(members).reshape(count, m, k)


@settings(max_examples=150, deadline=None)
@given(stack=column_stacks(one_rank=True))
def test_stacked_orthonormal_columns_equal_per_matrix(stack):
    bases = rs._orthonormal_columns(stack)
    shared_zero = ~(np.linalg.norm(stack, axis=1) > 0).any(axis=0)
    for member, basis in zip(stack, bases):
        ref = rs._orthonormal_columns(member)
        assert basis.shape == ref.shape
        own_zero = ~(np.linalg.norm(member, axis=0) > 0)
        if np.array_equal(own_zero, shared_zero):
            # the same matrix goes to the same SVD
            np.testing.assert_array_equal(basis, ref)
        else:
            # a zero column kept for the stack spans nothing more
            np.testing.assert_allclose(basis @ basis.conj().T,
                                       ref @ ref.conj().T, atol=1e-12)


def test_rank_rule_uses_each_members_own_largest_singular_value():
    # member 0: smallest singular value ~1.56e-10 against s_max ~1.41, so
    # rank 3 by its own rule; member 1: three nearly parallel unit columns,
    # s_max ~1.72, a threshold under which member 0 would lose a direction
    phi = 2.2e-10
    first = np.array([[1, 0, math.cos(phi)], [0, 1, 0], [0, 0, math.sin(phi)]],
                     dtype=complex)
    second = np.array([[1, 1, 1], [0, 0.1, 0], [0, 0, 0.1]], dtype=complex)
    bases = rs._orthonormal_columns(np.array([first, second]))
    assert bases.shape == (2, 3, 3)
    for member, basis in zip((first, second), bases):
        np.testing.assert_array_equal(basis,
                                      rs._orthonormal_columns(member))
    # three equal columns have rank 1: the stack has no one rank
    with pytest.raises(ValueError, match="differ in rank"):
        rs._orthonormal_columns(np.array([first, np.ones((3, 3))]))


@settings(max_examples=100, deadline=None)
@given(stack=column_stacks())
def test_stacked_null_space_equals_per_matrix(stack):
    nulls, dims = rs._null_space_dims(stack)
    assert nulls.shape[-1] == dims.max()
    for member, null, dim in zip(stack, nulls, dims):
        ref = rs._null_space(member)
        assert dim == ref.shape[1]
        # the member's null space is its last dims[i] columns
        own = null[:, null.shape[1] - dim:]
        if not member.any():
            # all of C^k, by another orthonormal basis than the identity
            np.testing.assert_allclose(own @ own.conj().T,
                                       np.eye(member.shape[1]), atol=1e-12)
            continue
        np.testing.assert_array_equal(own, ref)


# -- stacked self-adjointness and Cayley transforms ---------------------------

def mixed_relations(rng):
    """Self-adjoint and other relations of several shapes, interleaved."""
    rels = []
    for n in (1, 2, 3, 2, 1, 3):
        h = random_complex(rng, n, n)
        rels.append(rs.LinearRelation.graph_of(h + h.conj().T))
        rels.append(rs.LinearRelation.graph_of(h))
        rels.append(rs.LinearRelation.from_span(n, n, random_complex(
            rng, 2 * n, max(n - 1, 0))))
    rels.append(rs.LinearRelation.zero_times_full(2))
    return rels


def test_self_adjoint_batch_equals_per_relation_gap(rng):
    rels = mixed_relations(rng)
    flags = rs.is_self_adjoint_batch(rels)
    expected = [rel.gap(rs.adjoint_relation(rel)) <= 100 * rs.DEFAULT_TOL
                for rel in rels]
    assert flags.tolist() == expected
    assert any(expected) and not all(expected)
    skew = rs.LinearRelation.from_span(1, 2, np.eye(3))
    assert rs.is_self_adjoint_batch([rels[0], skew]).tolist() == [True, False]
    with pytest.raises(ValueError, match="dom_dim == cod_dim"):
        rs.is_self_adjoint(skew)


def test_cayley_unitaries_equal_per_relation(rng):
    rels = mixed_relations(rng)
    rels = [rel for rel, sa in zip(rels, rs.is_self_adjoint_batch(rels))
            if sa]
    # one call per space C^n + C^n, each returning one array
    shapes = sorted({rel.dom_dim for rel in rels})
    assert len(shapes) > 1
    for n in shapes:
        same = [rel for rel in rels if rel.dom_dim == n]
        unitaries = rs.cayley_unitaries(same)
        assert isinstance(unitaries, np.ndarray)
        assert unitaries.shape == (len(same), n, n)
        for rel, u in zip(same, unitaries):
            np.testing.assert_array_equal(u, cayley_reference(rel))


def test_only_relspace_groups_relations():
    names = [info.name for info in pkgutil.iter_modules(tripletflow.__path__)
             if info.name != "__main__"]
    readers = [name for name in names if "_groups" in vars(
        importlib.import_module(f"tripletflow.{name}"))]
    assert readers == ["relspace"]


def test_cayley_unitaries_keep_the_singularity_check():
    good = rs.LinearRelation.graph_of(np.array([[1.0]]))
    # Y + iX = 0: the graph of -i
    bad = rs.LinearRelation.graph_of(np.array([[-1j]]))
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        rs.cayley_unitaries([good, good, bad, good])


# -- determinant winding ------------------------------------------------------

def coarse_loop(thetas, windings):
    return [np.diag(np.exp(1j * np.array(windings) * t)) for t in thetas]


@pytest.mark.parametrize("windings", [(1,), (3,), (-2,), (2, -1), (4, 1)])
@pytest.mark.parametrize("samples", [5, 12, 40])
def test_vectorized_winding_matches_the_walk(windings, samples):
    rng = np.random.default_rng(samples)
    thetas = np.sort(rng.uniform(0.0, 2.0 * math.pi, samples))
    mats = coarse_loop(thetas, windings)

    def refine(t):
        return coarse_loop([t], windings)[0]

    expected, _ = winding_reference(mats, list(thetas), refine)
    assert fi.det_winding(fi.FamilyLoop(thetas, mats, refine)) == expected
    assert expected == sum(windings)
    with pytest.raises(fi.RefinementError) as ref_err:
        winding_reference(mats, list(thetas))
    with pytest.raises(fi.RefinementError) as err:
        fi.det_winding(fi.FamilyLoop(thetas, mats))
    assert str(err.value) == str(ref_err.value)


def test_vectorized_winding_insert_budget_error_matches_the_walk():
    thetas = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
    mats = coarse_loop(thetas, (5,))

    def refine(t):
        return coarse_loop([t], (5,))[0]

    with pytest.raises(fi.RefinementError) as ref_err:
        winding_reference(mats, list(thetas), refine, max_inserts=7)
    with pytest.raises(fi.RefinementError) as err, \
            mock.patch.object(fi, "_MAX_INSERTS", 7):
        fi.det_winding(fi.FamilyLoop(thetas, mats, refine))
    assert str(err.value) == str(ref_err.value)


# -- spectral flow and branch matching ----------------------------------------

def branch_loop(speeds, offsets):
    """Eigenvalue generator: branches offset + sin(speed * theta), sorted."""
    speeds, offsets = np.array(speeds), np.array(offsets)

    def gen(theta):
        return np.sort(offsets + np.sin(speeds * theta))

    return gen


@pytest.mark.parametrize("speeds,offsets", [
    ((1,), (0.2,)), ((3,), (0.0,)), ((1, 4), (-0.3, 0.6)),
    ((2, 5, 7), (0.1, -0.4, 1.2)), ((6, 6), (0.0, 0.0))])
@pytest.mark.parametrize("samples", [6, 16, 50])
def test_flow_walk_matches_the_reference_walk(speeds, offsets, samples):
    rng = np.random.default_rng(samples + len(speeds))
    thetas = list(np.sort(rng.uniform(0.0, 2.0 * math.pi, samples)))
    gen = branch_loop(speeds, offsets)
    eigs = [gen(t) for t in thetas]
    loop = fi.FamilyLoop(thetas, eigs, generator=gen)
    flow, crossings = fi._flow_walk(loop, 0.0, 0.5)
    ref_flow, ref_crossings, _ = flow_reference(thetas, eigs, gen,
                                                window=0.5)
    assert flow == ref_flow
    assert crossings == ref_crossings
    try:
        flow_reference(thetas, eigs, window=0.5)
    except fi.RefinementError as ref_err:
        with pytest.raises(fi.RefinementError) as err:
            fi._flow_walk(fi.FamilyLoop(thetas, eigs), 0.0, 0.5)
        assert str(err.value) == str(ref_err)
    else:
        assert fi._flow_walk(fi.FamilyLoop(thetas, eigs), 0.0, 0.5) == (
            ref_flow, ref_crossings)


def test_flow_walk_keeps_the_greedy_order_of_crossings_in_an_interval():
    # two upward crossings in the first interval, two downward ones in the
    # second: the closer pair of each is taken, and listed, first
    thetas = [0.0, 2.0, 4.0]
    eigs = [np.array([-0.1, -0.05]), np.array([0.05, 0.3]),
            np.array([-0.1, -0.05])]
    flow, crossings = fi._flow_walk(fi.FamilyLoop(thetas, eigs), 0.0, 1.0)
    assert (flow, crossings) == flow_reference(thetas, eigs)[:2]
    assert crossings == [(0.0, 2.0, -0.05, 0.05), (0.0, 2.0, -0.1, 0.3),
                         (2.0, 4.0, 0.05, -0.05), (2.0, 4.0, 0.3, -0.1)]


@settings(max_examples=100, deadline=None)
@given(speeds=st.lists(st.integers(1, 9), min_size=1, max_size=4),
       offsets=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
       samples=st.integers(3, 30),
       level=st.sampled_from([0.0, 0.25]),
       window=st.sampled_from([0.3, 0.5, 1.0]),
       max_inserts=st.sampled_from([0, 3, 20000]))
def test_flow_sweep_matches_the_reference_walk_on_random_loops(
        speeds, offsets, samples, level, window, max_inserts):
    # loops that may need bisection, with or without a generator and with
    # a small insert budget: the same flow and crossings, or the same
    # error text
    thetas = list(np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False))
    gen = branch_loop(speeds, np.array(offsets[:len(speeds)]) / 4)
    eigs = [gen(t) for t in thetas]
    for refine in (gen, None):
        loop = fi.FamilyLoop(thetas, eigs, generator=refine)
        try:
            ref = flow_reference(thetas, eigs, refine, level, window,
                                 max_inserts)[:2]
        except fi.RefinementError as ref_err:
            with pytest.raises(fi.RefinementError) as err, \
                    mock.patch.object(fi, "_MAX_INSERTS", max_inserts):
                fi._flow_walk(loop, level, window)
            assert str(err.value) == str(ref_err)
        else:
            with mock.patch.object(fi, "_MAX_INSERTS", max_inserts):
                assert fi._flow_walk(loop, level, window) == ref


def test_flow_walk_insert_budget_error_matches_the_reference_walk():
    thetas = list(np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False))
    gen = branch_loop((9, 4), (0.1, -0.2))
    eigs = [gen(t) for t in thetas]
    _, _, needed = flow_reference(thetas, eigs, gen, window=0.5)
    assert needed > 3
    with pytest.raises(fi.RefinementError) as ref_err:
        flow_reference(thetas, eigs, gen, window=0.5, max_inserts=3)
    with pytest.raises(fi.RefinementError) as err, \
            mock.patch.object(fi, "_MAX_INSERTS", 3):
        fi.spectral_flow(fi.FamilyLoop(thetas, eigs, generator=gen), 0.0,
                         0.5)
    assert str(err.value) == str(ref_err.value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=6),
       st.lists(st.integers(-4, 4), max_size=6),
       st.sampled_from([0.0, 0.5, 1.0, 2.5]))
def test_greedy_pairs_equal_the_reference_matcher_with_ties(a, b, margin):
    a = np.sort(np.array(a, dtype=float) / 2)
    b = np.sort(np.array(b, dtype=float) / 2)
    ia, ib = fi._greedy_pairs(a[None], b[None], margin)
    ref_pairs, _ = pairs_reference(a, b, margin)
    assert [(a[i], b[j]) for i, j in zip(ia[0], ib[0]) if i >= 0] == ref_pairs


def row_pairs_reference(a, b, limit):
    """Index pairs (i, j) of one row of NaN-padded values, by a per-pair
    loop over the stable flat argsort of the moves between the non-NaN
    values; `limit` is a scalar or an array over b."""
    keep_a, keep_b = np.flatnonzero(~np.isnan(a)), np.flatnonzero(~np.isnan(b))
    limit = np.broadcast_to(limit, b.shape)[keep_b]
    a, b = a[keep_a], b[keep_b]
    pairs, used_a, used_b = [], set(), set()
    if a.size and b.size:
        order = np.argsort(np.abs(a[:, None] - b[None, :]), axis=None,
                           kind="stable")
        for flat in order:
            i, j = divmod(int(flat), b.size)
            if i in used_a or j in used_b or abs(a[i] - b[j]) > limit[j]:
                continue
            pairs.append((int(keep_a[i]), int(keep_b[j])))
            used_a.add(i)
            used_b.add(j)
    return pairs


def nan_padded(rows, width):
    """Rows of half-integers or None (a NaN gap) padded with NaN."""
    out = np.full((len(rows), width), np.nan)
    for k, row in enumerate(rows):
        out[k, :len(row)] = [np.nan if v is None else v / 2 for v in row]
    return out


half_integer_rows = st.lists(st.one_of(st.none(), st.integers(-4, 4)),
                             max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(half_integer_rows, half_integer_rows), max_size=6),
       st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.just(None)))
def test_stacked_pairs_equal_the_per_row_reference(rows, margin):
    # ragged rows with tied half-integers, NaN gaps and empty rows; margin
    # None asks for a limit over b, 0.25 + 0.25 |b|, met with equality by
    # some moves
    a = nan_padded([ra for ra, _ in rows], max([len(r) for r, _ in rows],
                                               default=0))
    b = nan_padded([rb for _, rb in rows], max([len(r) for _, r in rows],
                                               default=0))
    limit = 0.25 + 0.25 * np.abs(b) if margin is None else margin
    ia, ib = fi._greedy_pairs(a, b, limit)
    assert ia.shape == ib.shape == (len(rows), min(a.shape[1], b.shape[1]))
    for k in range(len(rows)):
        taken = [(i, j) for i, j in zip(ia[k].tolist(), ib[k].tolist())
                 if i >= 0]
        assert ia[k, len(taken):].tolist() == [-1] * (ia.shape[1]
                                                     - len(taken))
        row_limit = limit if margin is not None else limit[k]
        assert taken == row_pairs_reference(a[k], b[k], row_limit)


@pytest.mark.parametrize("match_tol", [None])
def test_branch_table_matches_the_reference_matcher(match_tol):
    loop = fi.rellich_eigenvalue_samples(samples=72, lambda_max=120.0)
    kappas = [sturm.kappa_of_theta(t) for t in loop.thetas]
    rows = fi.branch_table(loop.thetas, kappas, loop.payloads)
    assert rows == branch_table_reference(loop.thetas, kappas,
                                          loop.payloads, match_tol)


def test_branch_table_matches_the_reference_matcher_on_the_robin_loop():
    # the configuration `rellich` runs by default
    loop = fi.rellich_eigenvalue_samples(samples=720, lambda_max=400.0)
    kappas = [sturm.kappa_of_theta(t) for t in loop.thetas]
    rows = fi.branch_table(loop.thetas, kappas, loop.payloads)
    assert rows == branch_table_reference(loop.thetas, kappas, loop.payloads)


@pytest.mark.parametrize("match_tol", [None])
def test_branch_table_ties_match_the_reference_matcher(match_tol):
    rng = np.random.default_rng(7)
    eigs = [np.sort(rng.integers(-3, 4, rng.integers(0, 5)) / 2.0)
            for _ in range(40)]
    thetas = list(np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False))
    kappas = list(range(40))
    rows = fi.branch_table(thetas, kappas, eigs)
    assert rows == branch_table_reference(thetas, kappas, eigs, match_tol)


# -- the relation stack ---------------------------------------------------------

def assert_same_relations(stack, rels):
    assert len(stack) == len(rels)
    for got, ref in zip(stack, rels):
        assert (got.dom_dim, got.cod_dim) == (ref.dom_dim, ref.cod_dim)
        np.testing.assert_array_equal(got.graph.basis, ref.graph.basis)
    for i in (0, len(stack) // 2, -1):
        np.testing.assert_array_equal(stack[i].graph.basis,
                                      rels[i].graph.basis)


def assert_same_unitaries(got, ref):
    assert len(got) == len(ref)
    worst = max(float(np.max(np.abs(u - v))) for u, v in zip(got, ref))
    assert worst == 0.0


@pytest.mark.parametrize("samples", [72, 720])
def test_robin_relation_stack_equals_the_list_path(samples):
    loop = fi.rellich_boundary_family(samples=samples)
    stack = loop.payloads
    assert isinstance(stack, rs.RelationStack)
    # the list path: one relation per generator call
    rels = [loop.generator(t) for t in loop.thetas]
    assert_same_relations(stack, rels)
    assert_same_unitaries(rs.cayley_unitaries(stack),
                          rs.cayley_unitaries(rels))
    assert (rs.is_self_adjoint_batch(stack).tolist()
            == rs.is_self_adjoint_batch(rels).tolist())
    assert rs.is_self_adjoint_batch(stack).all()
    assert (fi.relation_family_index(fi.FamilyLoop(loop.thetas, stack))
            == fi.relation_family_index(fi.FamilyLoop(loop.thetas, rels))
            == 1)
    rt = reduced_triplet(sturm.RellichBoundaryProblem())
    kappas = [sturm.kappa_of_theta(t) for t in loop.thetas]
    raw = sturm.robin_relations(kappas)
    assert_same_relations(transform_boundary_conditions(rt, raw),
                          transform_boundary_conditions(rt, list(raw)))


def test_mixed_rank_relations_are_grouped_by_dimension(rng):
    # dimensions 2, 1, 2, 3, 2, 1 in C^2 + C^2: self-adjoint graphs, their
    # non-self-adjoint neighbours and relations of the wrong dimension; a
    # list of them is judged relation by relation, and only its members
    # of one dimension stack, for the Cayley transform as for a map
    rels = []
    for rank in (2, 1, 2, 3, 2, 1):
        if rank == 2:
            h = random_complex(rng, 2, 2)
            rels.append(rs.LinearRelation.graph_of(h + h.conj().T))
        else:
            rels.append(rs.LinearRelation.from_span(
                2, 2, random_complex(rng, 4, rank)))
    rels[4] = rs.LinearRelation.graph_of(random_complex(rng, 2, 2))
    assert [rel.dim for rel in rels] == [2, 1, 2, 3, 2, 1]
    flags = rs.is_self_adjoint_batch(rels)
    assert flags.tolist() == [rs.is_self_adjoint(rel) for rel in rels]
    assert flags.tolist() == [True, False, True, False, False, False]
    with pytest.raises(ValueError, match="differ in shape"):
        rs.cayley_unitaries(rels)
    with pytest.raises(ValueError, match="differ in shape"):
        rs.map_relations(np.eye(4), rels)
    # one shape, of the wrong dimension
    with pytest.raises(ValueError, match="cannot be self-adjoint"):
        rs.cayley_unitaries(rs.map_relations(np.eye(4), [rels[1], rels[5]]))
    with pytest.raises(ValueError, match="no relations"):
        rs.cayley_unitaries([])
    square = rs.map_relations(np.eye(4), [rels[i] for i in (0, 2, 4)])
    assert square.dim == 2
    assert (rs.is_self_adjoint_batch(square).tolist()
            == [True, True, False])
    assert_same_unitaries(rs.cayley_unitaries(square),
                          rs.cayley_unitaries(list(square)))


def test_robin_relation_loop_builds_no_relation_objects(monkeypatch):
    built = []
    init = rs.LinearRelation.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rs.LinearRelation, "__init__", counting)
    loop = fi.rellich_boundary_family()
    assert fi.relation_family_index(loop) == 1
    assert rs.is_self_adjoint_batch(loop.payloads).all()
    assert not built
    assert isinstance(loop.generator(0.25), rs.LinearRelation)
    assert len(built) == 1


# -- the crossing polish -----------------------------------------------------

@pytest.mark.parametrize("samples", [72, 240, 720])
def test_polish_equals_the_bisection_on_the_robin_loop(samples):
    loop = fi.rellich_eigenvalue_samples(samples=samples)
    _, crossings = fi._flow_walk(loop, 0.0, 1.0)
    batch = fi._eigenvalue_batch(sturm.kappa_of_theta, 400.0)
    theta = fi._polish_crossing(batch, *crossings[0])
    assert theta == polish_reference(loop.generator, *crossings[0])
    # the polish reads no eigenvalue above the flow window [-1, 1], so a
    # generator capped there gives the same theta, as the index report does
    capped = fi._eigenvalue_batch(sturm.kappa_of_theta, 1.0)
    assert fi._polish_crossing(capped, *crossings[0]) == theta
    report, _ = fi._robin_index(sturm.kappa_of_theta, samples, 400.0)
    assert report.crossing_kappa == sturm.kappa_of_theta(theta)
    assert abs(report.crossing_kappa - 1.0) <= 2 * np.spacing(1.0)


@pytest.mark.parametrize("shift", [0.3, 1.1, 2.5])
def test_polish_equals_the_bisection_on_sawtooth_loops(shift):
    def sawtooth(theta):
        return np.array([((theta - shift) % (2 * math.pi)) / math.pi - 1.0])

    thetas = list(np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))
    _, crossings = fi._flow_walk(
        fi.FamilyLoop(thetas, [sawtooth(t) for t in thetas]), 0.0, 0.4)
    assert (fi._polish_crossing(batched(sawtooth), *crossings[0])
            == polish_reference(sawtooth, *crossings[0]))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       width=st.floats(1e-6, 1.5),
       where=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       slope=st.floats(0.05, 50.0),
       rising=st.booleans(),
       curved=st.booleans(),
       level=st.sampled_from([0.0, -2.0, 3.5]),
       others=st.sampled_from([(), (40.0,), (-30.0, 25.0)]))
def test_polish_equals_the_bisection_on_monotone_branches(
        start, width, where, slope, rising, curved, level, others):
    # one branch through the level at start + where * width, which may lie
    # past 2 pi on the wrap-around interval, and far branches beside it
    t0, t1 = start, start + width
    crossing = t0 + where * width
    sign = 1.0 if rising else -1.0

    def gen(theta):
        lifted = theta if theta >= t0 else theta + 2.0 * math.pi
        x = slope * (lifted - crossing)
        value = level + sign * (x + x ** 3 if curved else x)
        return np.sort(np.array([value, *(level + o for o in others)]))

    def nearest(theta):
        eigs = gen(theta % (2.0 * math.pi))
        return float(eigs[np.argmin(np.abs(eigs - level))])

    la, lb = nearest(t0), nearest(t1)
    assert (fi._polish_crossing(batched(gen), t0, t1, la, lb, level)
            == polish_reference(gen, t0, t1, la, lb, level))


@settings(max_examples=100, deadline=None)
@given(start=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       width=st.floats(1e-3, 1.5),
       freq=st.floats(5.0, 400.0),
       phase=st.floats(0.0, 2.0 * math.pi))
def test_polish_follows_the_bisection_through_several_crossings(
        start, width, freq, phase):
    # a branch meeting the level many times inside the interval: a search
    # on other points than the bisection midpoints may settle elsewhere
    t0, t1 = start, start + width

    def gen(theta):
        lifted = theta if theta >= t0 else theta + 2.0 * math.pi
        return np.array([math.sin(freq * (lifted - t0) + phase) - 0.1])

    la = float(gen(t0 % (2.0 * math.pi))[0])
    lb = float(gen(t1 % (2.0 * math.pi))[0])
    assert (fi._polish_crossing(batched(gen), t0, t1, la, lb)
            == polish_reference(gen, t0, t1, la, lb))


def test_polish_keeps_the_vanished_branch_error():
    def gen(theta):
        return np.array([theta - 3.0]) if theta < 3.2 else np.zeros(0)

    with pytest.raises(fi.RefinementError) as ref_err:
        polish_reference(gen, 2.5, 3.5, -0.5, 0.5)
    with pytest.raises(fi.RefinementError) as err:
        fi._polish_crossing(batched(gen), 2.5, 3.5, -0.5, 0.5)
    assert str(err.value) == str(ref_err.value)
