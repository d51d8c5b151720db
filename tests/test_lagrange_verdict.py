"""Verdicts in closed form, against the routes they replace.

Self-adjointness is read off the Lagrange form of a graph basis [X; Y]:
for k = n columns the gap to the adjoint is ||X^H Y - Y^H X||, or with a
Gram matrix ||L^(-1) (X^H G Y - Y^H G X)||, and with k != n the relation
is not self-adjoint.  The reference is the route that built the adjoint
by an SVD and measured its gap by a second one.  The Cayley transform's
inverse certifies that Y + iX is not numerically singular; the reference
is the route that ran the SVD check on every member first.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import relspace as rs

from conftest import random_complex

TOL = 100 * rs.DEFAULT_TOL


def old_adjoints_and_verdicts(bases, n, gram):
    """The gaps of a stack of graph bases (N, 2n, k) to their adjoints,
    built by the adjoint's SVD, with the gap of `Subspace.gap` (1 when the
    dimensions differ), and the verdicts gap <= 100 * DEFAULT_TOL."""
    k = bases.shape[-1]
    adj, adj_dims = rs._adjoint_bases(bases, n, gram)
    same = adj_dims == k
    gaps = np.where(same, 0.0, 1.0)
    if k and same.any():
        gaps = np.where(same, rs._gaps(bases, adj[..., -k:]), 1.0)
    return gaps, gaps <= TOL


def old_cayley_unitaries(bases, n):
    """`cayley_unitaries` on the route that checked every Y + iX by one
    stacked SVD before its inverse was taken."""
    x_blk = bases[..., :n, :]
    y_blk = bases[..., n:, :]
    work = np.multiply(1j, x_blk)
    np.add(y_blk, work, out=work)
    if n > 0:
        svals = np.linalg.svd(work, compute_uv=False)
        if (svals[..., -1]
                <= rs.DEFAULT_TOL * np.maximum(1.0, svals[..., 0])).any():
            raise np.linalg.LinAlgError(
                "Y + iX is numerically singular: the relation is not "
                "self-adjoint within tolerance")
    inverse = np.linalg.inv(work)
    np.multiply(1j, x_blk, out=work)
    np.subtract(y_blk, work, out=work)
    return work @ inverse


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gram_matrix(rng, n):
    root = random_complex(rng, n, n)
    return root @ root.conj().T + n * np.eye(n)


@st.composite
def graph_stacks(draw):
    """(bases, n, gram): a stack of orthonormal graph bases (N, 2n, k) in
    C^n + C^n, n up to 6 and k from 0 to 2n, with a Gram matrix for both
    components or none.  For k = n each member is a relation self-adjoint
    in the Gram metric, moved off by a perturbation of its own size, from
    1e-12 to 1, so that the gaps straddle 100 * DEFAULT_TOL."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 2 * n))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gram = gram_matrix(rng, n) if draw(st.booleans()) else None
    if gram is None:
        root_inv = np.eye(n)
    else:
        evals, evecs = np.linalg.eigh(gram)
        root_inv = (evecs / np.sqrt(evals)) @ evecs.conj().T
    members = []
    for _ in range(count):
        if k == n:
            # [i(U - I)/2; (U + I)/2] is self-adjoint, and G^(-1/2) on both
            # components makes it self-adjoint in the metric of G
            u = random_unitary(rng, n)
            cols = np.vstack([root_inv @ (0.5j * (u - np.eye(n))),
                              root_inv @ (0.5 * (u + np.eye(n)))])
            size = 10.0 ** draw(st.floats(-12.0, 0.0))
            cols = cols + size * random_complex(rng, 2 * n, n)
        else:
            cols = random_complex(rng, 2 * n, k)
        members.append(np.linalg.qr(cols)[0])
    return np.array(members).reshape(count, 2 * n, k), n, gram


@settings(max_examples=300, deadline=None)
@given(case=graph_stacks())
def test_lagrange_verdict_matches_the_adjoint_and_its_gap(case):
    bases, n, gram = case
    want_gaps, want = old_adjoints_and_verdicts(bases, n, gram)
    got = rs._self_adjoint_verdicts(bases, n, gram)
    if bases.shape[-1] == n:
        forms = rs._lagrange_forms(bases, n, gram)
        gaps = np.minimum(1.0, np.linalg.svd(forms, compute_uv=False)[:, 0])
        assert np.all(np.abs(gaps - want_gaps) <= 1e-14)
        # the verdicts agree wherever the gaps, equal to 1e-14, leave
        # the side of the threshold resolved
        resolved = np.abs(want_gaps - TOL) > 1e-14
        assert np.array_equal(got[resolved], want[resolved])
    else:
        assert not got.any() and not want.any()
    rels = [rs.LinearRelation(n, n, rs.Subspace(member)) for member in bases]
    assert np.array_equal(rs.is_self_adjoint_batch(rels, gram=gram), got)


def test_lagrange_verdict_brackets_the_two_norm(monkeypatch):
    # X = I / sqrt(2) and Y = (I + E) / sqrt(2) with E = i diag(t, s) give
    # X^H Y - Y^H X = (E - E^H) / 2 = i diag(t, s): ||K||_2 = max(t, s) and
    # ||K||_F = sqrt(t^2 + s^2), so only the middle two cases fall between
    # tol and sqrt(2) tol and take an SVD, which passes the one and fails
    # the other
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw:
                        svds.append(a.shape) or svd(a, *args, **kw))
    cases = [((0.5, 0.5), True, 0), ((0.9, 0.9), True, 1),
             ((1.1, 0.1), False, 1), ((2.0, 0.0), False, 0)]
    for (t, s), verdict, taken in cases:
        x_blk = np.eye(2) / np.sqrt(2)
        y_blk = (np.eye(2) + 1j * TOL * np.diag([t, s])) / np.sqrt(2)
        basis = np.linalg.qr(np.vstack([x_blk, y_blk]))[0][None]
        svds.clear()
        assert rs._self_adjoint_verdicts(basis, 2, None)[0] == verdict
        assert len(svds) == taken
        assert old_adjoints_and_verdicts(basis, 2, None)[1][0] == verdict


@st.composite
def denominator_stacks(draw):
    """(bases, n): bases (N, 2n, n) whose Y + iX have condition numbers up
    to 1e12 and scales from 1e-12 to 1e4, with some members exactly
    singular: a zero column, or Y + iX = 0.  The bases are not orthonormal:
    `cayley_unitaries` reads them as given."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for _ in range(count):
        cond = 10.0 ** draw(st.floats(0.0, 12.0))
        scale = 10.0 ** draw(st.floats(-12.0, 4.0))
        svals = scale * np.geomspace(1.0, 1.0 / cond, n)
        w = random_unitary(rng, n) @ np.diag(svals) @ random_unitary(rng, n)
        kind = draw(st.sampled_from(["regular"] * 4 + ["column", "zero"]))
        if kind == "column":
            w[:, draw(st.integers(0, n - 1))] = 0.0
        elif kind == "zero":
            w[:] = 0.0
        x_blk = random_complex(rng, n, n)
        members.append(np.vstack([x_blk, w - 1j * x_blk]))
    return np.array(members), n


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(case=denominator_stacks())
def test_cayley_certificate_is_sound_and_changes_no_bit(case):
    bases, n = case
    work = bases[:, n:] + 1j * bases[:, :n]
    svals = np.linalg.svd(work, compute_uv=False)
    passes = svals[:, -1] > rs.DEFAULT_TOL * np.maximum(1.0, svals[:, 0])
    try:
        inverse = np.linalg.inv(work)
    except np.linalg.LinAlgError:
        assert not passes.all()
    else:
        assert np.all(passes[rs._certified_nonsingular(work, inverse)])
    want = outcome(old_cayley_unitaries, bases, n)
    got = outcome(rs.cayley_unitaries, rs.RelationStack(n, n, bases))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == want.tobytes()

