import numpy as np
import pytest

from tripletflow import gelfand as gf
from tripletflow import relspace as rs

from conftest import random_complex


def random_spd(rng, n):
    a = random_complex(rng, n, n)
    return a @ a.conj().T + n * np.eye(n)


def test_identity_triple_degenerates():
    triple = gf.identity_triple(3)
    assert np.allclose(triple.lam, np.eye(3))
    assert np.allclose(triple.gram_dual, np.eye(3))
    y = np.array([1.0, 2.0, 1j])
    x = np.array([0.5, -1.0, 2.0])
    assert abs(gf.dual_pairing(triple, y, x) - np.vdot(x, y)) < 1e-14


def test_weighted_diagonal_square_root():
    w = np.array([0.5, 2.0, 5.0])
    triple = gf.build_triple(np.diag(w), np.eye(3))
    assert np.allclose(triple.j, np.diag(1.0 / w))
    assert np.allclose(triple.lam, np.diag(w ** -0.5))
    # shift identity on basis vectors
    for i in range(3):
        for j in range(3):
            res = gf.shift_identity_residual(triple, np.eye(3)[:, i],
                                             np.eye(3)[:, j])
            assert res < 1e-12


def test_build_triple_rejects_bad_grams(rng):
    with pytest.raises(ValueError):
        gf.build_triple(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        gf.build_triple(np.diag([1.0, -1.0]), np.eye(2))


def test_triple_dimension_is_that_of_its_grams(rng):
    triple = gf.GelfandTriple(random_spd(rng, 3), random_spd(rng, 3))
    assert triple.dim == 3
    assert gf.identity_triple(0).dim == 0
    with pytest.raises(ValueError, match="differ in size"):
        gf.build_triple(random_spd(rng, 3), random_spd(rng, 2))


def test_weighted_adjoint_takes_one_gram(rng):
    gram = random_spd(rng, 2)
    rel = rs.LinearRelation.from_span(2, 2, random_complex(rng, 4, 2))
    adj = rs.adjoint_relation(rel, gram)
    # <b, x>_gram = <a, y>_gram for every (a, b) of rel and (x, y) of adj
    a_blk, b_blk = rel.dom_block(), rel.cod_block()
    x_blk, y_blk = adj.dom_block(), adj.cod_block()
    resid = b_blk.conj().T @ gram @ x_blk - a_blk.conj().T @ gram @ y_blk
    assert np.linalg.norm(resid) < 1e-12
    assert adj.gap(gf.triple_adjoint(gf.build_triple(np.eye(2), gram),
                                     rel)) < 1e-14
    skew = rs.LinearRelation.from_span(1, 2, np.eye(3)[:, :2])
    with pytest.raises(ValueError, match="dom_dim == cod_dim"):
        rs.adjoint_relation(skew, gram)


def test_random_triple_invariants(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        triple = gf.build_triple(random_spd(rng, n), random_spd(rng, n))
        x = random_complex(rng, n)
        y = random_complex(rng, n)
        scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(y))
        # embedding adjoint: <x, y>_partial = <x, iota_star y>_K
        assert abs(triple.inner_partial(x, y)
                   - triple.inner_K(x, triple.iota_star @ y)) / scale < 1e-12
        # principal square root
        assert np.linalg.norm(triple.lam @ triple.lam - triple.j) < 1e-10 * (
            1 + np.linalg.norm(triple.j))
        # isometry onto the small space
        assert abs(triple.inner_K(triple.lam @ x, triple.lam @ y)
                   - triple.inner_partial(x, y)) / scale < 1e-10
        # dual Gram via the embedding adjoint
        assert abs(triple.inner_dual(x, y)
                   - triple.inner_K(triple.iota_star @ x,
                                    triple.iota_star @ y)) / scale < 1e-10
        assert gf.shift_identity_residual(triple, y, x) / scale < 1e-10


def test_pairing_conjugate_symmetry(rng):
    triple = gf.build_triple(random_spd(rng, 4), random_spd(rng, 4))
    y = random_complex(rng, 4)
    x = random_complex(rng, 4)
    assert abs(gf.dual_pairing(triple, y, x)
               - np.conj(gf.primal_pairing(triple, x, y))) < 1e-13


def test_lambda_pair_adjointness(rng):
    # the square root pairs with itself across the duality
    triple = gf.build_triple(random_spd(rng, 5), random_spd(rng, 5))
    y = random_complex(rng, 5)
    u = random_complex(rng, 5)
    lhs = triple.inner_partial(triple.lam_prime @ y, u)
    rhs = gf.dual_pairing(triple, y, triple.lam @ u)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, np.linalg.norm(y)
                                        * np.linalg.norm(u))


def test_triple_adjoint_identity_reduces_to_plain(rng):
    triple = gf.identity_triple(3)
    rel = rs.LinearRelation.from_span(3, 3, random_complex(rng, 6, 3))
    got = gf.triple_adjoint(triple, rel)
    want = rs.adjoint_relation(rel)
    assert got.gap(want) < 1e-12


def test_triple_adjoint_involution(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        triple = gf.build_triple(random_spd(rng, n), random_spd(rng, n))
        rel = rs.LinearRelation.from_span(
            n, n, random_complex(rng, 2 * n, int(rng.integers(0, 2 * n + 1))))
        again = gf.triple_adjoint(triple, gf.triple_adjoint(triple, rel))
        assert again.gap(rel) < 1e-10


def test_selfadjoint_criterion_hermitian_core(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        triple = gf.build_triple(random_spd(rng, n), random_spd(rng, n))
        core = random_complex(rng, n, n)
        core = core + core.conj().T
        chol = np.linalg.cholesky(triple.gram_partial)
        pivot_sa = np.linalg.solve(chol.conj().T, core @ chol.conj().T)
        mat = triple.lam @ pivot_sa @ triple.lam_prime
        assert gf.is_triple_self_adjoint(triple,
                                         rs.LinearRelation.graph_of(mat))
        generic = rs.LinearRelation.graph_of(random_complex(rng, n, n))
        adj = gf.triple_adjoint(triple, generic)
        if adj.gap(generic) > 1e-6:
            assert not gf.is_triple_self_adjoint(triple, generic)
