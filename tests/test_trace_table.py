"""Reduced-triplet checks on element blocks.

A boundary problem hands the checks its element sets in block form: the
traces (Gamma0, Gamma1) of a set as a d x m pair, its deficiency traces,
the traces of its regular projections, its element norms and its m x m
Lagrange-form matrix; the reduced triplet reduces a whole set at once.

On the matrix model each block form is one product.  The block references
below write those products out from B^H U, G0, G1, M(0) and Lambda, and the
block forms, the reduced table and every check must equal them exactly.  The
per-element references, every element traced and reduced alone as the
checks were first written, stay as an independent oracle: a product over
all columns sums in another order, so they agree to a few ulps per entry,
not bit for bit.  The interval model evaluates its elements one at a time
behind the same block forms, so there every reference is met exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletflow import cayley as cy
from tripletflow import sturm
from tripletflow import triplet as tp
from tripletflow.relspace import LinearRelation, Subspace, _null_space
from tripletflow.verify import _finite_problem

EPS = np.finfo(float).eps
# per entry, in units of eps * max(1, |u|) * |map|; at most 2.3 is seen
# over 1500 random problems of dimension 2-12
ULPS = 8
# checks computed from blocks and from single elements agree to this,
# absolutely, far below their tolerances of 1e-10 to 1e-8
RESIDUAL_AGREEMENT = 1e-12


def is_interval(bp):
    return isinstance(bp, sturm.RellichBoundaryProblem)


def columns(elems):
    """The elements of a set, one by one."""
    return list(elems) if isinstance(elems, list) else list(elems.T)


# -- block references: the products of the matrix model written out ------------

def block_traces(bp, elems):
    if is_interval(bp):
        return (np.column_stack([u.trace0() for u in elems]),
                np.column_stack([u.trace1() for u in elems]))
    basis, g0, g1 = bp.coefficient_view()
    coords = basis.conj().T @ elems
    return g0 @ coords, g1 @ coords


def block_deficiency_traces(bp, elems):
    if is_interval(bp):
        gamma = bp.inner_boundary_maps()
        values = [gamma(u) for u in elems]
        return (np.column_stack([v[0] for v in values]),
                np.column_stack([v[1] for v in values]))
    coords = bp.coefficient_view()[0].conj().T @ elems
    return bp._g0_inner @ coords, bp._g1_inner @ coords


def block_projections(bp, elems):
    if is_interval(bp):
        return [sturm.dirichlet_solve(bp.action(u)) for u in elems]
    n = bp.dim
    a_rel = bp.model.A
    rhs = elems[n:]
    coeff = np.linalg.inv(a_rel.cod_block()) @ rhs
    return np.concatenate([a_rel.dom_block() @ coeff, rhs])


def block_norms(bp, elems):
    if is_interval(bp):
        return np.array([u.norm() for u in elems])
    return np.linalg.norm(elems, axis=0)


def block_lagrange(bp, elems):
    if is_interval(bp):
        return np.array([[lagrange_ref(bp, u, v) for u in elems]
                         for v in elems])
    z, dz = elems[:bp.dim], elems[bp.dim:]
    return z.conj().T @ dz - dz.conj().T @ z


def block_table(rt, g0, g1):
    bold = g1 - rt.dtn @ g0
    return rt.triple.lam_prime @ g0, bold, rt.triple.lam_inv @ bold


def block_reduced(rt, elems):
    return block_table(rt, *block_traces(rt.bp, elems))


def worst_column(mat, norms):
    return float(np.max(np.linalg.norm(mat, axis=0) / np.maximum(1.0, norms),
                        initial=0.0))


def reduced_residuals_block(rt, rng, count):
    bp = rt.bp
    d = bp.boundary_dim
    elems = bp.test_elements(rng, count)
    norms = block_norms(bp, elems)
    bar0, bold, bar1 = block_reduced(rt, elems)
    _, g1p = block_traces(bp, block_projections(bp, elems))
    gp = rt.triple.gram_partial
    pairing = bar0.conj().T @ (gp @ bar1) - bar1.conj().T @ (gp @ bar0)
    lagr = np.max(np.abs(block_lagrange(bp, elems) - pairing)
                  / np.maximum(1.0, np.outer(norms, norms)))
    svals = np.linalg.svd(np.vstack([bar0, bar1]), compute_uv=False)
    return {
        "gamma1_bold_vs_projection": worst_column(bold - g1p, norms),
        "standard_lagrange": float(lagr),
        "surjectivity_margin": float(svals[2 * d - 1]) if d else np.inf,
        "gamma1_bold_on_kernel": worst_column(
            block_reduced(rt, bp.kernel_basis())[1], 1.0),
    }


def kernel_report_block(rt, rng, count):
    bp = rt.bp
    out = {}
    for name, elems in (("minimal_domain", bp.minimal_domain_elements()),
                        ("kernel", bp.kernel_basis())):
        out[f"corrected_trace_vanishes_on_{name}"] = worst_column(
            block_reduced(rt, elems)[1], block_norms(bp, elems))
    elems = bp.test_elements(rng, count)
    norms = block_norms(bp, elems)
    g0p, g1p = block_traces(bp, block_projections(bp, elems))
    out["projection_has_dirichlet_trace_zero"] = worst_column(g0p, norms)
    out["projection_carries_corrected_trace"] = worst_column(
        block_reduced(rt, elems)[1] - g1p, norms)
    if not is_interval(bp):
        basis, g0, g1 = bp.coefficient_view()
        g1_bold = g1 - rt.dtn @ g0
        t_coeff = basis.conj().T @ bp.model.T.graph.basis
        k_coeff = basis.conj().T @ bp.kernel_basis()
        out["kernel_of_corrected_trace_gap"] = Subspace(
            _null_space(g1_bold)).gap(
                Subspace.from_span(np.hstack([t_coeff, k_coeff])))
        # T's coefficients are orthonormal as they come
        out["joint_kernel_equals_minimal_domain_gap"] = Subspace(
            _null_space(np.vstack([g0, g1_bold]))).gap(Subspace(t_coeff))
    return out


def neumann_graph_check_block(rt):
    bar0, _, bar1 = block_reduced(rt, rt.bp.gamma1_kernel_elements())
    d = rt.bp.boundary_dim
    expected = -rt.triple.lam_inv @ rt.dtn @ np.linalg.inv(
        rt.triple.lam_prime)
    return LinearRelation.from_span(d, d, np.vstack([bar0, bar1])).gap(
        LinearRelation.graph_of(expected))


def compare_triplets_block(rt, rng, count):
    """D, P and the residuals of `compare_triplets`, on blocks."""
    bp = rt.bp
    d = bp.boundary_dim
    kern = bp.kernel_basis()
    g0_in_k, g1_in_k = block_deficiency_traces(bp, kern)
    bar0_k_inv = np.linalg.inv(block_reduced(rt, kern)[0])
    d_matrix = g0_in_k @ bar0_k_inv
    gp = rt.triple.gram_partial
    d_star = np.linalg.solve(gp, d_matrix.conj().T)
    p_matrix = -d_star @ g1_in_k @ bar0_k_inv
    elems = bp.test_elements(rng, count)
    g0_in, g1_in = block_deficiency_traces(bp, elems)
    g0_bar, _, g1_bar = block_reduced(rt, elems)
    d_inv = np.linalg.inv(d_matrix)
    scale = max(1.0, np.linalg.norm(g1_bar), np.linalg.norm(g0_bar))
    w_fit = np.vstack([g0_bar, g1_bar]) @ np.linalg.pinv(
        np.vstack([g0_in, g1_in]))
    return d_matrix, p_matrix, {
        "first_trace_match": float(
            np.linalg.norm(g0_bar - d_inv @ g0_in) / scale),
        "second_trace_match": float(np.linalg.norm(
            g1_bar - d_star @ g1_in - p_matrix @ g0_bar) / scale),
        "p_hermitian_defect": float(
            np.linalg.norm(gp @ p_matrix - p_matrix.conj().T @ gp)),
        "intertwiner_blocks": float(max(
            np.linalg.norm(w_fit[:d, :d] - d_inv),
            np.linalg.norm(w_fit[:d, d:]),
            np.linalg.norm(w_fit[d:, :d] - p_matrix @ d_inv),
            np.linalg.norm(w_fit[d:, d:] - d_star))),
    }


# -- per-element references ----------------------------------------------------

def norm_ref(bp, u):
    return u.norm() if is_interval(bp) else float(np.linalg.norm(u))


def lagrange_ref(bp, u, v):
    if is_interval(bp):
        return bp.action(u).inner(v) - u.inner(bp.action(v))
    n = bp.dim
    return complex(np.vdot(v[:n], u[n:])) - complex(np.vdot(v[n:], u[:n]))


def deficiency_ref(bp, u):
    if is_interval(bp):
        return bp.inner_boundary_maps()(u)
    coords = bp.coefficient_view()[0].conj().T @ u
    return bp._g0_inner @ coords, bp._g1_inner @ coords


def bar0_ref(rt, u):
    return rt.triple.lam_prime @ rt.bp.gamma0(u)


def bold_ref(rt, u):
    return rt.bp.gamma1(u) - rt.dtn @ rt.bp.gamma0(u)


def bar1_ref(rt, u):
    return rt.triple.lam_inv @ bold_ref(rt, u)


def pairing_asym_ref(rt, u, v):
    gp = rt.triple.gram_partial
    a = complex(np.vdot(bar0_ref(rt, v), gp @ bar1_ref(rt, u)))
    b = complex(np.vdot(bar1_ref(rt, v), gp @ bar0_ref(rt, u)))
    return a - b


def reduced_residuals_ref(rt, rng, count):
    bp = rt.bp
    elems = columns(bp.test_elements(rng=rng, count=count))
    proj_res = 0.0
    lagr_res = 0.0
    for u in elems:
        p, _ = tp.regular_kernel_split(bp, u)
        scale = max(1.0, norm_ref(bp, u))
        proj_res = max(proj_res,
                       float(np.linalg.norm(bold_ref(rt, u) - bp.gamma1(p)))
                       / scale)
    for u in elems:
        for v in elems:
            scale = max(1.0, norm_ref(bp, u) * norm_ref(bp, v))
            lagr_res = max(lagr_res, abs(lagrange_ref(bp, u, v)
                                         - pairing_asym_ref(rt, u, v))
                           / scale)
    stacked = np.column_stack([
        np.concatenate([bar0_ref(rt, u), bar1_ref(rt, u)]) for u in elems])
    d = bp.boundary_dim
    svals = np.linalg.svd(stacked, compute_uv=False)
    surj_margin = float(svals[2 * d - 1]) if d else np.inf
    kern_res = max((float(np.linalg.norm(bold_ref(rt, k)))
                    for k in columns(bp.kernel_basis())), default=0.0)
    return {
        "gamma1_bold_vs_projection": proj_res,
        "standard_lagrange": lagr_res,
        "surjectivity_margin": surj_margin,
        "gamma1_bold_on_kernel": kern_res,
    }


def kernel_report_ref(rt, rng, count, tol=1e-8):
    bp = rt.bp
    checks = []

    def record(name, residual):
        checks.append({"name": name, "residual": float(residual),
                       "pass": bool(residual <= tol)})

    def worst_bold(elems):
        return max((float(np.linalg.norm(bold_ref(rt, t)))
                    / max(1.0, norm_ref(bp, t)) for t in columns(elems)),
                   default=0.0)

    record("corrected_trace_vanishes_on_minimal_domain",
           worst_bold(bp.minimal_domain_elements()))
    record("corrected_trace_vanishes_on_kernel",
           worst_bold(bp.kernel_basis()))
    res0 = 0.0
    res1 = 0.0
    for u in columns(bp.test_elements(rng=rng, count=count)):
        p, _ = tp.regular_kernel_split(bp, u)
        scale = max(1.0, norm_ref(bp, u))
        res0 = max(res0, float(np.linalg.norm(bp.gamma0(p))) / scale)
        res1 = max(res1, float(np.linalg.norm(bold_ref(rt, u)
                                              - bp.gamma1(p))) / scale)
    record("projection_has_dirichlet_trace_zero", res0)
    record("projection_carries_corrected_trace", res1)

    if not is_interval(bp):
        basis, g0, g1 = bp.coefficient_view()
        g1_bold = g1 - rt.dtn @ g0
        m = basis.shape[1]
        ker_bold = Subspace.from_span(_null_space(g1_bold), ambient_dim=m)
        t_coeff = basis.conj().T @ bp.model.T.graph.basis
        k_coeff = basis.conj().T @ bp.kernel_basis()
        span = Subspace.from_span(np.hstack([t_coeff, k_coeff]),
                                  ambient_dim=m)
        record("kernel_of_corrected_trace_gap", ker_bold.gap(span))
        ker_both = Subspace.from_span(_null_space(np.vstack([g0, g1_bold])),
                                      ambient_dim=m)
        t_sub = Subspace.from_span(t_coeff, ambient_dim=m)
        record("joint_kernel_equals_minimal_domain_gap", ker_both.gap(t_sub))
    return checks


def neumann_graph_check_ref(rt):
    bp = rt.bp
    cols = [np.concatenate([bar0_ref(rt, u), bar1_ref(rt, u)])
            for u in columns(bp.gamma1_kernel_elements())]
    d = bp.boundary_dim
    actual = LinearRelation.from_span(d, d, np.column_stack(cols))
    expected_mat = -rt.triple.lam_inv @ rt.dtn @ np.linalg.inv(
        rt.triple.lam_prime)
    expected = LinearRelation.graph_of(expected_mat)
    return actual.gap(expected)


def compare_triplets_ref(rt, rng, count):
    bp = rt.bp
    d = bp.boundary_dim
    kern = columns(bp.kernel_basis())
    g0_bar_k = np.column_stack([bar0_ref(rt, k) for k in kern])
    g0_in_k = np.column_stack([deficiency_ref(bp, k)[0] for k in kern])
    g1_in_k = np.column_stack([deficiency_ref(bp, k)[1] for k in kern])
    d_matrix = g0_in_k @ np.linalg.inv(g0_bar_k)
    gp = rt.triple.gram_partial
    d_star = np.linalg.solve(gp, d_matrix.conj().T)
    # gamma1_bar vanishes on the kernel: P gamma0_bar(K) = -D* Gamma1(K)
    p_matrix = -d_star @ g1_in_k @ np.linalg.inv(g0_bar_k)

    elems = columns(bp.test_elements(rng=rng, count=count))
    g0_in = np.column_stack([deficiency_ref(bp, u)[0] for u in elems])
    g1_in = np.column_stack([deficiency_ref(bp, u)[1] for u in elems])
    g0_bar = np.column_stack([bar0_ref(rt, u) for u in elems])
    g1_bar = np.column_stack([bar1_ref(rt, u) for u in elems])

    d_inv = np.linalg.inv(d_matrix)
    scale = max(1.0, np.linalg.norm(g1_bar), np.linalg.norm(g0_bar))
    res_first = np.linalg.norm(g0_bar - d_inv @ g0_in) / scale
    res_second = np.linalg.norm(
        g1_bar - d_star @ g1_in - p_matrix @ g0_bar) / scale
    herm_defect = np.linalg.norm(gp @ p_matrix - p_matrix.conj().T @ gp)
    top = np.vstack([g0_in, g1_in])
    bot = np.vstack([g0_bar, g1_bar])
    w_fit = bot @ np.linalg.pinv(top)
    res_blocks = max(
        np.linalg.norm(w_fit[:d, :d] - d_inv),
        np.linalg.norm(w_fit[:d, d:]),
        np.linalg.norm(w_fit[d:, :d] - p_matrix @ d_inv),
        np.linalg.norm(w_fit[d:, d:] - d_star),
    )
    return tp.TripletComparison(
        d_matrix, p_matrix,
        {
            "first_trace_match": float(res_first),
            "second_trace_match": float(res_second),
            "p_hermitian_defect": float(herm_defect),
            "intertwiner_blocks": float(res_blocks),
        })


def boundary_condition_domain_ref(rt, rel):
    basis, g0, g1 = rt.bp.coefficient_view()
    g1 = rt.triple.lam_inv @ (g1 - rt.dtn @ g0)
    g0 = rt.triple.lam_prime @ g0
    perp = rel.graph.complement().basis
    coeff = _null_space(perp.conj().T @ np.vstack([g0, g1]))
    return Subspace.from_span(coeff, ambient_dim=basis.shape[1])


# -- comparisons -------------------------------------------------------------------

def same_array(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


def assert_within_ulps(block, refs, norms, map_norm):
    """Column j of `block` against refs[j], entry by entry, to ULPS units
    of eps * max(1, norms[j]) * map_norm."""
    assert block.shape == (block.shape[0], len(refs))
    for j, ref in enumerate(refs):
        bound = ULPS * EPS * max(1.0, norms[j]) * map_norm
        assert np.max(np.abs(block[:, j] - ref), initial=0.0) <= bound


def map_norms(rt):
    """2-norms of the maps u -> Gamma0 u, Gamma1 u, gamma0_bar u,
    gamma1_bold u and gamma1_bar u on the matrix model (the coordinate map
    is an isometry), bounded through their factors."""
    _, g0, g1 = rt.bp.coefficient_view()
    n0, n1 = np.linalg.norm(g0, 2), np.linalg.norm(g1, 2)
    bold = n1 + np.linalg.norm(rt.dtn, 2) * n0
    return {"gamma0": n0, "gamma1": n1,
            "bar0": np.linalg.norm(rt.triple.lam_prime, 2) * n0,
            "bold": bold, "bar1": np.linalg.norm(rt.triple.lam_inv, 2) * bold}


def assert_blocks_match_single_elements(rt, elems):
    """Every block form of an element set against its elements one at a
    time: exact on the interval model, to ULPS per entry on the matrix
    model."""
    bp = rt.bp
    single = columns(elems)
    norms = [norm_ref(bp, u) for u in single]
    got_traces = bp.traces(elems)
    got_deficiency = bp.deficiency_traces(elems)
    got_projection = bp.projection_traces(elems)
    got_table = rt.table(elems)
    want_traces = ([bp.gamma0(u) for u in single],
                   [bp.gamma1(u) for u in single])
    want_deficiency = tuple(zip(*[deficiency_ref(bp, u) for u in single]))
    projected = [bp.project_regular(u) for u in single]
    want_projection = ([bp.gamma0(p) for p in projected],
                       [bp.gamma1(p) for p in projected])
    want_table = ([bar0_ref(rt, u) for u in single],
                  [bold_ref(rt, u) for u in single],
                  [bar1_ref(rt, u) for u in single])
    want_lagrange = np.array([[lagrange_ref(bp, u, v) for u in single]
                              for v in single])
    if is_interval(bp):
        for got, want in zip(
                got_traces + got_deficiency + got_projection + got_table,
                want_traces + want_deficiency + want_projection
                + want_table):
            assert same_array(got, np.column_stack(want))
        assert same_array(bp.element_norms(elems), np.array(norms))
        assert same_array(bp.lagrange_matrix(elems), want_lagrange)
        return
    maps = map_norms(rt)
    for got, want, name in zip(got_traces, want_traces,
                               ("gamma0", "gamma1")):
        assert_within_ulps(got, want, norms, maps[name])
    for got, want, g_in in zip(got_deficiency, want_deficiency,
                               (bp._g0_inner, bp._g1_inner)):
        assert_within_ulps(got, want, norms, np.linalg.norm(g_in, 2))
    # the projection is bounded by |A's range block^-1| on the action
    proj_scale = max(1.0, np.linalg.norm(bp._a_cod_inv, 2))
    for got, want, name in zip(got_projection, want_projection,
                               ("gamma0", "gamma1")):
        assert_within_ulps(got, want, norms, proj_scale * maps[name])
    for got, want, name in zip(got_table, want_table,
                               ("bar0", "bold", "bar1")):
        assert_within_ulps(got, want, norms, maps[name])
    got_norms = bp.element_norms(elems)
    assert np.all(np.abs(got_norms - norms)
                  <= ULPS * EPS * np.maximum(1.0, norms))
    outer = np.maximum(1.0, np.outer(norms, norms))
    assert np.all(np.abs(bp.lagrange_matrix(elems) - want_lagrange)
                  <= ULPS * EPS * outer)


def assert_residuals_agree(got, want):
    assert got.keys() == want.keys()
    for key in got:
        if np.isinf(want[key]):
            assert got[key] == want[key]
        else:
            assert abs(got[key] - want[key]) <= (
                RESIDUAL_AGREEMENT * max(1.0, abs(want[key]))), key


# -- the checks against the references ----------------------------------------------

KINDS = ["plain", "mixed", "rellich"]
SEEDS = [0, 1, 2, 7, 42]


def problem(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "rellich":
        return sturm.RellichBoundaryProblem()
    if kind == "wide":
        # boundary dimension 8: 16 test elements in reduced_residuals
        return _finite_problem(rng, dim=10, defect=8)
    return _finite_problem(rng, plain=(kind == "plain"))


def element_sets(rt, seed):
    bp = rt.bp
    d = bp.boundary_dim
    return {
        "test": bp.test_elements(np.random.default_rng(seed + 100),
                                 max(8, 2 * d)),
        "kernel": rt.kernel.elements,
        "minimal_domain": bp.minimal_domain_elements(),
        "gamma1_kernel": bp.gamma1_kernel_elements(),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS + ["wide"])
def test_table_and_checks_equal_the_block_references(kind, seed):
    bp = problem(kind, seed)
    rt = tp.reduced_triplet(bp)
    ksm = tp.kernel_solution_map(bp)
    kern = bp.kernel_basis()
    want0, want1 = block_traces(bp, kern)
    assert same_array(ksm.trace0_matrix, want0)
    assert same_array(ksm.trace1_matrix, want1)
    assert all(same_array(got, want) for got, want in
               zip(rt.kernel_table, block_table(rt, want0, want1)))
    for elems in element_sets(rt, seed).values():
        traces = block_traces(bp, elems)
        for got, want in zip(bp.traces(elems), traces):
            assert same_array(got, want)
        for got, want in zip(rt.table(elems), block_table(rt, *traces)):
            assert same_array(got, want)
        for got, want in zip(bp.deficiency_traces(elems),
                             block_deficiency_traces(bp, elems)):
            assert same_array(got, want)
        for got, want in zip(bp.projection_traces(elems),
                             block_traces(bp,
                                          block_projections(bp, elems))):
            assert same_array(got, want)
        assert same_array(bp.element_norms(elems), block_norms(bp, elems))
        assert same_array(bp.lagrange_matrix(elems),
                          block_lagrange(bp, elems))

    def rng():
        return np.random.default_rng(seed + 100)

    assert tp.reduced_residuals(rt, rng()) == reduced_residuals_block(
        rt, rng(), max(8, 2 * bp.boundary_dim))
    report = tp.kernel_report(rt, rng())
    assert {c["name"]: c["residual"] for c in report} == \
        kernel_report_block(rt, rng(), 10)
    assert tp.neumann_graph_check(rt) == neumann_graph_check_block(rt)
    got = tp.compare_triplets(rt, rng())
    d_matrix, p_matrix, residuals = compare_triplets_block(rt, rng(), 12)
    assert got.residuals == residuals
    assert same_array(got.d_matrix, d_matrix)
    assert same_array(got.p_matrix, p_matrix)
    if kind != "rellich":
        brel = cy.random_selfadjoint_relation(np.random.default_rng(seed),
                                              bp.boundary_dim)
        red = tp.transform_boundary_condition(rt, brel)
        got = tp.boundary_condition_domain(rt, red, reduced=True)
        bar0, _, bar1 = block_table(rt, *bp.coefficient_view()[1:])
        perp = red.graph.complement().basis
        want = _null_space(perp.conj().T @ np.vstack([bar0, bar1]))
        assert same_array(got.basis, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS + ["wide"])
def test_checks_equal_the_per_element_references(kind, seed):
    bp = problem(kind, seed)
    rt = tp.reduced_triplet(bp)
    for elems in element_sets(rt, seed).values():
        assert_blocks_match_single_elements(rt, elems)

    def pair(fn, ref, ref_count):
        # both sides draw the same random test elements, as many as the
        # check draws
        return (fn(rt, np.random.default_rng(seed + 100)),
                ref(rt, np.random.default_rng(seed + 100), ref_count))

    # max(8, 2d) elements: 16 on the wide problem, so its combined trace
    # can reach rank 2d
    got, want = pair(tp.reduced_residuals, reduced_residuals_ref,
                     max(8, 2 * bp.boundary_dim))
    assert_residuals_agree(got, want)
    got, want = pair(tp.kernel_report, kernel_report_ref, 10)
    assert [c["name"] for c in got] == [c["name"] for c in want]
    assert [c["pass"] for c in got] == [c["pass"] for c in want]
    assert_residuals_agree({c["name"]: c["residual"] for c in got},
                           {c["name"]: c["residual"] for c in want})
    got, want = pair(tp.compare_triplets, compare_triplets_ref, 12)
    assert_residuals_agree(got.residuals, want.residuals)
    for a, b in ((got.d_matrix, want.d_matrix),
                 (got.p_matrix, want.p_matrix)):
        assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(b))
    assert abs(tp.neumann_graph_check(rt)
               - neumann_graph_check_ref(rt)) <= RESIDUAL_AGREEMENT

    if kind != "rellich":
        brel = cy.random_selfadjoint_relation(np.random.default_rng(seed),
                                              bp.boundary_dim)
        red = tp.transform_boundary_condition(rt, brel)
        got = tp.boundary_condition_domain(rt, red, reduced=True)
        want = boundary_condition_domain_ref(rt, red)
        assert got.dim == want.dim and got.gap(want) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_one_element_delegates_equal_the_references(kind):
    bp = problem(kind, 3)
    rt = tp.reduced_triplet(bp)
    elems = bp.test_elements(rng=np.random.default_rng(5), count=10)
    for u in columns(elems):
        assert same_array(rt.gamma0_bar(u), bar0_ref(rt, u))
        assert same_array(rt.gamma1_bold(u), bold_ref(rt, u))
        assert same_array(rt.gamma1_bar(u), bar1_ref(rt, u))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.integers(2, 12).flatmap(
           lambda dim: st.tuples(st.just(dim), st.integers(0, min(5, dim)))),
       plain=st.booleans(), count=st.integers(0, 30))
def test_blocks_match_per_element_traces(seed, shape, plain, count):
    dim, defect = shape
    rng = np.random.default_rng(seed)
    bp = _finite_problem(rng, dim=dim, defect=defect, plain=plain)
    rt = tp.reduced_triplet(bp)
    assert_blocks_match_single_elements(rt, bp.test_elements(rng, count))
    assert_blocks_match_single_elements(rt, rt.kernel.elements)
    assert_blocks_match_single_elements(rt, bp.minimal_domain_elements())


def test_elements_follow_the_per_element_draws():
    # the old draw: the basis columns, then one complex coefficient vector
    # per element, its real part first
    bp = problem("mixed", 4)
    basis = bp.coefficient_view()[0]
    m = basis.shape[1]
    for count in (0, 3, m, m + 1, m + 12):
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = bp.test_elements(rng, count)
        want = [basis[:, j] for j in range(m)]
        while len(want) < count:
            c = (ref_rng.standard_normal(m)
                 + 1j * ref_rng.standard_normal(m))
            want.append(basis @ c)
        want = want[:count]
        assert got.shape == (2 * bp.dim, count)
        assert rng.random() == ref_rng.random()
        for j, u in enumerate(want):
            assert np.max(np.abs(got[:, j] - u), initial=0.0) <= (
                ULPS * EPS * max(1.0, np.linalg.norm(u)))


# -- each element set is traced in one block per check ----------------------------

BLOCK_FORMS = ("traces", "deficiency_traces", "projection_traces",
               "element_norms", "lagrange_matrix")


def count_blocks(bp):
    """Replace the block forms of bp by recording wrappers and its
    one-element traces by failing ones; the returned dict maps each block
    form to the element sets it was handed, in order."""
    seen = {name: [] for name in BLOCK_FORMS}

    def recording(name, fn):
        def wrapped(elems):
            seen[name].append(elems)
            return fn(elems)
        return wrapped

    for name in BLOCK_FORMS:
        setattr(bp, name, recording(name, getattr(bp, name)))

    def single(u):
        pytest.fail("a check traced a single element")

    bp.gamma0 = bp.gamma1 = single
    return seen


def width(elems):
    return len(elems) if isinstance(elems, list) else elems.shape[1]


def take(seen):
    """The element-set widths each block form saw, and a reset."""
    out = {name: [width(e) for e in sets] for name, sets in seen.items()}
    for sets in seen.values():
        sets.clear()
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_each_element_set_is_traced_in_one_block_per_check(kind):
    bp = problem(kind, 11)
    rt = tp.reduced_triplet(bp)
    seen = count_blocks(bp)
    d = bp.boundary_dim
    k = width(rt.kernel.elements)
    t = width(bp.minimal_domain_elements())
    g = width(bp.gamma1_kernel_elements())
    m = max(8, 2 * d)
    rng = np.random.default_rng(0)
    # projection_traces traces the block of projections through `traces`
    tp.reduced_residuals(rt, rng)
    assert take(seen) == {"traces": [m, m], "deficiency_traces": [],
                          "projection_traces": [m], "element_norms": [m],
                          "lagrange_matrix": [m]}
    tp.kernel_report(rt, rng)
    assert take(seen) == {"traces": [t, 10, 10], "deficiency_traces": [],
                          "projection_traces": [10],
                          "element_norms": [t, k, 10], "lagrange_matrix": []}
    tp.neumann_graph_check(rt)
    assert take(seen) == {"traces": [g], "deficiency_traces": [],
                          "projection_traces": [], "element_norms": [],
                          "lagrange_matrix": []}
    tp.compare_triplets(rt, rng)
    assert take(seen) == {"traces": [12], "deficiency_traces": [k, 12],
                          "projection_traces": [], "element_norms": [],
                          "lagrange_matrix": []}
    # the kernel's traces are taken once, by the kernel solve
    tp.kernel_solution_map(bp)
    assert take(seen)["traces"] == [k]


def test_kernel_is_solved_once_per_reduced_triplet():
    bp = problem("mixed", 11)
    calls = []
    kernel_basis = bp.kernel_basis

    def counting():
        calls.append(1)
        return kernel_basis()

    bp.kernel_basis = counting
    rng = np.random.default_rng(0)
    rt = tp.reduced_triplet(bp)
    tp.reduced_residuals(rt, rng)
    tp.kernel_report(rt, rng)
    tp.compare_triplets(rt, rng)
    tp.neumann_graph_check(rt)
    assert len(calls) == 1
