"""Reduced-triplet checks against per-element references.

The references below are the checks as they were written before the trace
table: every reduced trace is evaluated where it is used, straight from
the raw traces, the Dirichlet-to-Neumann matrix and the triple, once per
use.  The table evaluates each element's traces once and must return
exactly the same residuals and matrices.
"""

import numpy as np
import pytest

from tripletflow import cayley as cy
from tripletflow import sturm
from tripletflow import triplet as tp
from tripletflow.relspace import LinearRelation, Subspace, _null_space
from tripletflow.verify import _finite_problem


# -- per-element references ---------------------------------------------------

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


def kernel_solution_map_ref(bp):
    kern = bp.kernel_basis()
    g0 = np.column_stack([bp.gamma0(k) for k in kern]) if kern else \
        np.zeros((bp.boundary_dim, 0), dtype=complex)
    g1 = np.column_stack([bp.gamma1(k) for k in kern]) if kern else \
        np.zeros((bp.boundary_dim, 0), dtype=complex)
    return tp.KernelSolutionMap(kern, g0, g1)


def reduced_residuals_ref(bp, rt, rng, count):
    elems = bp.test_elements(rng=rng, count=count)
    proj_res = 0.0
    lagr_res = 0.0
    for u in elems:
        p, _ = tp.regular_kernel_split(bp, u)
        scale = max(1.0, bp.element_norm(u))
        proj_res = max(proj_res,
                       float(np.linalg.norm(bold_ref(rt, u) - bp.gamma1(p)))
                       / scale)
    for u in elems:
        for v in elems:
            scale = max(1.0, bp.element_norm(u) * bp.element_norm(v))
            lhs = bp.lagrange_form(u, v)
            lagr_res = max(lagr_res,
                           abs(lhs - pairing_asym_ref(rt, u, v)) / scale)
    stacked = np.column_stack([
        np.concatenate([bar0_ref(rt, u), bar1_ref(rt, u)]) for u in elems])
    svals = np.linalg.svd(stacked, compute_uv=False)
    d = bp.boundary_dim
    surj_margin = float(svals[2 * d - 1]) if stacked.shape[1] >= 2 * d else 0.0
    kern_res = max((float(np.linalg.norm(bold_ref(rt, k)))
                    for k in bp.kernel_basis()), default=0.0)
    return {
        "gamma1_bold_vs_projection": proj_res,
        "standard_lagrange": lagr_res,
        "surjectivity_margin": surj_margin,
        "gamma1_bold_on_kernel": kern_res,
    }


def kernel_report_ref(bp, rt, rng, count, tol=1e-8):
    checks = []

    def record(name, residual):
        checks.append({"name": name, "residual": float(residual),
                       "pass": bool(residual <= tol)})

    res = max((float(np.linalg.norm(bold_ref(rt, t)))
               / max(1.0, bp.element_norm(t))
               for t in bp.minimal_domain_elements()), default=0.0)
    record("corrected_trace_vanishes_on_minimal_domain", res)
    res = max((float(np.linalg.norm(bold_ref(rt, k)))
               / max(1.0, bp.element_norm(k))
               for k in bp.kernel_basis()), default=0.0)
    record("corrected_trace_vanishes_on_kernel", res)
    res0 = 0.0
    res1 = 0.0
    for u in bp.test_elements(rng=rng, count=count):
        p, _ = tp.regular_kernel_split(bp, u)
        scale = max(1.0, bp.element_norm(u))
        res0 = max(res0, float(np.linalg.norm(bp.gamma0(p))) / scale)
        res1 = max(res1, float(np.linalg.norm(bold_ref(rt, u)
                                              - bp.gamma1(p))) / scale)
    record("projection_has_dirichlet_trace_zero", res0)
    record("projection_carries_corrected_trace", res1)

    if hasattr(bp, "coefficient_view"):
        basis, g0, g1 = bp.coefficient_view()
        g1_bold = g1 - rt.dtn @ g0
        m = basis.shape[1]
        ker_bold = Subspace.from_span(_null_space(g1_bold), ambient_dim=m)
        t_coeff = basis.conj().T @ bp.model.T.graph.basis
        k_coeff = basis.conj().T @ np.column_stack(bp.kernel_basis())
        span = Subspace.from_span(np.hstack([t_coeff, k_coeff]),
                                  ambient_dim=m)
        record("kernel_of_corrected_trace_gap", ker_bold.gap(span))
        ker_both = Subspace.from_span(_null_space(np.vstack([g0, g1_bold])),
                                      ambient_dim=m)
        t_sub = Subspace.from_span(t_coeff, ambient_dim=m)
        record("joint_kernel_equals_minimal_domain_gap", ker_both.gap(t_sub))
    return checks


def neumann_graph_check_ref(bp, rt):
    elems = bp.gamma1_kernel_elements()
    cols = [np.concatenate([bar0_ref(rt, u), bar1_ref(rt, u)])
            for u in elems]
    d = bp.boundary_dim
    actual = LinearRelation.from_span(d, d, np.column_stack(cols))
    expected_mat = -rt.triple.lam_inv @ rt.dtn @ np.linalg.inv(
        rt.triple.lam_prime)
    expected = LinearRelation.graph_of(expected_mat)
    return actual.gap(expected)


def compare_triplets_ref(bp, rt, rng, count):
    inner_gamma = bp.inner_boundary_maps()
    d = bp.boundary_dim
    kern = bp.kernel_basis()
    g0_bar_k = np.column_stack([bar0_ref(rt, k) for k in kern])
    g0_in_k = np.column_stack([inner_gamma(k)[0] for k in kern])
    g1_in_k = np.column_stack([inner_gamma(k)[1] for k in kern])
    d_matrix = g0_in_k @ np.linalg.inv(g0_bar_k)
    gp = rt.triple.gram_partial
    d_star = np.linalg.solve(gp, d_matrix.conj().T)
    # gamma1_bar vanishes on the kernel: P gamma0_bar(K) = -D* Gamma1(K)
    p_matrix = -d_star @ g1_in_k @ np.linalg.inv(g0_bar_k)

    elems = bp.test_elements(rng=rng, count=count)
    g0_in = np.column_stack([inner_gamma(u)[0] for u in elems])
    g1_in = np.column_stack([inner_gamma(u)[1] for u in elems])
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


def boundary_condition_domain_ref(bp, rel, rt):
    basis, g0, g1 = bp.coefficient_view()
    g1 = rt.triple.lam_inv @ (g1 - rt.dtn @ g0)
    g0 = rt.triple.lam_prime @ g0
    perp = rel.graph.complement().basis
    coeff = _null_space(perp.conj().T @ np.vstack([g0, g1]))
    return Subspace.from_span(coeff, ambient_dim=basis.shape[1])


# -- the checks against the references ------------------------------------------

KINDS = ["plain", "mixed", "rellich"]
SEEDS = [0, 1, 2, 7, 42]


def problem(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "rellich":
        return sturm.RellichBoundaryProblem()
    if kind == "wide":
        # boundary dimension 8: from this length on, an OpenBLAS dot
        # product of a strided vector can differ in the last bits from
        # that of a contiguous one
        return _finite_problem(rng, dim=10, defect=8)
    return _finite_problem(rng, plain=(kind == "plain"))


def same_array(a, b):
    return a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS + ["wide"])
def test_checks_equal_the_per_element_references(kind, seed):
    bp = problem(kind, seed)
    rt = tp.reduced_triplet(bp)
    ksm, ksm_ref = tp.kernel_solution_map(bp), kernel_solution_map_ref(bp)
    assert same_array(ksm.trace0_matrix, ksm_ref.trace0_matrix)
    assert same_array(ksm.trace1_matrix, ksm_ref.trace1_matrix)

    def pair(fn, ref, ref_count):
        # both sides draw the same random test elements, as many as the
        # check draws
        return (fn(rt, np.random.default_rng(seed + 100)),
                ref(bp, rt, np.random.default_rng(seed + 100), ref_count))

    # max(8, 2d) elements: 16 on the wide problem, so its combined trace
    # can reach rank 2d
    got, want = pair(tp.reduced_residuals, reduced_residuals_ref,
                     max(8, 2 * bp.boundary_dim))
    assert got == want
    got, want = pair(tp.kernel_report, kernel_report_ref, 10)
    assert got == want
    got, want = pair(tp.compare_triplets, compare_triplets_ref, 12)
    assert got.residuals == want.residuals
    assert same_array(got.d_matrix, want.d_matrix)
    assert same_array(got.p_matrix, want.p_matrix)
    assert tp.neumann_graph_check(rt) == neumann_graph_check_ref(bp, rt)

    if kind != "rellich":
        brel = cy.random_selfadjoint_relation(np.random.default_rng(seed),
                                              bp.boundary_dim)
        red = tp.transform_boundary_condition(rt, brel)
        got = tp.boundary_condition_domain(rt, red, reduced=True)
        want = boundary_condition_domain_ref(bp, red, rt)
        assert same_array(got.basis, want.basis)


@pytest.mark.parametrize("kind", KINDS)
def test_one_element_delegates_equal_the_references(kind):
    bp = problem(kind, 3)
    rt = tp.reduced_triplet(bp)
    for u in bp.test_elements(rng=np.random.default_rng(5), count=10):
        assert same_array(rt.gamma0_bar(u), bar0_ref(rt, u))
        assert same_array(rt.gamma1_bold(u), bold_ref(rt, u))
        assert same_array(rt.gamma1_bar(u), bar1_ref(rt, u))


# -- each element's traces are evaluated once per call -----------------------------

def count_evaluations(bp):
    """Replace the two traces and the deficiency map of bp by counting
    wrappers; the returned dict maps each name to the elements it saw."""
    seen = {"gamma0": [], "gamma1": [], "deficiency": []}
    inner = bp.inner_boundary_maps()

    def counting(name, fn):
        def wrapped(u):
            seen[name].append(u)
            return fn(u)
        return wrapped

    bp.gamma0 = counting("gamma0", bp.gamma0)
    bp.gamma1 = counting("gamma1", bp.gamma1)
    deficiency = counting("deficiency", inner)
    bp.inner_boundary_maps = lambda: deficiency
    return seen


def assert_each_seen_once(seen):
    # the elements are kept alive in `seen`, so their ids are distinct
    for name, elems in seen.items():
        ids = [id(u) for u in elems]
        assert len(ids) == len(set(ids)), name
        elems.clear()


@pytest.mark.parametrize("kind", KINDS)
def test_each_element_is_traced_once_per_call(kind):
    bp = problem(kind, 11)
    rt = tp.reduced_triplet(bp)
    seen = count_evaluations(bp)
    rng = np.random.default_rng(0)
    tp.reduced_residuals(rt, rng)
    assert seen["gamma0"] and not seen["deficiency"]
    assert_each_seen_once(seen)
    tp.kernel_report(rt, rng)
    assert_each_seen_once(seen)
    tp.neumann_graph_check(rt)
    assert_each_seen_once(seen)
    tp.compare_triplets(rt, rng)
    assert len(seen["deficiency"]) == len(bp.kernel_basis()) + 12
    assert_each_seen_once(seen)
    tp.kernel_solution_map(bp)
    assert len(seen["gamma0"]) == len(bp.kernel_basis())
    assert_each_seen_once(seen)


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
