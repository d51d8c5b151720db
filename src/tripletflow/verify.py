"""Deterministic verification suites for every module.

Each suite runs a batch of seeded random checks (NumPy default_rng, PCG64)
plus the closed-form fixtures and returns records
{"suite", "name", "residual", "tol", "pass"}.  The CLI serializes these to
JSON; identical (suite, trials, seed) always produce identical output.
"""

from __future__ import annotations

import math

import numpy as np

from . import cayley as cy
from . import famindex as fi
from . import gelfand as gf
from . import relspace as rs
from . import sturm
from . import symbols as sy
from . import triplet as tp

__all__ = ["SUITES", "run_suite", "all_pass"]

# the default trial count of every suite, of run_suite and of the CLI
_TRIALS = 50


def _check(records, suite, name, residual, tol):
    residual = float(residual)
    records.append({"suite": suite, "name": name, "residual": residual,
                    "tol": float(tol), "pass": bool(residual <= tol)})


def _complex_normal(rng, shape=None):
    """A complex Gaussian draw of the given shape (a scalar for None), the
    real part drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_relation(rng, dom, cod):
    k = int(rng.integers(0, dom + cod + 1))
    cols = _complex_normal(rng, (dom + cod, k))
    return rs.LinearRelation.from_span(dom, cod, cols)


def suite_relspace(trials=_TRIALS, seed=0):
    rng = np.random.default_rng(seed)
    rec = []
    inv_gap = 0.0
    dim_defect = 0
    for _ in range(trials):
        dom, cod = (int(x) for x in rng.integers(1, 9, 2))
        rel = _random_relation(rng, dom, cod)
        adj = rs.adjoint_relation(rel)
        inv_gap = max(inv_gap, rs.adjoint_relation(adj).gap(rel))
        dim_defect = max(dim_defect, abs(rel.dim + adj.dim - dom - cod))
    _check(rec, "relspace", "adjoint_involution_gap", inv_gap, 1e-9)
    _check(rec, "relspace", "dimension_sum_defect", dim_defect, 0.5)

    unit_res = 0.0
    herm_res = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        sa = cy.random_selfadjoint_relation(rng, n)
        u = rs.cayley_unitary(sa)
        unit_res = max(unit_res, np.linalg.norm(u.conj().T @ u - np.eye(n)))
        h = _complex_normal(rng, (n, n))
        h = h + h.conj().T
        u1 = rs.cayley_unitary(rs.LinearRelation.graph_of(h))
        u2 = (h - 1j * np.eye(n)) @ np.linalg.inv(h + 1j * np.eye(n))
        herm_res = max(herm_res, np.linalg.norm(u1 - u2))
    _check(rec, "relspace", "cayley_unitarity", unit_res, 1e-9)
    _check(rec, "relspace", "cayley_matches_matrix_formula", herm_res, 1e-12)

    comp_gap = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        rel = _random_relation(rng, n, n)
        l1 = _complex_normal(rng, (2 * n, 2 * n)) + 3 * np.eye(2 * n)
        l2 = _complex_normal(rng, (2 * n, 2 * n)) + 3 * np.eye(2 * n)
        lhs = rs.map_relation(l2, rs.map_relation(l1, rel))
        comp_gap = max(comp_gap, lhs.gap(rs.map_relation(l2 @ l1, rel)))
    _check(rec, "relspace", "map_relation_composition_gap", comp_gap, 1e-9)

    adj_graph = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        m = _complex_normal(rng, (n, n))
        got = rs.adjoint_relation(rs.LinearRelation.graph_of(m))
        adj_graph = max(adj_graph,
                        got.gap(rs.LinearRelation.graph_of(m.conj().T)))
    _check(rec, "relspace", "adjoint_of_graph_is_graph_of_adjoint", adj_graph,
           1e-12)
    return rec


def _random_model(rng):
    dim = int(rng.integers(2, 9))
    defect = int(rng.integers(1, min(3, dim - 1) + 1))
    return cy.random_symmetric_model(rng, dim, defect)


def suite_cayley(trials=_TRIALS, seed=0):
    rng = np.random.default_rng(seed)
    rec = []
    iso_res = 0.0
    span_gap = 0.0
    partial_res = 0.0
    recon_res = 0.0
    lagr_res = 0.0
    fact_res = 0.0
    ext_agree = 0
    for _ in range(trials):
        model = _random_model(rng)
        vmat = cy.extension_isometry(model)
        for j in range(vmat.shape[1]):
            iso_res = max(iso_res, abs(np.linalg.norm(vmat[:, j]) - 1.0))
            if not model.kminus.contains(vmat[:, j].reshape(-1, 1)):
                iso_res = max(iso_res, 1.0)
        mu = model.mu
        stacked = np.hstack([
            model.T.graph.basis,
            np.vstack([model.kplus.basis, mu * model.kplus.basis]),
            np.vstack([model.kminus.basis, np.conj(mu) * model.kminus.basis]),
        ])
        span = rs.Subspace.from_span(stacked)
        span_gap = max(span_gap, span.gap(model.Tstar.graph))
        u_t = cy.partial_cayley(model.T, mu)
        v0 = vmat @ model.kplus.basis.conj().T
        partial_res = max(partial_res, np.linalg.norm(
            rs.cayley_unitary(model.A) - (u_t + v0)))
        basis = model.Tstar.graph.basis
        for _ in range(2):
            z = basis @ _complex_normal(rng, basis.shape[1])
            x = basis @ _complex_normal(rng, basis.shape[1])
            split = cy.von_neumann_components(model, z)
            scale = max(1.0, np.linalg.norm(z))
            recon_res = max(recon_res, split.reconstruction_residual / scale)
            lagr_res = max(lagr_res, cy.lagrange_residual(model, x, z)
                           / max(1.0, np.linalg.norm(z) * np.linalg.norm(x)))
        brel = cy.random_selfadjoint_relation(rng, model.defect)
        # the two extensions the factorization check built, at i and at -i
        r1, r2, extensions = cy._factorization(model, brel)
        fact_res = max(fact_res, r1, r2)
        ext_agree += int(np.count_nonzero(
            ~rs.is_self_adjoint_batch(extensions)))
    _check(rec, "cayley", "isometry_defect", iso_res, 1e-12)
    _check(rec, "cayley", "domain_splitting_gap", span_gap, 1e-10)
    _check(rec, "cayley", "partial_plus_isometry_is_cayley", partial_res, 1e-10)
    _check(rec, "cayley", "reconstruction_residual", recon_res, 1e-10)
    _check(rec, "cayley", "lagrange_residual", lagr_res, 1e-10)
    _check(rec, "cayley", "factorization_residual", fact_res, 1e-9)
    _check(rec, "cayley", "selfadjoint_extensions", ext_agree, 0.5)
    return rec


def _random_spd(rng, n):
    a = _complex_normal(rng, (n, n))
    return a @ a.conj().T + n * np.eye(n)


def suite_gelfand(trials=_TRIALS, seed=0):
    rng = np.random.default_rng(seed)
    rec = []
    adjness = 0.0
    sqrt_res = 0.0
    iso_res = 0.0
    dual_res = 0.0
    shift_res = 0.0
    adj_two = 0.0
    pairing_adjoint = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        triple = gf.build_triple(_random_spd(rng, n), _random_spd(rng, n))
        x = _complex_normal(rng, n)
        y = _complex_normal(rng, n)
        scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(y))
        adjness = max(adjness, abs(
            triple.inner_partial(x, y)
            - triple.inner_K(x, triple.iota_star @ y)) / scale)
        sqrt_res = max(sqrt_res, np.linalg.norm(
            triple.lam @ triple.lam - triple.j)
            / max(1.0, np.linalg.norm(triple.j)))
        iso_res = max(iso_res, abs(
            triple.inner_K(triple.lam @ x, triple.lam @ y)
            - triple.inner_partial(x, y)) / scale)
        dual_res = max(dual_res, abs(
            triple.inner_dual(x, y)
            - triple.inner_K(triple.iota_star @ x, triple.iota_star @ y))
            / scale)
        shift_res = max(shift_res, gf.shift_identity_residual(triple, y, x)
                        / scale)
        pairing_adjoint = max(pairing_adjoint, abs(
            triple.inner_partial(triple.lam_prime @ y, x)
            - gf.dual_pairing(triple, y, triple.lam @ x)) / scale)
        rel = _random_relation(rng, n, n)
        adj2 = gf.triple_adjoint(triple, gf.triple_adjoint(triple, rel))
        adj_two = max(adj_two, adj2.gap(rel))
    _check(rec, "gelfand", "embedding_adjointness", adjness, 1e-12)
    _check(rec, "gelfand", "square_root_residual", sqrt_res, 1e-10)
    _check(rec, "gelfand", "lambda_isometry", iso_res, 1e-10)
    _check(rec, "gelfand", "dual_gram_reproduction", dual_res, 1e-10)
    _check(rec, "gelfand", "shift_identity", shift_res, 1e-10)
    _check(rec, "gelfand", "lambda_pair_adjointness", pairing_adjoint, 1e-10)
    _check(rec, "gelfand", "triple_adjoint_involution", adj_two, 1e-9)

    # self-adjointness criterion on a constructed core
    criture = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        triple = gf.build_triple(_random_spd(rng, n), _random_spd(rng, n))
        core = _complex_normal(rng, (n, n))
        core = core + core.conj().T
        # lam^(-1) M lam_prime^(-1) must be self-adjoint in the pivot metric
        mat = triple.lam @ _pivot_hermitian(triple, core) @ triple.lam_prime
        rel = rs.LinearRelation.graph_of(mat)
        if not gf.is_triple_self_adjoint(triple, rel):
            criture = 1.0
    _check(rec, "gelfand", "selfadjoint_criterion_on_hermitian_core", criture,
           0.5)
    return rec


def _pivot_hermitian(triple, core):
    """A matrix self-adjoint in the pivot metric built from a Hermitian core."""
    chol = np.linalg.cholesky(triple.gram_partial)
    return np.linalg.solve(chol.conj().T, core @ chol.conj().T)


def _finite_problem(rng, dim=None, defect=None, plain=False):
    model = _random_model(rng) if dim is None else cy.random_symmetric_model(
        rng, dim, defect)
    d = model.defect
    if plain:
        return tp.MatrixBoundaryProblem(model)
    e_mat = _complex_normal(rng, (d, d)) + 2 * np.eye(d)
    h_mat = _complex_normal(rng, (d, d))
    h_mat = h_mat + h_mat.conj().T
    gram = _random_spd(rng, d)
    return tp.MatrixBoundaryProblem(model, gram_small=gram, mix=(e_mat, h_mat))


def suite_triplet(trials=_TRIALS, seed=0):
    rng = np.random.default_rng(seed)
    rec = []
    problems = [_finite_problem(rng) for _ in range(max(2, trials // 2))]
    problems.append(sturm.RellichBoundaryProblem())
    proj = lagr = surj = 0.0
    neum = kergap = 0.0
    cmp_first = cmp_second = cmp_herm = cmp_blocks = 0.0
    graph_gap = 0.0
    dom_gap = 0.0
    m_sa = 0.0
    for bp in problems:
        rt = tp.reduced_triplet(bp)
        res = tp.reduced_residuals(rt, rng)
        proj = max(proj, res["gamma1_bold_vs_projection"])
        lagr = max(lagr, res["standard_lagrange"])
        surj = max(surj, 0.0 if res["surjectivity_margin"] > 1e-6 else 1.0)
        for chk in tp.kernel_report(rt, rng):
            kergap = max(kergap, chk["residual"])
        neum = max(neum, tp.neumann_graph_check(rt))
        comparison = tp.compare_triplets(rt, rng)
        cmp_first = max(cmp_first, comparison.residuals["first_trace_match"])
        cmp_second = max(cmp_second,
                         comparison.residuals["second_trace_match"])
        cmp_herm = max(cmp_herm, comparison.residuals["p_hermitian_defect"])
        cmp_blocks = max(cmp_blocks,
                         comparison.residuals["intertwiner_blocks"])
        # graph of the zero-point Weyl matrix is the boundary data of the kernel
        cauchy = rs.LinearRelation.from_span(
            bp.boundary_dim, bp.boundary_dim,
            np.vstack([rt.kernel.trace0_matrix, rt.kernel.trace1_matrix]))
        graph_gap = max(graph_gap, cauchy.gap(
            rs.LinearRelation.graph_of(rt.dtn)))
        m_sa = max(m_sa, 0.0 if gf.is_triple_self_adjoint(
            bp.triple, rs.LinearRelation.graph_of(rt.dtn)) else 1.0)
        if hasattr(bp, "coefficient_view"):
            brel = cy.random_selfadjoint_relation(rng, bp.boundary_dim)
            raw = tp.boundary_condition_domain(rt, brel)
            red = tp.boundary_condition_domain(
                rt, tp.transform_boundary_condition(rt, brel), reduced=True)
            dom_gap = max(dom_gap, raw.gap(red))
    _check(rec, "triplet", "corrected_trace_vs_projection", proj, 1e-9)
    _check(rec, "triplet", "standard_lagrange", lagr, 1e-9)
    _check(rec, "triplet", "combined_trace_surjective", surj, 0.5)
    _check(rec, "triplet", "kernel_report_worst", kergap, 1e-8)
    _check(rec, "triplet", "neumann_relation_gap", neum, 1e-8)
    _check(rec, "triplet", "comparison_first_trace", cmp_first, 1e-9)
    _check(rec, "triplet", "comparison_second_trace", cmp_second, 1e-9)
    _check(rec, "triplet", "comparison_p_hermitian", cmp_herm, 1e-9)
    _check(rec, "triplet", "comparison_intertwiner_blocks", cmp_blocks, 1e-8)
    _check(rec, "triplet", "weyl_graph_is_cauchy_data", graph_gap, 1e-10)
    _check(rec, "triplet", "weyl_selfadjoint_across_triple", m_sa, 0.5)
    _check(rec, "triplet", "raw_vs_reduced_extension_domain", dom_gap, 1e-8)
    return rec


def suite_sturm(trials=_TRIALS, seed=0):
    rng = np.random.default_rng(seed)
    rec = []
    lag_res = 0.0
    inv_res = 0.0
    for _ in range(trials):
        rates = [0.0, 1.0, -1.0, 2.0, 1j * math.pi, -1j * math.pi,
                 0.5 - 1j, 0.5 + 1j]
        def rand_poly():
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                terms.append((_complex_normal(rng), int(rng.integers(0, 3)),
                              rates[int(rng.integers(0, len(rates)))]))
            return sturm.ExpPoly(terms)

        u, v = rand_poly(), rand_poly()
        act = lambda w: -1.0 * w.derivative().derivative()
        lhs = act(u).inner(v) - u.inner(act(v))
        g0u, g1u = u.trace0(), u.trace1()
        g0v, g1v = v.trace0(), v.trace1()
        rhs = complex(np.vdot(g0v, g1u)) - complex(np.vdot(g1v, g0u))
        scale = max(1.0, abs(lhs))
        lag_res = max(lag_res, abs(lhs - rhs) / scale)
        sol = sturm.dirichlet_solve(u)
        inv_res = max(inv_res,
                      abs((act(sol) - u).norm()) + abs(sol(0.0)) + abs(sol(1.0)))
    # The digits go in ExpPoly.integral01, which sums the antiderivative's
    # terms at x = 1, each rounded at its own size: 83 in all for an integral
    # of 61 at seed 160, 2264 for 27 at seed 119.  lhs then cancels two such
    # integrals (60.7 and 61.2 to 0.71; 27.3 and 23.9 to 5.16).
    _check(rec, "sturm", "lagrange_identity", lag_res, 1e-13)
    _check(rec, "sturm", "dirichlet_solve_inverse", inv_res, 1e-10)

    defic = 0.0
    for mu in (0.0, 1j, -1j, math.pi ** 2, 2.0 - 3.0j):
        for u in sturm.deficiency_basis(mu):
            act = -1.0 * u.derivative().derivative()
            defic = max(defic, (act - complex(mu) * u).norm())
    _check(rec, "sturm", "deficiency_solutions", defic, 1e-12)

    m0 = sturm.rellich_dtn_matrix()
    _check(rec, "sturm", "weyl_matrix_closed_form",
           np.linalg.norm(m0 - np.array([[-1, 1], [1, -1]])), 1e-12)

    sa = 0.0
    for kappa in (-3.0, 0.0, 1.0, 2.5, math.inf):
        rel = sturm.robin_relation(kappa)
        if not rs.is_self_adjoint(rel):
            sa = 1.0
    _check(rec, "sturm", "robin_relation_selfadjoint", sa, 0.5)

    eig_d = sturm.secular_eigenvalues(math.inf)
    want_d = np.array([(n * math.pi) ** 2 for n in range(1, 6)])
    _check(rec, "sturm", "dirichlet_limit",
           np.max(np.abs(eig_d[:5] - want_d) / want_d), 1e-10)
    eig_n = sturm.secular_eigenvalues(0.0)
    want_n = np.array([((n - 0.5) * math.pi) ** 2 for n in range(1, 6)])
    _check(rec, "sturm", "neumann_limit",
           np.max(np.abs(eig_n[:5] - want_n) / want_n), 1e-10)
    _check(rec, "sturm", "zero_eigenvalue_at_unit_parameter",
           abs(sturm.secular_eigenvalues(1.0)[0]), 1e-12)

    lo, hi = 1.0, 3.0
    f = lambda s: math.tanh(s) - 0.5 * s
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    lam_oracle = -((0.5 * (lo + hi)) ** 2)
    _check(rec, "sturm", "negative_branch_oracle",
           abs(sturm.secular_eigenvalues(2.0)[0] - lam_oracle), 1e-8)

    eigres = 0.0
    for kappa in (-2.0, 0.3, 1.0, 4.0, 14.0, 1e6):
        for lam in sturm.secular_eigenvalues(kappa, lambda_max=150.0):
            eigres = max(eigres, sturm.boundary_residual(kappa, lam))
    _check(rec, "sturm", "eigenfunction_boundary_residual", eigres, 1e-10)

    lam, cay, project = sturm.galerkin_sine(8)
    _check(rec, "sturm", "galerkin_first_cayley_entry",
           abs(cay[0] - (math.pi ** 2 - 1j) / (math.pi ** 2 + 1j)), 1e-12)
    coeffs = project(sturm.sin_wave(2 * math.pi) * math.sqrt(2.0))
    unitv = np.zeros(8)
    unitv[1] = 1.0
    _check(rec, "sturm", "galerkin_mode_projection",
           np.linalg.norm(coeffs - unitv), 1e-12)
    want = np.array([math.sqrt(2.0) * (-1.0) ** (n + 1) / (n * math.pi)
                     for n in range(1, 9)])
    _check(rec, "sturm", "galerkin_ramp_coefficients",
           np.linalg.norm(project(sturm.xvar()) - want), 1e-12)
    return rec


def _random_rho(rng):
    """A random 2..6 square matrix whose eigenvalues are not real."""
    n = int(rng.integers(2, 7))
    d = np.diag(rng.standard_normal(n)
                + 1j * rng.uniform(0.5, 2.0, n)
                * np.where(rng.random(n) < 0.5, -1.0, 1.0))
    v = _complex_normal(rng, (n, n))
    return v @ d @ np.linalg.inv(v)


def suite_symbols(trials=_TRIALS, seed=0):
    rng = np.random.default_rng(seed)
    rec = []
    idem = comm = oracle = 0.0
    for _ in range(trials):
        rho = _random_rho(rng)
        cplus = sy.calderon_symbol(rho)
        idem = max(idem, np.linalg.norm(cplus @ cplus - cplus))
        comm = max(comm, np.linalg.norm(cplus @ rho - rho @ cplus)
                   / max(1.0, np.linalg.norm(rho)))
        evals, evecs = np.linalg.eig(rho)
        vinv = np.linalg.inv(evecs)
        proj = np.zeros(rho.shape, dtype=complex)
        for j in range(len(rho)):
            if evals[j].imag < 0:
                proj += np.outer(evecs[:, j], vinv[j])
        oracle = max(oracle, np.linalg.norm(cplus - proj))
    _check(rec, "symbols", "calderon_idempotent", idem, 1e-9)
    _check(rec, "symbols", "calderon_commutes", comm, 1e-9)
    _check(rec, "symbols", "calderon_residue_oracle", oracle, 1e-8)

    swap_gap = 0.0
    for _ in range(trials // 2):
        rho = _random_rho(rng)
        lo1, up1 = sy.spectral_split(rho)
        lo2, _ = sy.spectral_split(-rho)
        swap_gap = max(swap_gap, up1.gap(lo2))
    _check(rec, "symbols", "splitting_swaps_under_negation", swap_gap, 1e-9)

    graph_gap = 0.0
    trans_fail = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        tb = _complex_normal(rng, (n, n))
        tb = 0.5 * (tb - tb.conj().T)
        evs = np.linalg.eigvalsh(1j * tb)
        if np.min(np.abs(evs)) < 0.2:
            tb = tb + 1j * (0.3 + np.min(np.abs(evs))) * np.eye(n)
            if np.min(np.abs(np.linalg.eigvalsh(1j * tb))) < 1e-6:
                continue
        point = sy.SymbolPoint.dirac(tb)
        lower, _ = sy.spectral_split(point.rho)
        ups = sy.dirac_unitary(tb)
        graph_gap = max(graph_gap,
                        rs.LinearRelation.graph_of(ups).graph.gap(lower))
        if not sy.transversality_check(point)["transversal"]:
            trans_fail = 1.0
    _check(rec, "symbols", "dirac_graph_is_lower_splitting", graph_gap, 1e-9)
    _check(rec, "symbols", "dirac_transversality", trans_fail, 0.5)

    sig = np.array([[0, 1], [1, 0]], dtype=complex)
    ups = 1j * sig
    phi, phi_inv = sy.mixing_map(ups, sigma=sig)
    _check(rec, "symbols", "mixing_map_roundtrip",
           np.linalg.norm(phi @ phi_inv - np.eye(4)), 1e-13)
    _check(rec, "symbols", "graph_condition_selfadjoint",
           sy.graph_condition_selfadjoint_gap(ups, sig), 1e-12)
    lag_iff = 0.0
    for _ in range(trials // 2):
        m = _complex_normal(rng, (2, 2))
        herm = m + m.conj().T
        img = rs.map_relation(phi_inv, rs.LinearRelation.graph_of(herm))
        lag_iff = max(lag_iff, sy.split_form_lagrangian_gap(img, sig))
    _check(rec, "symbols", "mixing_preserves_lagrangian", lag_iff, 1e-9)

    theta = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    taus = []
    for t in theta:
        tb = np.array([[1j * (2 + math.cos(t)), math.sin(t)],
                       [-math.sin(t), 1j * (2 - math.cos(t))]], dtype=complex)
        taus.append(0.5 * (tb - tb.conj().T))
    report = sy.split_winding_report(taus)
    _check(rec, "symbols", "sum_index_additivity",
           abs(report["additivity_defect"]), 0.5)
    _check(rec, "symbols", "sum_index_total_zero", abs(report["total"]), 0.5)
    return rec


def suite_famindex(trials=_TRIALS, seed=0):
    """Fixed loops and one Robin index comparison; `trials` is not read."""
    rng = np.random.default_rng(seed)
    rec = []
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    scalar = [np.array([[np.exp(1j * t)]]) for t in theta]
    _check(rec, "famindex", "scalar_loop_winding",
           abs(fi.det_winding(scalar) - 1), 0.5)
    constant = [np.eye(2, dtype=complex) for _ in theta]
    _check(rec, "famindex", "constant_loop_winding",
           abs(fi.det_winding(constant)), 0.5)
    sums = [np.diag([np.exp(1j * t), np.exp(-2j * t)]) for t in theta]
    _check(rec, "famindex", "direct_sum_additivity",
           abs(fi.det_winding(sums) - (1 - 2)), 0.5)

    # reparameterization invariance and reversal
    squash = [np.array([[np.exp(1j * (t + 0.3 * math.sin(t)))]])
              for t in theta]
    _check(rec, "famindex", "reparameterization_invariance",
           abs(fi.det_winding(squash) - 1), 0.5)
    reverse = [scalar[0]] + scalar[:0:-1]
    _check(rec, "famindex", "reversal_negates",
           abs(fi.det_winding(reverse) + 1), 0.5)

    # conjugation invariance of a relation loop
    h1 = _complex_normal(rng, (2, 2))
    h1 = h1 + h1.conj().T

    def relation_loop(rels, rel_of):
        return fi.relation_family_index(fi.FamilyLoop(
            list(theta), rels, generator=rel_of))

    def robin(t):
        return sturm.robin_relation(sturm.kappa_of_theta(t))

    robin_loop = sturm.robin_relations([sturm.kappa_of_theta(t)
                                        for t in theta])

    def conjugated(t):
        evals, evecs = np.linalg.eigh(math.sin(t) * h1)
        w = evecs @ np.diag(np.exp(1j * evals)) @ evecs.conj().T
        lmap = np.zeros((4, 4), dtype=complex)
        lmap[:2, :2] = w
        lmap[2:, 2:] = w
        return rs.map_relation(lmap, robin(t))

    _check(rec, "famindex", "conjugation_invariance",
           abs(relation_loop([conjugated(t) for t in theta], conjugated)
               - relation_loop(robin_loop, robin)), 0.5)

    # shifting a relation family by a constant Hermitian matrix
    shift = _complex_normal(rng, (2, 2))
    shift = shift + shift.conj().T
    windings = set()
    for tpar in (0.0, 0.25, 0.5, 0.75, 1.0):
        smap = np.eye(4, dtype=complex)
        smap[2:, :2] = -tpar * shift

        def shifted(t, smap=smap):
            return rs.map_relation(smap, robin(t))

        windings.add(relation_loop(rs.map_relations(smap, robin_loop),
                                   shifted))
    # every shift keeps the Robin loop's winding, +1
    _check(rec, "famindex", "weyl_shift_homotopy_invariance",
           0.0 if windings == {1} else 1.0, 0.5)

    report = fi.verify_index_theorem(samples=240)
    _check(rec, "famindex", "index_theorem_consistency",
           0.0 if (report.consistent and report.winding == 1) else 1.0,
           0.5)
    cross = report.crossing_kappa
    _check(rec, "famindex", "crossing_at_unit_parameter",
           math.inf if cross is None else abs(cross - 1.0), 1e-10)
    return rec


SUITES = {
    "relspace": suite_relspace,
    "cayley": suite_cayley,
    "gelfand": suite_gelfand,
    "triplet": suite_triplet,
    "sturm": suite_sturm,
    "symbols": suite_symbols,
    "famindex": suite_famindex,
}


def run_suite(name, trials=_TRIALS, seed=0):
    """Run one suite, or all of them, and return the list of check records."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES)} or 'all'")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    names = SUITES if name == "all" else [name]
    return [record for key in names
            for record in SUITES[key](trials=trials, seed=seed)]


def all_pass(records):
    return all(r["pass"] for r in records)
