"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

from tripletflow import cayley as cy
from tripletflow import cli
from tripletflow import famindex as fi
from tripletflow import gelfand as gf
from tripletflow import relspace as rs
from tripletflow import sturm
from tripletflow import symbols as sy
from tripletflow import triplet as tp
from tripletflow import verify as vf


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label}" +
          (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {label} {detail}"


def test_criterion_1_rellich_index(tmp_path):
    start = time.time()
    code = cli.main(["rellich", "--samples", "720", "--out", str(tmp_path)])
    elapsed = time.time() - start
    report = json.loads((tmp_path / "rellich_report.json").read_text())
    ok = (code == 0 and report["consistent"]
          and abs(report["spectral_flow"]) == 1
          and abs(report["winding"]) == 1
          and report["spectral_flow"] == report["winding"]
          and elapsed <= 10.0)
    _report(1, "Robin-family index: flow = winding, magnitude 1", ok,
            f"flow={report['spectral_flow']} winding={report['winding']} "
            f"runtime={elapsed:.2f}s")


def test_criterion_2_weyl_matrix_closed_form():
    m0 = sturm.rellich_dtn_matrix()
    resid = np.linalg.norm(m0 - np.array([[-1.0, 1.0], [1.0, -1.0]]))
    _report(2, "zero-point Weyl matrix [[-1,1],[1,-1]]", resid <= 1e-12,
            f"residual={resid:.2e}")


def test_criterion_3_secular_limits_and_crossing():
    eig_d = sturm.secular_eigenvalues(math.inf)
    rel_d = max(abs(eig_d[n - 1] - (n * math.pi) ** 2) / (n * math.pi) ** 2
                for n in range(1, 6))
    eig_n = sturm.secular_eigenvalues(0.0)
    rel_n = max(abs(eig_n[n - 1] - ((n - 0.5) * math.pi) ** 2)
                / ((n - 0.5) * math.pi) ** 2 for n in range(1, 6))
    report = fi.verify_index_theorem(samples=720)
    cross = abs(report.crossing_kappa - 1.0)
    ok = (rel_d <= 1e-10 and rel_n <= 1e-10
          and cross <= 2 * np.spacing(1.0))
    _report(3, "secular limits and level-zero crossing", ok,
            f"dirichlet={rel_d:.2e} neumann={rel_n:.2e} crossing={cross:.2e}")


def test_criterion_4_negative_branch_oracle():
    lo, hi = 1.0, 3.0

    def f(s):
        return math.tanh(s) - 0.5 * s

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    s_star = 0.5 * (lo + hi)
    lam_oracle = -(s_star ** 2)
    lam = sturm.secular_eigenvalues(2.0)[0]
    diff = abs(lam - lam_oracle)
    ok = diff <= 1e-8 and abs(s_star - 1.9150) < 5e-4 \
        and abs(lam_oracle + 3.6672) < 5e-4
    _report(4, "negative eigenvalue against hyperbolic bisection oracle", ok,
            f"lambda={lam:.6f} diff={diff:.2e}")


def test_criterion_5_cayley_factorization_suite():
    rng = np.random.default_rng(1905)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        defect = int(rng.integers(1, min(3, dim - 1) + 1))
        model = cy.random_symmetric_model(rng, dim, defect)
        brel = cy.random_selfadjoint_relation(rng, defect)
        r_plus, r_minus = cy.cayley_factorization_check(model, brel)
        worst = max(worst, r_plus, r_minus)
    _report(5, "200 random models: both Cayley factorizations", worst <= 1e-9,
            f"max residual={worst:.2e}")


def test_criterion_6_von_neumann_suite():
    rng = np.random.default_rng(1906)
    worst_recon = 0.0
    worst_lagr = 0.0
    for _ in range(200):
        model = cy.random_symmetric_model(rng, int(rng.integers(2, 9)),
                                          int(rng.integers(1, 3)))
        basis = model.Tstar.graph.basis
        z = basis @ (rng.standard_normal(basis.shape[1])
                     + 1j * rng.standard_normal(basis.shape[1]))
        x = basis @ (rng.standard_normal(basis.shape[1])
                     + 1j * rng.standard_normal(basis.shape[1]))
        split = cy.von_neumann_components(model, z)
        worst_recon = max(worst_recon, split.reconstruction_residual
                          / max(1.0, np.linalg.norm(z)))
        worst_lagr = max(worst_lagr, cy.lagrange_residual(model, x, z)
                         / max(1.0, np.linalg.norm(x) * np.linalg.norm(z)))
    ok = worst_recon <= 1e-10 and worst_lagr <= 1e-10
    _report(6, "200 random splits: reconstruction and Lagrange residuals", ok,
            f"recon={worst_recon:.2e} lagrange={worst_lagr:.2e}")


def test_criterion_7_gelfand_suite():
    rng = np.random.default_rng(1907)
    worst_shift = 0.0
    worst_iso = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        triple = gf.build_triple(a @ a.conj().T + n * np.eye(n),
                                 b @ b.conj().T + n * np.eye(n))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = max(1.0, np.linalg.norm(x) * np.linalg.norm(y))
        worst_shift = max(worst_shift,
                          gf.shift_identity_residual(triple, y, x) / scale)
        worst_iso = max(worst_iso, abs(
            triple.inner_K(triple.lam @ x, triple.lam @ y)
            - triple.inner_partial(x, y)) / scale)
    ok = worst_shift <= 1e-10 and worst_iso <= 1e-10
    _report(7, "100 random triples: shift identity and isometry", ok,
            f"shift={worst_shift:.2e} isometry={worst_iso:.2e}")


def _triplet_problems():
    rng = np.random.default_rng(1908)
    problems = []
    for dim, defect in ((4, 1), (6, 2), (7, 3)):
        model = cy.random_symmetric_model(rng, dim, defect)
        d = model.defect
        e_mat = (rng.standard_normal((d, d))
                 + 1j * rng.standard_normal((d, d)) + 2 * np.eye(d))
        h_mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h_mat = h_mat + h_mat.conj().T
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        problems.append(tp.MatrixBoundaryProblem(
            model, gram_small=g @ g.conj().T + d * np.eye(d),
            mix=(e_mat, h_mat)))
    problems.append(sturm.RellichBoundaryProblem())
    return problems, rng


def test_criterion_8_reduced_triplet_suite():
    problems, rng = _triplet_problems()
    worst = {"proj": 0.0, "ker": 0.0, "lagr": 0.0, "neum": 0.0,
             "cmp": 0.0, "herm": 0.0}
    for bp in problems:
        rt = tp.reduced_triplet(bp)
        res = tp.reduced_residuals(rt, rng)
        worst["proj"] = max(worst["proj"], res["gamma1_bold_vs_projection"])
        worst["lagr"] = max(worst["lagr"], res["standard_lagrange"])
        for chk in tp.kernel_report(rt, rng):
            worst["ker"] = max(worst["ker"], chk["residual"])
        worst["neum"] = max(worst["neum"], tp.neumann_graph_check(rt))
        comparison = tp.compare_triplets(rt, rng)
        worst["cmp"] = max(worst["cmp"],
                           comparison.residuals["first_trace_match"],
                           comparison.residuals["second_trace_match"],
                           comparison.residuals["intertwiner_blocks"])
        worst["herm"] = max(worst["herm"],
                            comparison.residuals["p_hermitian_defect"])
    ok = (worst["proj"] <= 1e-9 and worst["ker"] <= 1e-8
          and worst["lagr"] <= 1e-9 and worst["neum"] <= 1e-8
          and worst["cmp"] <= 1e-9 and worst["herm"] <= 1e-9)
    _report(8, "reduced triplet on finite and interval realizations", ok,
            " ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_9_index_theorem_equality():
    reports = [
        fi.verify_index_theorem(samples=720),
        fi.robin_index_report(
            lambda th: sturm.kappa_of_theta((2.0 * th) % (2 * math.pi)),
            samples=1440),
        fi.robin_index_report(
            lambda th: sturm.kappa_of_theta(
                (2 * math.pi - th) % (2 * math.pi)), samples=720),
    ]
    ok = all(r.consistent for r in reports)
    values = [r.winding for r in reports]
    ok = ok and values[0] == 1 and values[1] == 2 and values[2] == -1
    records = vf.run_suite("famindex", seed=42)
    names = ("conjugation_invariance", "weyl_shift_homotopy_invariance")
    ok = ok and all(r["pass"] for r in records if r["name"] in names)
    _report(9, "flow equals winding on the Robin loop and two synthetic "
               "loops; invariance suites", ok,
            f"values={values}")


def test_criterion_10_symbol_suite():
    rng = np.random.default_rng(1910)
    idem = comm = oracle = graph_gap = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        d = np.diag(rng.standard_normal(n)
                    + 1j * rng.uniform(0.5, 2.0, n)
                    * np.where(rng.random(n) < 0.5, -1.0, 1.0))
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = v @ d @ np.linalg.inv(v)
        cplus = sy.calderon_symbol(rho)
        idem = max(idem, np.linalg.norm(cplus @ cplus - cplus))
        comm = max(comm, np.linalg.norm(cplus @ rho - rho @ cplus)
                   / max(1.0, np.linalg.norm(rho)))
        evals, evecs = np.linalg.eig(rho)
        vinv = np.linalg.inv(evecs)
        proj = np.zeros((n, n), dtype=complex)
        for j in range(n):
            if evals[j].imag < 0:
                proj += np.outer(evecs[:, j], vinv[j])
        oracle = max(oracle, np.linalg.norm(cplus - proj))
    count = 0
    while count < 50:
        n = int(rng.integers(1, 6))
        tb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tb = 0.5 * (tb - tb.conj().T)
        if np.min(np.abs(np.linalg.eigvalsh(1j * tb))) < 0.2:
            continue
        count += 1
        lower, _ = sy.spectral_split(sy.SymbolPoint.dirac(tb).rho)
        graph_gap = max(graph_gap, rs.LinearRelation.graph_of(
            sy.dirac_unitary(tb)).graph.gap(lower))
    theta = np.linspace(0, 2 * math.pi, 48, endpoint=False)
    taus = [np.diag([1j * (2 + math.sin(t)), -1j * (1.5 + math.cos(t))])
            for t in theta]
    grads = [np.diag([1j, -1j]) for _ in theta]
    additivity = sy.split_winding_report(taus, grads)["additivity_defect"]
    flat = sy.split_winding_report(
        [0.5 * (tb - tb.conj().T) for tb in
         (np.array([[1j * (2 + math.cos(t)), math.sin(t)],
                    [-math.sin(t), 1j * (2 - math.cos(t))]], dtype=complex)
          for t in theta)])
    ok = (idem <= 1e-9 and comm <= 1e-9 and oracle <= 1e-8
          and graph_gap <= 1e-9 and additivity == 0
          and flat["total"] == 0 and flat["additivity_defect"] == 0)
    _report(10, "symbol suite: projector, oracle, graded graph, additivity",
            ok, f"idem={idem:.2e} comm={comm:.2e} oracle={oracle:.2e} "
                f"graph={graph_gap:.2e}")
