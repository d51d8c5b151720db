"""Reduced boundary triplets from a model with trace maps.

A boundary problem carries a maximal domain with an action, two trace maps
into the boundary coordinates, an invertible reference extension whose
domain is the kernel of the first trace, and a Gelfand triple on the
boundary space.  From these the module assembles the projection onto the
reference domain, the solution map of the kernel, the Dirichlet-to-Neumann
operator at spectral point zero, the corrected second trace and the reduced
boundary triplet, and it compares the latter with the deficiency-space
triplet of the same model.

Two realizations implement the carrier interface: exact finite-dimensional
models built from a symmetric relation (`MatrixBoundaryProblem` here) and
the exact interval model from `sturm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cayley as _cayley
from .gelfand import GelfandTriple, build_triple
from .relspace import (LinearRelation, RelationStack, Subspace,
                       _hermitian_part, _null_space, map_relations)

__all__ = [
    "MatrixBoundaryProblem",
    "regular_kernel_split",
    "KernelSolutionMap",
    "kernel_solution_map",
    "dirichlet_to_neumann",
    "ReducedTriplet",
    "reduced_triplet",
    "reduced_residuals",
    "kernel_report",
    "transform_boundary_condition",
    "transform_boundary_conditions",
    "neumann_graph_check",
    "TripletComparison",
    "compare_triplets",
    "boundary_condition_domain",
]


class MatrixBoundaryProblem:
    """Finite-dimensional boundary problem built from a symmetric model.

    Elements of the maximal domain are stacked pairs (z, z') of length 2n
    belonging to the adjoint relation.  The raw trace maps are the
    deficiency-triplet boundary values, optionally recombined by an
    invertible map E and a Hermitian shear H (which preserves the Lagrange
    identity), and the boundary Gelfand triple may carry a nontrivial Gram
    on the small space.
    """

    def __init__(self, model, gram_small=None, mix=None):
        if model.mu != 1j:
            raise ValueError("boundary problems are built at mu = i")
        self.model = model
        basis, g0, g1 = _cayley.boundary_data(model)
        self._pair_basis = basis
        self._g0_inner = g0
        self._g1_inner = g1
        d = model.kminus.dim
        self.boundary_dim = d
        if mix is None:
            self._g0 = g0
            self._g1 = g1
        else:
            e_mat, h_mat = mix
            e_mat = np.asarray(e_mat, dtype=complex)
            h_mat = np.asarray(h_mat, dtype=complex)
            # checked only: g1 uses the shear as given
            _hermitian_part(h_mat, 1e-12, "shear block must be Hermitian")
            self._g0 = e_mat @ g0
            self._g1 = np.linalg.inv(e_mat.conj().T) @ (h_mat @ g0 + g1)
        gram = np.eye(d) if gram_small is None else gram_small
        self.triple = build_triple(gram, np.eye(d))
        # reference solve: A = graph of an invertible relation
        ya = model.A.cod_block()
        self._a_dom = model.A.dom_block()
        self._a_cod_inv = np.linalg.inv(ya)

    # -- element operations ------------------------------------------------
    @property
    def dim(self):
        return self.model.dim

    def _coords(self, u):
        return self._pair_basis.conj().T @ u

    def action(self, u):
        return u[self.dim:]

    def lagrange_form(self, u, v):
        n = self.dim
        return (complex(np.vdot(v[:n], u[n:]))
                - complex(np.vdot(v[n:], u[:n])))

    def gamma0(self, u):
        return self._g0 @ self._coords(u)

    def gamma1(self, u):
        return self._g1 @ self._coords(u)

    def project_regular(self, u):
        rhs = u[self.dim:]
        coeff = self._a_cod_inv @ rhs
        return np.concatenate([self._a_dom @ coeff, rhs])

    @staticmethod
    def element_norm(u):
        return float(np.linalg.norm(u))

    # -- distinguished elements ---------------------------------------------
    def kernel_basis(self):
        kern = self.model.Tstar.kernel_at(0.0)
        zero = np.zeros_like(kern.basis)
        return [np.concatenate([kern.basis[:, j], zero[:, j]])
                for j in range(kern.dim)]

    def minimal_domain_elements(self):
        b = self.model.T.graph.basis
        return [b[:, j] for j in range(b.shape[1])]

    def gamma1_kernel_elements(self):
        coeff = _null_space(self._g1)
        b = self._pair_basis @ coeff
        return [b[:, j] for j in range(b.shape[1])]

    def test_elements(self, rng, count):
        b = self._pair_basis
        out = [b[:, j] for j in range(b.shape[1])]
        while len(out) < count:
            c = rng.standard_normal(b.shape[1]) + 1j * rng.standard_normal(
                b.shape[1])
            out.append(b @ c)
        return out[:count]

    # -- deficiency triplet ----------------------------------------------------
    def inner_boundary_maps(self):
        def gamma(u):
            c = self._coords(u)
            return self._g0_inner @ c, self._g1_inner @ c

        return gamma

    # -- coefficient view for exact subspace checks -----------------------------
    def coefficient_view(self):
        """Pair basis plus trace matrices acting on coefficient vectors."""
        return self._pair_basis, self._g0, self._g1


# ---------------------------------------------------------------------------
# generic assembly
# ---------------------------------------------------------------------------

def regular_kernel_split(bp, u):
    """Split u = p(u) + k(u) with p(u) in the reference domain and k(u) in
    the kernel of the action; p is idempotent."""
    p = bp.project_regular(u)
    return p, u - p


@dataclass
class KernelSolutionMap:
    """Right inverse of the first trace on the kernel of the action."""

    elements: list
    trace0_matrix: np.ndarray
    trace1_matrix: np.ndarray
    solve_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.trace0_matrix.shape[0]
        if self.trace0_matrix.shape != (d, d):
            raise np.linalg.LinAlgError(
                "first trace is not square on the kernel: the reference "
                "extension has nontrivial kernel")
        self.solve_matrix = np.linalg.inv(self.trace0_matrix)

    def __call__(self, coords):
        if not self.elements:
            raise ValueError("the kernel solution map is empty")
        weights = self.solve_matrix @ np.asarray(coords, dtype=complex)
        out = weights[0] * self.elements[0]
        for w, k in zip(weights[1:], self.elements[1:]):
            out = out + w * k
        return out


def _columns(rows, d, parts):
    """Per-element tuples of d-vectors as one d x m matrix per part."""
    if not rows:
        return tuple(np.zeros((d, 0), dtype=complex) for _ in range(parts))
    return tuple(np.column_stack(part) for part in zip(*rows))


def _raw_traces(bp, elems):
    """(Gamma0, Gamma1) of the elements, one column each."""
    return _columns([(bp.gamma0(u), bp.gamma1(u)) for u in elems],
                    bp.boundary_dim, 2)


def kernel_solution_map(bp):
    kern = bp.kernel_basis()
    return KernelSolutionMap(kern, *_raw_traces(bp, kern))


def dirichlet_to_neumann(bp):
    """Weyl operator at spectral point zero: second trace of the kernel
    solution with prescribed first trace."""
    return reduced_triplet(bp).dtn


@dataclass
class ReducedTriplet:
    """Corrected boundary maps forming a genuine boundary triplet.

    `kernel` is the solution map of the kernel of the action, solved once
    per triplet; the Dirichlet-to-Neumann operator `dtn` is read off it.
    """

    bp: object
    kernel: KernelSolutionMap
    triple: GelfandTriple
    dtn: np.ndarray = field(init=False)

    def __post_init__(self):
        self.dtn = self.kernel.trace1_matrix @ self.kernel.solve_matrix

    def _reduce(self, g0, g1):
        """(gamma0_bar, gamma1_bold, gamma1_bar) = (Lam' g0, g1 - M g0,
        Lam^-1 (g1 - M g0)) of a pair of trace vectors or matrices."""
        bold = g1 - self.dtn @ g0
        return self.triple.lam_prime @ g0, bold, self.triple.lam_inv @ bold

    def gamma0_bar(self, u):
        return _trace_table(self, [u])[0][:, 0]

    def gamma1_bold(self, u):
        return _trace_table(self, [u])[1][:, 0]

    def gamma1_bar(self, u):
        return _trace_table(self, [u])[2][:, 0]


def reduced_triplet(bp):
    return ReducedTriplet(bp, kernel_solution_map(bp), bp.triple)


def _trace_table(rt, elems):
    """(gamma0_bar, gamma1_bold, gamma1_bar) of the elements by column, each
    element's traces evaluated once and reduced alone: one product over all
    columns differs from the one-element maps in the last bits."""
    bp = rt.bp
    return _columns([rt._reduce(bp.gamma0(u), bp.gamma1(u)) for u in elems],
                    bp.boundary_dim, 3)


def _column_norms(mat, norms):
    """Worst column norm of mat, each relative to max(1, norms[j])."""
    return max((float(np.linalg.norm(mat[:, j])) / max(1.0, norm)
                for j, norm in enumerate(norms)), default=0.0)


def _projection_defects(bp, elems, norms, bold):
    """Worst |Gamma0 p(u)| and |gamma1_bold(u) - Gamma1 p(u)|, each over
    max(1, |u|), with p the regular projection, |u| in `norms`."""
    g0p, g1p = _raw_traces(bp, [bp.project_regular(u) for u in elems])
    return _column_norms(g0p, norms), _column_norms(bold - g1p, norms)


def reduced_residuals(rt, rng):
    """Residuals of the defining identities of the reduced triplet of the
    boundary problem `rt.bp`, on max(8, 2d) test elements drawn from rng,
    with d the boundary dimension.

    Returns a dict with: the defect of the corrected trace against the trace
    of the regular projection, the standard-form Lagrange defect of the
    barred maps, the surjectivity margin of the combined trace, and the
    vanishing of the corrected trace on the reference kernel.  The margin
    is the 2d-th singular value of the combined trace on the test
    elements, of which there are at least 2d, and math.inf on a zero
    boundary space (d = 0), onto which every map is surjective.
    """
    bp = rt.bp
    d = bp.boundary_dim
    elems = bp.test_elements(rng, max(8, 2 * d))
    norms = [bp.element_norm(u) for u in elems]
    bar0, bold, bar1 = _trace_table(rt, elems)
    _, proj_res = _projection_defects(bp, elems, norms, bold)
    # contiguous rows: vdot of a strided column differs in the last bits
    rows0, rows1 = np.ascontiguousarray(bar0.T), np.ascontiguousarray(bar1.T)
    gp = rt.triple.gram_partial
    lagr_res = 0.0
    for i, u in enumerate(elems):
        gp0, gp1 = gp @ rows0[i], gp @ rows1[i]
        for j, v in enumerate(elems):
            pairing = (complex(np.vdot(rows0[j], gp1))
                       - complex(np.vdot(rows1[j], gp0)))
            lagr_res = max(lagr_res, abs(bp.lagrange_form(u, v) - pairing)
                           / max(1.0, norms[i] * norms[j]))
    svals = np.linalg.svd(np.vstack([bar0, bar1]), compute_uv=False)
    # onto the zero boundary space: vacuously surjective
    surj_margin = float(svals[2 * d - 1]) if d else math.inf
    kern = rt.kernel.elements
    kern_res = _column_norms(_trace_table(rt, kern)[1], [1.0] * len(kern))
    return {
        "gamma1_bold_vs_projection": proj_res,
        "standard_lagrange": lagr_res,
        "surjectivity_margin": surj_margin,
        "gamma1_bold_on_kernel": kern_res,
    }


def kernel_report(rt, rng):
    """Checks of the kernel identities of the corrected trace of the
    boundary problem `rt.bp`.

    The corrected second trace vanishes on the minimal domain and on the
    kernel of the action; conversely, for every test element the regular
    projection has vanishing first trace and carries the whole corrected
    trace, which pins Ker of the corrected trace to their direct sum;
    there are 10 test elements.  On finite models the same identities are
    also verified as honest subspace gaps in coefficient space.
    """
    bp = rt.bp
    checks = []

    def record(name, residual):
        checks.append({"name": name, "residual": float(residual),
                       "pass": bool(residual <= 1e-8)})

    for name, elems in (("minimal_domain", bp.minimal_domain_elements()),
                        ("kernel", rt.kernel.elements)):
        record(f"corrected_trace_vanishes_on_{name}",
               _column_norms(_trace_table(rt, elems)[1],
                             [bp.element_norm(u) for u in elems]))
    elems = bp.test_elements(rng, 10)
    res0, res1 = _projection_defects(bp, elems,
                                     [bp.element_norm(u) for u in elems],
                                     _trace_table(rt, elems)[1])
    record("projection_has_dirichlet_trace_zero", res0)
    record("projection_carries_corrected_trace", res1)

    if hasattr(bp, "coefficient_view"):
        basis, g0, g1 = bp.coefficient_view()
        _, g1_bold, _ = rt._reduce(g0, g1)
        m = basis.shape[1]
        ker_bold = Subspace.from_span(_null_space(g1_bold), ambient_dim=m)
        t_coeff = basis.conj().T @ bp.model.T.graph.basis
        (kern,) = _columns([(k,) for k in rt.kernel.elements],
                           basis.shape[0], 1)
        k_coeff = basis.conj().T @ kern
        span = Subspace.from_span(np.hstack([t_coeff, k_coeff]),
                                  ambient_dim=m)
        record("kernel_of_corrected_trace_gap", ker_bold.gap(span))
        ker_both = Subspace.from_span(_null_space(np.vstack([g0, g1_bold])),
                                      ambient_dim=m)
        t_sub = Subspace.from_span(t_coeff, ambient_dim=m)
        record("joint_kernel_equals_minimal_domain_gap", ker_both.gap(t_sub))
    return checks


def transform_boundary_conditions(rt, rels):
    """Rewrite boundary conditions of equal shape for the reduced triplet.

    The Dirichlet-to-Neumann operator is subtracted from the second
    component of each relation, and the result is pushed through the
    triple isometries Lambda' (+) Lambda^-1, each step one `map_relations`
    call, which checks its map for invertibility once and orthonormalizes
    all image graphs by one stacked SVD.  On a triple whose isometry map
    is the identity, as for the Rellich problem, the second step is
    skipped.  The two maps are not composed into one: where a large
    Dirichlet-to-Neumann operator makes the sheared graphs ill-conditioned,
    their image under the product is less accurate, by up to about the
    condition number of the isometry map, than that of the two steps with
    the orthonormalization between them.
    The relations, a sequence or a RelationStack, come back as a
    RelationStack.  There is no restriction step: the restriction to the
    full small space is the relation itself, whose graph basis is already
    orthonormal.  Relations of different shapes, no relations, or
    relations outside C^d + C^d raise ValueError.
    """
    d = rt.triple.dim
    # map_relations rejects mixed shapes and no relations; a stack gives
    # its space without building its first member
    if len(rels):
        first = rels if isinstance(rels, RelationStack) else rels[0]
        if (first.dom_dim, first.cod_dim) != (d, d):
            raise ValueError("boundary relation does not match the triple")
    shear = np.eye(2 * d, dtype=complex)
    shear[d:, :d] = -rt.dtn
    shifted = map_relations(shear, rels)
    shift_map = rt.triple.shift_map
    if np.array_equal(shift_map, np.eye(2 * d)):
        return shifted
    return map_relations(shift_map, shifted)


def transform_boundary_condition(rt, rel):
    """Rewrite a boundary condition for the reduced triplet: the
    single-relation form of `transform_boundary_conditions`."""
    return transform_boundary_conditions(rt, [rel])[0]


def neumann_graph_check(rt):
    """Gap between the reduced boundary relation of the second-trace kernel
    of `rt.bp` and the graph of the negated, triple-conjugated
    Dirichlet-to-Neumann operator."""
    bp = rt.bp
    bar0, _, bar1 = _trace_table(rt, bp.gamma1_kernel_elements())
    d = bp.boundary_dim
    actual = LinearRelation.from_span(d, d, np.vstack([bar0, bar1]))
    expected_mat = -rt.triple.lam_inv @ rt.dtn @ np.linalg.inv(
        rt.triple.lam_prime)
    expected = LinearRelation.graph_of(expected_mat)
    return actual.gap(expected)


@dataclass
class TripletComparison:
    """Unique intertwiner data between the reduced and deficiency triplets."""

    d_matrix: np.ndarray
    p_matrix: np.ndarray
    residuals: dict


def compare_triplets(rt, rng):
    """The isomorphism D and self-adjoint block P relating the reduced
    triplet to the deficiency triplet of the same model `rt.bp`, checked
    on 12 test elements drawn from rng.

    The reduced and deficiency traces satisfy gamma0_bar = D^-1 Gamma0 and
    gamma1_bar = D* Gamma1 + P gamma0_bar, and gamma1_bar vanishes on the
    kernel of the action, so both D and P are read off the kernel solve:
    D = Gamma0(K) gamma0_bar(K)^-1 and P = -D* Gamma1(K) gamma0_bar(K)^-1.
    The test elements check both relations; the Hermitian defect of P is
    reported, not enforced.
    """
    bp = rt.bp
    inner_gamma = bp.inner_boundary_maps()
    d = bp.boundary_dim
    kern = rt.kernel.elements
    g0_in_k, g1_in_k = _columns([inner_gamma(k) for k in kern], d, 2)
    bar0_k_inv = np.linalg.inv(_trace_table(rt, kern)[0])
    d_matrix = g0_in_k @ bar0_k_inv

    gp = rt.triple.gram_partial
    d_star = np.linalg.solve(gp, d_matrix.conj().T)
    p_matrix = -d_star @ g1_in_k @ bar0_k_inv

    elems = bp.test_elements(rng, 12)
    g0_in, g1_in = _columns([inner_gamma(u) for u in elems], d, 2)
    g0_bar, _, g1_bar = _trace_table(rt, elems)

    d_inv = np.linalg.inv(d_matrix)
    scale = max(1.0, np.linalg.norm(g1_bar), np.linalg.norm(g0_bar))
    res_first = np.linalg.norm(g0_bar - d_inv @ g0_in) / scale
    res_second = np.linalg.norm(
        g1_bar - d_star @ g1_in - p_matrix @ g0_bar) / scale
    herm_defect = np.linalg.norm(gp @ p_matrix - p_matrix.conj().T @ gp)

    # block consistency: fit the full intertwiner and compare its blocks
    top = np.vstack([g0_in, g1_in])
    bot = np.vstack([g0_bar, g1_bar])
    w_fit = bot @ np.linalg.pinv(top)
    res_blocks = max(
        np.linalg.norm(w_fit[:d, :d] - d_inv),
        np.linalg.norm(w_fit[:d, d:]),
        np.linalg.norm(w_fit[d:, :d] - p_matrix @ d_inv),
        np.linalg.norm(w_fit[d:, d:] - d_star),
    )
    return TripletComparison(
        d_matrix, p_matrix,
        {
            "first_trace_match": float(res_first),
            "second_trace_match": float(res_second),
            "p_hermitian_defect": float(herm_defect),
            "intertwiner_blocks": float(res_blocks),
        })


def boundary_condition_domain(rt, rel, reduced=False):
    """Coefficient subspace of the extension domain of `rt.bp` cut out by a
    boundary relation, through either the raw or the reduced maps (finite
    models)."""
    basis, g0, g1 = rt.bp.coefficient_view()
    if reduced:
        g0, _, g1 = rt._reduce(g0, g1)
    coeff, _ = _cayley._boundary_cut(g0, g1, rel.graph.complement().basis)
    return Subspace.from_span(coeff, ambient_dim=basis.shape[1])
