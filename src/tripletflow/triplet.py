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

The checks read a carrier only through element sets and their block forms.
A carrier gives its distinguished element sets (`kernel_basis`,
`minimal_domain_elements`, `gamma1_kernel_elements` and `test_elements`)
in a form of its own, a 2n x m block on the matrix model and a list on the
interval model, and takes them back in its block forms: `traces` and
`deficiency_traces`, each a pair of d x m matrices with one column per
element, `projection_traces`, the traces of the regular projections,
`element_norms` and `lagrange_matrix`, the m x m matrix of the Lagrange
form.  `combine` forms a linear combination of a set.  On the matrix model
each block form is one product on the block; the interval model evaluates
its elements one at a time behind the same methods.  `ReducedTriplet.table`
reduces the traces of a whole set at once, and the kernel basis is reduced
once per triplet, from the trace matrices of its solve.  The one-element
maps `gamma0`, `gamma1` and `project_regular` serve `regular_kernel_split`
and the one-element reduced maps `gamma0_bar`, `gamma1_bold` and
`gamma1_bar`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cayley as _cayley
from .gelfand import GelfandTriple, build_triple
from .relspace import (LinearRelation, RelationStack, Subspace, _as_matrix,
                       _check_invertible, _hermitian_part, _null_space,
                       map_relations)

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
    belonging to the adjoint relation, and an element set is one 2n x m
    block of them, one element per column.  The raw trace maps are the
    deficiency-triplet boundary values recombined by `mix` = (E, H), an
    invertible map E and a Hermitian shear H (which preserves the Lagrange
    identity), or by E = I and H = 0 without one; a non-finite, non-square
    or numerically singular E, or an H that is not Hermitian d x d, raises
    ValueError.  The boundary Gelfand triple may carry a nontrivial Gram
    on the small space.  Each block form below is one product on the
    block: the coordinates C = B^H U of the block U on the orthonormal
    basis B of the adjoint's graph, then G0 C and G1 C.
    """

    def __init__(self, model, gram_small=None, mix=None):
        if model.mu != 1j:
            raise ValueError("boundary problems are built at mu = i")
        self.model = model
        basis, g0, g1 = _cayley.boundary_data(model)
        self._pair_basis = basis
        self._coords_map = basis.conj().T
        self._g0_inner = g0
        self._g1_inner = g1
        d = model.kminus.dim
        self.boundary_dim = d
        # no mix is the identity recombination, exact bit for bit
        e_mat, h_mat = (np.eye(d), np.zeros((d, d))) if mix is None else mix
        e_mat = np.asarray(e_mat, dtype=complex)
        if e_mat.shape != (d, d) or not np.isfinite(e_mat).all():
            raise ValueError(f"recombination E must be a finite {d} x {d} "
                             "matrix")
        _check_invertible(e_mat, "recombination E must be invertible")
        h_mat = _as_matrix(h_mat, rows=d)
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

    @property
    def dim(self):
        return self.model.dim

    # -- one element -------------------------------------------------------
    def gamma0(self, u):
        return self._g0 @ (self._coords_map @ u)

    def gamma1(self, u):
        return self._g1 @ (self._coords_map @ u)

    def project_regular(self, u):
        """The regular projection of an element, or of each column of an
        element set: the element of A with the same action."""
        rhs = u[self.dim:]
        coeff = self._a_cod_inv @ rhs
        return np.concatenate([self._a_dom @ coeff, rhs])

    # -- element sets --------------------------------------------------------
    def traces(self, elems):
        """(Gamma0, Gamma1) of an element set, d x m each."""
        coords = self._coords_map @ elems
        return self._g0 @ coords, self._g1 @ coords

    def deficiency_traces(self, elems):
        """Traces of the deficiency triplet of the model, d x m each."""
        coords = self._coords_map @ elems
        return self._g0_inner @ coords, self._g1_inner @ coords

    def projection_traces(self, elems):
        """(Gamma0, Gamma1) of the regular projections of an element set."""
        return self.traces(self.project_regular(elems))

    @staticmethod
    def element_norms(elems):
        return np.linalg.norm(elems, axis=0)

    def lagrange_matrix(self, elems):
        """The m x m matrix of the Lagrange form <u_i', u_j> - <u_i, u_j'>
        of the elements u_i, u_j at (j, i)."""
        z, dz = elems[:self.dim], elems[self.dim:]
        return z.conj().T @ dz - dz.conj().T @ z

    @staticmethod
    def combine(elems, weights):
        """The element sum_j weights[j] u_j of an element set."""
        return elems @ weights

    # -- distinguished element sets --------------------------------------------
    def kernel_basis(self):
        kern = self.model.Tstar.kernel_at(0.0).basis
        return np.concatenate([kern, np.zeros_like(kern)])

    def minimal_domain_elements(self):
        return self.model.T.graph.basis

    def gamma1_kernel_elements(self):
        return self._pair_basis @ _null_space(self._g1)

    def test_elements(self, rng, count):
        """The basis of the adjoint's graph, then random combinations of
        it, count columns in all; the coefficients of each random element
        are drawn as its real part, then its imaginary part."""
        b = self._pair_basis
        m = b.shape[1]
        draws = rng.standard_normal((max(0, count - m), 2, m))
        coeff = draws[:, 0] + 1j * draws[:, 1]
        return np.hstack([b, b @ coeff.T])[:, :count]

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
    """Right inverse of the first trace on the kernel of the action.

    `elements` is the kernel basis as an element set of its boundary
    problem, `combine` that problem's linear combination of an element
    set, and the trace matrices hold its traces, one column per element.
    """

    elements: object
    trace0_matrix: np.ndarray
    trace1_matrix: np.ndarray
    combine: object
    solve_matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        d = self.trace0_matrix.shape[0]
        if self.trace0_matrix.shape != (d, d):
            raise np.linalg.LinAlgError(
                "first trace is not square on the kernel: the reference "
                "extension has nontrivial kernel")
        self.solve_matrix = np.linalg.inv(self.trace0_matrix)

    def __call__(self, coords):
        if not len(self.solve_matrix):
            raise ValueError("the kernel solution map is empty")
        weights = self.solve_matrix @ np.asarray(coords, dtype=complex)
        return self.combine(self.elements, weights)


def kernel_solution_map(bp):
    kern = bp.kernel_basis()
    return KernelSolutionMap(kern, *bp.traces(kern), bp.combine)


def dirichlet_to_neumann(bp):
    """Weyl operator at spectral point zero: second trace of the kernel
    solution with prescribed first trace."""
    return reduced_triplet(bp).dtn


@dataclass
class ReducedTriplet:
    """Corrected boundary maps forming a genuine boundary triplet.

    `kernel` is the solution map of the kernel of the action, solved once
    per triplet; the Dirichlet-to-Neumann operator `dtn` is read off it,
    and `kernel_table` is the reduced table of the kernel basis, reduced
    from the kernel's trace matrices.
    """

    bp: object
    kernel: KernelSolutionMap
    triple: GelfandTriple
    dtn: np.ndarray = field(init=False)
    kernel_table: tuple = field(init=False)

    def __post_init__(self):
        self.dtn = self.kernel.trace1_matrix @ self.kernel.solve_matrix
        self.kernel_table = self._reduce(self.kernel.trace0_matrix,
                                         self.kernel.trace1_matrix)

    def _reduce(self, g0, g1):
        """(gamma0_bar, gamma1_bold, gamma1_bar) = (Lam' g0, g1 - M g0,
        Lam^-1 (g1 - M g0)) of a pair of trace vectors or matrices."""
        bold = g1 - self.dtn @ g0
        return self.triple.lam_prime @ g0, bold, self.triple.lam_inv @ bold

    def table(self, elems):
        """(gamma0_bar, gamma1_bold, gamma1_bar) of an element set of `bp`,
        d x m each: its traces as one block, reduced as one."""
        return self._reduce(*self.bp.traces(elems))

    def _reduce_one(self, u):
        return self._reduce(self.bp.gamma0(u), self.bp.gamma1(u))

    def gamma0_bar(self, u):
        return self._reduce_one(u)[0]

    def gamma1_bold(self, u):
        return self._reduce_one(u)[1]

    def gamma1_bar(self, u):
        return self._reduce_one(u)[2]


def reduced_triplet(bp):
    return ReducedTriplet(bp, kernel_solution_map(bp), bp.triple)


def _column_norms(mat, norms):
    """Worst column norm of mat, each relative to max(1, norms[j])."""
    return float(np.max(np.linalg.norm(mat, axis=0) / np.maximum(1.0, norms),
                        initial=0.0))


def _projection_defects(bp, elems, norms, bold):
    """Worst |Gamma0 p(u)| and |gamma1_bold(u) - Gamma1 p(u)|, each over
    max(1, |u|), with p the regular projection, |u| in `norms`."""
    g0p, g1p = bp.projection_traces(elems)
    return _column_norms(g0p, norms), _column_norms(bold - g1p, norms)


def reduced_residuals(rt, rng):
    """Residuals of the defining identities of the reduced triplet of the
    boundary problem `rt.bp`, on max(8, 2d) test elements drawn from rng,
    with d the boundary dimension.

    Returns a dict with: the defect of the corrected trace against the trace
    of the regular projection, the standard-form Lagrange defect of the
    barred maps, the surjectivity margin of the combined trace, and the
    vanishing of the corrected trace on the reference kernel.  The Lagrange
    defect is the worst entry of |L - (B0^H G B1 - B1^H G B0)| over
    max(1, |u_i| |u_j|), with L the Lagrange matrix of the test elements,
    B0 and B1 their barred traces and G the Gram of the pivot space.  The
    margin is the 2d-th singular value of the combined trace on the test
    elements, of which there are at least 2d, and math.inf on a zero
    boundary space (d = 0), onto which every map is surjective.
    """
    bp = rt.bp
    d = bp.boundary_dim
    elems = bp.test_elements(rng, max(8, 2 * d))
    norms = bp.element_norms(elems)
    bar0, bold, bar1 = rt.table(elems)
    _, proj_res = _projection_defects(bp, elems, norms, bold)
    gp = rt.triple.gram_partial
    pairing = bar0.conj().T @ (gp @ bar1) - bar1.conj().T @ (gp @ bar0)
    lagr_res = float(np.max(np.abs(bp.lagrange_matrix(elems) - pairing)
                            / np.maximum(1.0, np.outer(norms, norms))))
    svals = np.linalg.svd(np.vstack([bar0, bar1]), compute_uv=False)
    # onto the zero boundary space: vacuously surjective
    surj_margin = float(svals[2 * d - 1]) if d else math.inf
    kern_res = _column_norms(rt.kernel_table[1], 1.0)
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

    minimal = bp.minimal_domain_elements()
    kern = rt.kernel.elements
    record("corrected_trace_vanishes_on_minimal_domain",
           _column_norms(rt.table(minimal)[1], bp.element_norms(minimal)))
    record("corrected_trace_vanishes_on_kernel",
           _column_norms(rt.kernel_table[1], bp.element_norms(kern)))
    elems = bp.test_elements(rng, 10)
    res0, res1 = _projection_defects(bp, elems, bp.element_norms(elems),
                                     rt.table(elems)[1])
    record("projection_has_dirichlet_trace_zero", res0)
    record("projection_carries_corrected_trace", res1)

    if hasattr(bp, "coefficient_view"):
        basis, g0, g1 = bp.coefficient_view()
        _, g1_bold, _ = rt._reduce(g0, g1)
        # SVD null-space bases are orthonormal as they come, and so are
        # T's coefficients in the orthonormal basis of T* that contains T
        ker_bold = Subspace(_null_space(g1_bold))
        t_coeff = basis.conj().T @ bp.model.T.graph.basis
        k_coeff = basis.conj().T @ kern
        span = Subspace.from_span(np.hstack([t_coeff, k_coeff]),
                                  ambient_dim=basis.shape[1])
        record("kernel_of_corrected_trace_gap", ker_bold.gap(span))
        ker_both = Subspace(_null_space(np.vstack([g0, g1_bold])))
        record("joint_kernel_equals_minimal_domain_gap",
               ker_both.gap(Subspace(t_coeff)))
    return checks


def transform_boundary_conditions(rt, rels):
    """Rewrite boundary conditions of equal shape for the reduced triplet.

    The Dirichlet-to-Neumann operator is subtracted from the second
    component of each relation, and the result is pushed through the
    triple isometries Lambda' (+) Lambda^-1, each step one `map_relations`
    call, which checks its map for invertibility by one SVD of the map
    and orthonormalizes all image graphs by one stacked QR.  On a triple
    whose isometry map is the identity, as for the Rellich problem, the
    second step is skipped.  The two maps are not composed into one: where
    a large Dirichlet-to-Neumann operator makes the sheared graphs
    ill-conditioned, their image under the product is less accurate, by up
    to about the condition number of the isometry map, than that of the
    two steps with the orthonormalization between them.
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
    bar0, _, bar1 = rt.table(bp.gamma1_kernel_elements())
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
    d = bp.boundary_dim
    g0_in_k, g1_in_k = bp.deficiency_traces(rt.kernel.elements)
    bar0_k_inv = np.linalg.inv(rt.kernel_table[0])
    d_matrix = g0_in_k @ bar0_k_inv

    gp = rt.triple.gram_partial
    d_star = np.linalg.solve(gp, d_matrix.conj().T)
    p_matrix = -d_star @ g1_in_k @ bar0_k_inv

    elems = bp.test_elements(rng, 12)
    g0_in, g1_in = bp.deficiency_traces(elems)
    g0_bar, _, g1_bar = rt.table(elems)

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
    _, g0, g1 = rt.bp.coefficient_view()
    if reduced:
        g0, _, g1 = rt._reduce(g0, g1)
    coeff, _ = _cayley._boundary_cut(g0, g1, rel.graph.complement().basis)
    # the SVD null-space basis, orthonormal as it comes
    return Subspace(coeff)
