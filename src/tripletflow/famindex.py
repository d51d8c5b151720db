"""Index engines for loops of self-adjoint relations and operator spectra.

Two computations of the circle index are provided: the winding number of
the determinant of a loop of Cayley transforms, and the spectral flow of a
loop of eigenvalue lists through a level.  Conventions, fixed once for the
whole package:

* the loop parameter increases counterclockwise over [0, 2*pi);
* an eigenvalue crossing the level upward counts +1;
* the integer attached to a unitary loop is the accumulated argument of the
  determinant divided by 2*pi.

With the Robin parameterization kappa = -tan(theta/2) both computations
report +1 for the classical Robin family on the interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import sturm
from .relspace import DEFAULT_TOL, cayley_unitary
from .triplet import reduced_triplet, transform_boundary_condition

__all__ = [
    "CONVENTION",
    "FamilyLoop",
    "IndexReport",
    "RefinementError",
    "det_winding",
    "spectral_flow",
    "relation_family_index",
    "branch_table",
    "rellich_boundary_family",
    "rellich_eigenvalue_samples",
    "verify_index_theorem",
    "robin_index_report",
]

CONVENTION = ("counterclockwise theta; upward eigenvalue crossings count +1; "
              "index = winding of det of the Cayley loop; "
              "kappa = -tan(theta/2)")


@dataclass
class FamilyLoop:
    """A sampled loop over the circle.

    Payloads are relations or eigenvalue arrays; an optional generator maps
    theta to a fresh payload and enables adaptive refinement.  Thetas must
    be strictly increasing inside [0, 2*pi); the loop closes through the
    wrap-around from the last sample back to the first.
    """

    thetas: list
    payloads: list
    generator: object = None
    orientation: int = 1

    def __post_init__(self):
        if len(self.thetas) != len(self.payloads):
            raise ValueError("thetas and payloads differ in length")
        if len(self.thetas) < 2:
            raise ValueError("a loop needs at least two samples")
        diffs = np.diff(self.thetas)
        if np.any(diffs <= 0):
            raise ValueError("thetas must be strictly increasing")
        thetas = np.asarray(self.thetas, dtype=float)
        if not np.all((thetas >= 0.0) & (thetas < 2.0 * math.pi)):
            raise ValueError("thetas must lie in [0, 2*pi)")


@dataclass
class IndexReport:
    spectral_flow: int | None
    winding: int | None
    consistent: bool
    convention: str = CONVENTION
    crossing_kappa: float | None = None

    def to_dict(self):
        out = {
            "spectral_flow": self.spectral_flow,
            "winding": self.winding,
            "consistent": self.consistent,
            "convention": self.convention,
        }
        if self.crossing_kappa is not None:
            out["crossing_kappa"] = self.crossing_kappa
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


class RefinementError(RuntimeError):
    pass


def _step_angle(u_prev, u_next):
    """Sum of principal eigenphases of the transition unitary; valid while
    the step stays well below a half turn per eigenvalue."""
    trans = u_next @ u_prev.conj().T
    return float(np.sum(np.angle(np.linalg.eigvals(trans))))


def det_winding(unitaries, thetas=None, refine=None, step_bound=0.5,
                round_tol=0.05, max_inserts=20000):
    """Winding number of det along a closed loop of unitary matrices.

    Consecutive samples must satisfy ||U_next - U_prev|| < step_bound; when a
    refinement callback (theta -> unitary) is available, offending intervals
    are bisected, otherwise an error names the worst interval.  The
    accumulated argument must land within round_tol of an integer multiple
    of 2*pi.
    """
    mats = [np.asarray(u, dtype=complex) for u in unitaries]
    if len(mats) < 2:
        raise ValueError("need at least two samples")
    if thetas is None:
        thetas = list(np.linspace(0.0, 2.0 * math.pi, len(mats),
                                  endpoint=False))
    thetas = list(thetas)
    period = 2.0 * math.pi
    total = 0.0
    inserted = 0
    count = len(mats)
    # walk pairs including the wrap (last -> first + period)
    pairs = [(i, (i + 1) % count) for i in range(count)]
    stack = [(thetas[i], thetas[j] + (period if j == 0 else 0.0),
              mats[i], mats[j]) for i, j in pairs]
    stack.reverse()
    while stack:
        t0, t1, u0, u1 = stack.pop()
        gap = np.linalg.norm(u1 - u0, 2)
        if gap >= step_bound:
            if refine is None or inserted >= max_inserts:
                raise RefinementError(
                    f"loop step too coarse on [{t0:.6f}, {t1:.6f}] "
                    f"(||dU|| = {gap:.3f}); supply more samples or a "
                    "refinement callback")
            tm = 0.5 * (t0 + t1)
            um = np.asarray(refine(tm % period), dtype=complex)
            inserted += 1
            stack.append((tm, t1, um, u1))
            stack.append((t0, tm, u0, um))
            continue
        total += _step_angle(u0, u1)
    turns = total / period
    nearest = round(turns)
    if abs(turns - nearest) > round_tol:
        raise RefinementError(
            f"accumulated determinant argument {turns:.4f} turns is not "
            f"within {round_tol} of an integer; refine the loop")
    return int(nearest)


def _window_members(values, level, window):
    vals = np.asarray(values, dtype=float)
    return vals[np.abs(vals - level) <= window]


def _match_branches(a, b, margin):
    """Greedy nearest-neighbor pairing of two sorted eigenvalue sets.

    Returns (pairs, unmatched) where pairs move less than margin and the
    unmatched list collects members of either set without a close partner.
    """
    pairs = []
    if a.size and b.size:
        order = np.argsort(np.abs(a[:, None] - b[None, :]), axis=None)
        used_a, used_b = set(), set()
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
    else:
        unmatched = list(a) + list(b)
    return pairs, unmatched


def spectral_flow(loop, level=0.0, window=None, refine=None,
                  max_inserts=20000):
    """Net number of eigenvalue branches crossing the level upward.

    `loop` is a FamilyLoop of eigenvalue arrays, or a pair (thetas, lists).
    Branches inside a window around the level are matched between
    consecutive samples by nearest neighbor; a matched pair straddling the
    level counts +1 upward or -1 downward.  Members without a close partner
    must sit near the window edge (traffic entering or leaving the window
    far from the level); anything else forces a bisection of the interval
    through the loop generator.  Values equal to the level count as below.
    """
    if isinstance(loop, FamilyLoop):
        thetas = list(loop.thetas)
        samples = [np.asarray(p, dtype=float) for p in loop.payloads]
        refine = loop.generator if refine is None else refine
    else:
        thetas, samples = loop
        thetas = list(thetas)
        samples = [np.asarray(p, dtype=float) for p in samples]
    period = 2.0 * math.pi
    if window is None:
        window = 1.0
    margin = 0.45 * window
    flow = 0
    inserted = 0
    count = len(samples)
    pairs_idx = [(i, (i + 1) % count) for i in range(count)]
    stack = [(thetas[i], thetas[j] + (period if j == 0 else 0.0),
              samples[i], samples[j]) for i, j in pairs_idx]
    stack.reverse()
    while stack:
        t0, t1, e0, e1 = stack.pop()
        a = _window_members(e0, level, window)
        b = _window_members(e1, level, window)
        pairs, unmatched = _match_branches(a, b, margin)
        stray = [lam for lam in unmatched
                 if abs(abs(lam - level) - window) > margin]
        if stray:
            if refine is None or inserted >= max_inserts:
                raise RefinementError(
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
    return flow


def relation_family_index(loop, refine=None, **kwargs):
    """Winding of the Cayley loop of a family of self-adjoint relations."""
    if isinstance(loop, FamilyLoop):
        thetas = list(loop.thetas)
        rels = list(loop.payloads)
        gen = loop.generator
    else:
        thetas, rels = loop
        gen = None
    unitaries = [cayley_unitary(r) for r in rels]
    cb = refine
    if cb is None and gen is not None:
        cb = lambda t: cayley_unitary(gen(t))
    return det_winding(unitaries, thetas=thetas, refine=cb, **kwargs)


def branch_table(thetas, kappas, eig_lists, match_tol=None):
    """Rows (theta, kappa, branch_id, lambda) with ids assigned by greedy
    nearest-neighbor continuation between consecutive samples."""
    rows = []
    next_id = 0
    prev_vals = None
    prev_ids = None
    for theta, kappa, eigs in zip(thetas, kappas, eig_lists):
        eigs = np.asarray(eigs, dtype=float)
        ids = np.full(eigs.shape, -1, dtype=int)
        if prev_vals is not None and prev_vals.size and eigs.size:
            used = set()
            order = np.argsort(np.abs(eigs[:, None] - prev_vals[None, :]),
                               axis=None)
            for flat in order:
                i, j = divmod(int(flat), prev_vals.size)
                if ids[i] >= 0 or j in used:
                    continue
                move = abs(eigs[i] - prev_vals[j])
                limit = (match_tol if match_tol is not None
                         else 0.5 + 0.25 * abs(prev_vals[j]))
                if move <= limit:
                    ids[i] = prev_ids[j]
                    used.add(j)
        for i in range(eigs.size):
            if ids[i] < 0:
                ids[i] = next_id
                next_id += 1
        for lam, bid in zip(eigs, ids):
            rows.append((float(theta), float(kappa), int(bid), float(lam)))
        prev_vals, prev_ids = eigs, ids
    return rows


# ---------------------------------------------------------------------------
# the Robin family on the interval
# ---------------------------------------------------------------------------

def _theta_grid(samples):
    return np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)


def rellich_boundary_family(samples=720, tol=DEFAULT_TOL):
    """Loop of transformed boundary relations of the Robin family."""
    rt = reduced_triplet(sturm.RellichBoundaryProblem(tol=tol))

    def make(theta):
        kappa = sturm.kappa_of_theta(theta)
        return transform_boundary_condition(rt, sturm.robin_relation(kappa))

    thetas = _theta_grid(samples)
    return FamilyLoop(list(thetas), [make(t) for t in thetas], generator=make)


def rellich_eigenvalue_samples(samples=720, lambda_max=400.0):
    """Loop of Robin eigenvalue lists over the circle."""

    def make(theta):
        return sturm.secular_eigenvalues(sturm.kappa_of_theta(theta),
                                         lambda_max=lambda_max)

    thetas = _theta_grid(samples)
    return FamilyLoop(list(thetas), [make(t) for t in thetas], generator=make)


def _locate_zero_crossing(samples=720):
    """Parameter at which the flat solution meets the Robin condition.

    The condition u'(1) = kappa u(1) for u = x is bisected in the pole-free
    homogeneous form cos(theta/2) u'(1) + sin(theta/2) u(1), so the scan
    never brackets the chart point of the parameterization.
    """

    def cond(theta):
        return math.cos(0.5 * theta) * 1.0 + math.sin(0.5 * theta) * 1.0

    thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    vals = [cond(t) for t in thetas]
    pairs = list(zip(thetas, thetas[1:], vals, vals[1:]))
    pairs.append((thetas[-1], 2.0 * math.pi, vals[-1], cond(2.0 * math.pi)))
    for a, b, fa, fb in pairs:
        if fa == 0.0:
            return sturm.kappa_of_theta(a)
        if fa * fb < 0:
            root = sturm._bisect(cond, a, b, rtol=1e-15)
            return sturm.kappa_of_theta(root)
    raise RefinementError("no zero crossing located")


def verify_index_theorem(samples=720, lambda_max=400.0, tol=DEFAULT_TOL):
    """Both index computations for the Robin loop and their comparison.

    Spectral flow of the operator family through level zero against the
    winding of the Cayley loop of the transformed boundary relations; the
    report also records the Robin parameter of the level-zero crossing.
    """
    eig_loop = rellich_eigenvalue_samples(samples=samples,
                                          lambda_max=lambda_max)
    flow = spectral_flow(eig_loop, level=0.0, window=1.0)
    rel_loop = rellich_boundary_family(samples=samples, tol=tol)
    wind = relation_family_index(rel_loop)
    return IndexReport(spectral_flow=flow, winding=wind,
                       consistent=(flow == wind),
                       crossing_kappa=float(_locate_zero_crossing(samples)))


def robin_index_report(robin_of_theta, samples=720, lambda_max=400.0,
                       tol=DEFAULT_TOL, window=1.0):
    """Index comparison for a synthetic Robin loop.

    `robin_of_theta` maps theta to a Robin parameter traversed by the loop;
    the operator side uses the secular solver and the relation side the
    transformed boundary family of the same parameters.
    """
    rt = reduced_triplet(sturm.RellichBoundaryProblem(tol=tol))

    def eigs(theta):
        return sturm.secular_eigenvalues(robin_of_theta(theta),
                                         lambda_max=lambda_max)

    def rel(theta):
        return transform_boundary_condition(
            rt, sturm.robin_relation(robin_of_theta(theta)))

    thetas = _theta_grid(samples)
    flow = spectral_flow(FamilyLoop(list(thetas), [eigs(t) for t in thetas],
                                    generator=eigs), level=0.0, window=window)
    wind = relation_family_index(FamilyLoop(list(thetas),
                                            [rel(t) for t in thetas],
                                            generator=rel))
    return IndexReport(spectral_flow=flow, winding=wind,
                       consistent=(flow == wind))
