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

import math
from dataclasses import dataclass

import numpy as np

from . import sturm
from .relspace import DEFAULT_TOL, cayley_unitaries, cayley_unitary
from .triplet import reduced_triplet, transform_boundary_conditions

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

# the most samples one walk of a loop inserts by bisection before it raises
_MAX_INSERTS = 20000


@dataclass
class FamilyLoop:
    """A sampled loop over the circle, as both index engines take it.

    Payloads are relations (a list or a RelationStack), unitaries or
    eigenvalue arrays; an optional generator maps theta to a fresh payload
    and enables adaptive refinement.  Thetas must be strictly increasing
    inside [0, 2*pi); the loop closes through the wrap-around from the
    last sample back to the first.
    """

    thetas: list
    payloads: list
    generator: object = None

    def __post_init__(self):
        if len(self.thetas) != len(self.payloads):
            raise ValueError("thetas and payloads differ in length")
        if len(self.thetas) < 2:
            raise ValueError("a loop needs at least two samples")
        thetas = np.asarray(self.thetas, dtype=float)
        if np.any(np.diff(thetas) <= 0):
            raise ValueError("thetas must be strictly increasing")
        if not np.all((thetas >= 0.0) & (thetas < 2.0 * math.pi)):
            raise ValueError("thetas must lie in [0, 2*pi)")


@dataclass
class IndexReport:
    spectral_flow: int | None
    winding: int | None
    crossing_kappa: float | None = None

    @property
    def consistent(self):
        return self.spectral_flow in (None, self.winding)

    def to_dict(self):
        out = {
            "spectral_flow": self.spectral_flow,
            "winding": self.winding,
            "consistent": self.consistent,
            "convention": CONVENTION,
        }
        if self.crossing_kappa is not None:
            out["crossing_kappa"] = self.crossing_kappa
        return out


class RefinementError(RuntimeError):
    pass


def _transition_eigenvalues(u_prev, u_next):
    """Eigenvalues of the transitions U_next U_prev^H of a stack of pairs.

    For unitary samples the transition is unitary, so its eigenvalues give
    both the size of the step, ||U_next - U_prev||_2 = max_j |lambda_j - 1|,
    and its angle, the sum of the principal eigenphases, which is the
    change of arg det while the step stays well below a half turn per
    eigenvalue."""
    return np.linalg.eigvals(u_next @ u_prev.conj().swapaxes(-1, -2))


def _walk_loop(thetas, samples, refine, judge):
    """Walk a sampled loop interval by interval, the wrap-around from the
    last sample to thetas[0] + 2*pi included, and return (t0, t1, value)
    for each accepted interval, in loop order.

    `judge(t0s, t1s, s0s, s1s)` judges a stack of intervals, given by
    their ends and the stacks of their end samples, and returns for each a
    pair (True, value) or (False, message).  All sample intervals are
    judged in one call, and an accepted one is taken as it is.  A rejected
    interval is bisected through `refine` (theta -> sample), first half
    first, each half judged as a stack of one; its message is raised as
    RefinementError once `refine` is missing, `_MAX_INSERTS` samples have
    been inserted or the midpoint no longer lies strictly inside the
    interval.
    """
    period = 2.0 * math.pi
    t0s = list(thetas)
    t1s = t0s[1:] + [t0s[0] + period]
    nexts = np.roll(samples, -1, axis=0)
    verdicts = judge(t0s, t1s, samples, nexts)
    accepted = []
    inserted = 0
    for i, (ok, value) in enumerate(verdicts):
        if ok:
            accepted.append((t0s[i], t1s[i], value))
            continue
        stack = [(t0s[i], t1s[i], samples[i], nexts[i], (ok, value))]
        while stack:
            t0, t1, s0, s1, verdict = stack.pop()
            ok, value = verdict or judge([t0], [t1], [s0], [s1])[0]
            if ok:
                accepted.append((t0, t1, value))
                continue
            tm = 0.5 * (t0 + t1)
            if refine is None or inserted >= _MAX_INSERTS or not t0 < tm < t1:
                raise RefinementError(value)
            sm = refine(tm % period)
            inserted += 1
            stack.append((tm, t1, sm, s1, None))
            stack.append((t0, tm, s0, sm, None))
    return accepted


def _theta_grid(samples):
    return np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)


def _unitary_samples(thetas, unitaries):
    """The unitaries as one complex array, each checked against the bound
    ||U^H U - I||_F <= 1e3 * DEFAULT_TOL of the W check of the extension
    engine; ValueError names the first theta whose sample is not unitary."""
    mats = np.asarray(unitaries, dtype=complex)
    # the difference is made in place and its norms summed by einsum, so
    # the check holds at most two arrays of the loop's size at once
    gram = mats.conj().swapaxes(-1, -2) @ mats
    gram -= np.eye(mats.shape[-1])
    defects = np.sqrt(np.einsum("...ij,...ij->...", gram.real, gram.real)
                      + np.einsum("...ij,...ij->...", gram.imag, gram.imag))
    bad = np.flatnonzero(~(defects <= 1e3 * DEFAULT_TOL))
    if bad.size:
        raise ValueError(f"sample at theta={thetas[bad[0]]} is not unitary "
                         f"(||U^H U - I|| = {defects[bad[0]]:.3g})")
    return mats


def det_winding(loop):
    """Winding number of det along a closed loop of unitary matrices.

    `loop` is a FamilyLoop of unitaries, refined through its generator
    (theta -> unitary) if it has one, or a plain sequence of unitaries on
    the equally spaced grid.  Every sample, refined ones included, must be
    unitary, ||U^H U - I||_F <= 1e3 * DEFAULT_TOL; otherwise ValueError
    names the first theta that is not.  Consecutive samples must satisfy
    ||U_next - U_prev|| < 0.5; offending intervals are bisected, at most
    `_MAX_INSERTS` times in one walk, and without a generator an error
    names the first one.  The accumulated argument must land within 0.05
    of an integer multiple of 2*pi.

    Each step's size and angle come from the eigenvalues of its transition
    U_next U_prev^H (`_transition_eigenvalues`), one stacked call for all
    the intervals judged together; only intervals too coarse for the bound
    are bisected, and the angles are added in loop order.
    """
    if not isinstance(loop, FamilyLoop):
        loop = FamilyLoop(_theta_grid(len(loop)), loop)
    mats = _unitary_samples(loop.thetas, loop.payloads)
    gen = loop.generator
    refine = None if gen is None else (
        lambda t: _unitary_samples([t], [gen(t)])[0])

    def judge(t0s, t1s, u0s, u1s):
        lams = _transition_eigenvalues(np.asarray(u0s, dtype=complex),
                                       np.asarray(u1s, dtype=complex))
        gaps = np.max(np.abs(lams - 1.0), axis=-1).tolist()
        angles = np.sum(np.angle(lams), axis=-1).tolist()
        return [(True, angle) if gap < 0.5 else
                (False, f"loop step too coarse on [{t0:.6f}, {t1:.6f}] "
                        f"(||dU|| = {gap:.3f}); supply more samples or a "
                        "refinement callback")
                for angle, gap, t0, t1 in zip(angles, gaps, t0s, t1s)]

    total = 0.0
    for _, _, angle in _walk_loop(loop.thetas, mats, refine, judge):
        total += angle
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > 0.05:
        raise RefinementError(
            f"accumulated determinant argument {turns:.4f} turns is not "
            "within 0.05 of an integer; refine the loop")
    return int(nearest)


def _greedy_pairs(a, b, limit):
    """Greedy nearest-neighbor pairing of each row of two NaN-padded value
    stacks a (K, m) and b (K, n).

    In each row, pairs (i, j) with |a[i] - b[j]| <= limit (a scalar or a
    (K, n) array over b) are taken closest first, each value once, and
    among equal distances the lowest row-major (i, j) first; NaN pairs
    with nothing.  Each round is one argmin over the m * n distances of
    every row, with the rows and columns taken so far masked out.

    Returns (ia, ib), each (K, min(m, n)): round t paired a[k, ia[k, t]]
    with b[k, ib[k, t]], so a row lists its pairs in greedy order, and -1
    marks the rounds after its last pair.
    """
    count, m = a.shape
    n = b.shape[1]
    limit = np.asarray(limit, dtype=float)
    if limit.ndim:
        limit = limit[:, None, :]
    dist = np.subtract(a[:, :, None], b[:, None, :])
    np.abs(dist, out=dist)
    # padding and moves beyond the limit are never taken
    dist[~(dist <= limit)] = np.inf
    flat = dist.reshape(count, m * n)
    rounds = min(m, n)
    ia = np.full((count, rounds), -1)
    ib = np.full((count, rounds), -1)
    rows = np.arange(count)
    for t in range(rounds):
        # argmin returns the first minimum: the lowest (i, j) among ties
        best = np.argmin(flat, axis=1)
        live = flat[rows, best] < np.inf
        if not live.any():
            break
        k = rows[live]
        i, j = np.divmod(best[live], n)
        ia[k, t], ib[k, t] = i, j
        dist[k, i, :] = np.inf
        dist[k, :, j] = np.inf
    return ia, ib


def _padded(rows):
    """1-D value sequences as one NaN-padded float stack, one row each."""
    rows = [np.asarray(r, dtype=float) for r in rows]
    counts = np.array([r.size for r in rows], dtype=int)
    out = np.full((counts.size, counts.max(initial=0)), np.nan)
    if rows:
        out[np.arange(out.shape[1]) < counts[:, None]] = np.concatenate(rows)
    return out


def _judge_intervals(e0, e1, level, window):
    """The spectral-flow test of a stack of intervals, given as NaN-padded
    stacks e0 and e1 of the eigenvalues at their two ends.

    The values within `window` of the level are paired by `_greedy_pairs`
    within the margin 0.45 * window.  Returns (accepted, la, lb, sign): an
    interval is accepted when every value left unpaired lies within the
    margin of the window edge; la[k, t], lb[k, t] is its t-th pair in
    greedy order (NaN past the last), and sign[k, t] is +1 for a pair
    crossing the level upward, -1 downward, else 0.  Values equal to the
    level count as below.
    """
    margin = 0.45 * window
    a = np.where(np.abs(e0 - level) <= window, e0, np.nan)
    b = np.where(np.abs(e1 - level) <= window, e1, np.nan)
    ia, ib = _greedy_pairs(a, b, margin)
    paired = ia >= 0
    la = np.where(paired, np.take_along_axis(a, np.maximum(ia, 0), 1), np.nan)
    lb = np.where(paired, np.take_along_axis(b, np.maximum(ib, 0), 1), np.nan)
    k = np.nonzero(paired)[0]
    a[k, ia[paired]] = np.nan
    b[k, ib[paired]] = np.nan
    stray = (np.abs(np.abs(a - level) - window) > margin).any(axis=1)
    stray |= (np.abs(np.abs(b - level) - window) > margin).any(axis=1)
    sign = (((la <= level) & (level < lb)).astype(int)
            - ((lb <= level) & (level < la)))
    return ~stray, la, lb, sign


def spectral_flow(loop, level=0.0, window=1.0):
    """Net number of eigenvalue branches crossing the level upward.

    `loop` is a FamilyLoop of eigenvalue arrays.  Branches inside a window
    around the level are matched between consecutive samples by nearest
    neighbor (`_greedy_pairs`: closest pairs first, each value once, ties
    to the lowest index pair); a matched pair straddling the level counts
    +1 upward or -1 downward.  Members without a close partner must sit
    near the window edge (traffic entering or leaving the window far from
    the level); anything else forces a bisection of the interval through
    the loop's generator (theta -> eigenvalue array), at most
    `_MAX_INSERTS` times in one walk.  Values equal to the level count as
    below.  The level must be finite and the window finite and positive.
    """
    if not math.isfinite(level):
        raise ValueError("level must be a finite number")
    if not (math.isfinite(window) and window > 0):
        raise ValueError("window must be a finite positive number")
    return _flow_walk(loop, level, window)[0]


def _flow_walk(loop, level, window):
    """The walk behind `spectral_flow`: returns the flow and the crossings,
    a list of (t0, t1, la, lb) for each matched pair straddling the level,
    in loop order and, within an interval, in greedy order; t1 may exceed
    2*pi on the wrap-around interval.

    The walk is `_walk_loop`, and its judge is `_judge_intervals`: an
    accepted interval carries its crossing pairs, which are collected in
    loop order.
    """
    def judge(t0s, t1s, e0s, e1s):
        # an accepted interval's value is its crossing pairs (sign, la,
        # lb), in greedy order
        accepted, la, lb, sign = _judge_intervals(
            np.asarray(e0s, dtype=float), np.asarray(e1s, dtype=float),
            level, window)
        pairs = [[] for _ in t0s]
        rows, cols = np.nonzero(sign)
        for k, t in zip(rows.tolist(), cols.tolist()):
            pairs[k].append((int(sign[k, t]), la[k, t], lb[k, t]))
        return [(True, p) if ok else
                (False, f"cannot attribute branches on [{t0:.6f}, {t1:.6f}]"
                        "; supply a finer loop or a generator")
                for ok, p, t0, t1 in zip(accepted.tolist(), pairs, t0s, t1s)]

    flow = 0
    crossings = []
    for t0, t1, pairs in _walk_loop(loop.thetas, _padded(loop.payloads),
                                    loop.generator, judge):
        for sign, la, lb in pairs:
            flow += sign
            crossings.append((t0, t1, la, lb))
    return flow, crossings


# interior points of one polish round: the nodes of a full bisection tree on
# the current interval (one less than a power of two); of 7, 15, 31, 63 and
# 127, 31 polishes the 720-sample Robin crossing fastest (9 secular solves
# of at most 3 sign-test rounds)
_POLISH_POINTS = 31


def _bisection_nodes(t0, t1):
    """The nodes of the bisection tree on [t0, t1] in order, ends included,
    with _POLISH_POINTS interior ones: each is 0.5 * (a + b) of the two
    nodes [a, b] one level up, the midpoint bisection takes of that
    interval."""
    width = _POLISH_POINTS + 1
    nodes = [t0] + [0.0] * (width - 1) + [t1]
    half = width // 2
    while half:
        for i in range(half, width, 2 * half):
            nodes[i] = 0.5 * (nodes[i - half] + nodes[i + half])
        half //= 2
    return nodes


def _polish_crossing(batch, t0, t1, la, lb, level=0.0):
    """Loop parameter at which a branch crosses the level, to adjacent
    floats.

    [t0, t1] is a walk interval over which the branch moves from la to lb
    across the level; `batch` maps a list of loop parameters to their
    eigenvalue arrays.  The search is a k-section: each round evaluates
    the _POLISH_POINTS interior nodes of the bisection tree on the current
    interval by one `batch` call, and bisection then descends the tree,
    each step following the branch by its member nearest to the middle of
    the current pair; values equal to the level count as below.  The steps
    and so the result are those of bisection through a scalar generator.
    """
    period = 2.0 * math.pi
    below_at_t0 = la <= level
    lo = hi = 0
    for _ in range(200):
        if hi - lo < 2:
            nodes = _bisection_nodes(t0, t1)
            values = batch([t % period for t in nodes[1:-1]])
            lo, hi = 0, len(nodes) - 1
        mid = (lo + hi) // 2
        tm = nodes[mid]
        if not t0 < tm < t1:
            break
        em = np.asarray(values[mid - 1], dtype=float)
        if not em.size:
            raise RefinementError(
                f"the crossing branch vanished at theta={tm:.17g}")
        vm = float(em[np.argmin(np.abs(em - 0.5 * (la + lb)))])
        if (vm <= level) == below_at_t0:
            t0, la, lo = tm, vm, mid
        else:
            t1, lb, hi = tm, vm, mid
    return (0.5 * (t0 + t1)) % period


def relation_family_index(loop):
    """Winding of the Cayley loop of a FamilyLoop of relations of one shape
    (a list or one RelationStack), refined through its generator if it
    has one.

    The samples must be self-adjoint; they are not checked here, but a
    sample whose Cayley transform is not unitary, or whose Y + iX is
    singular, raises (see `det_winding` and `cayley_unitaries`)."""
    gen = loop.generator
    refine = None if gen is None else lambda t: cayley_unitary(gen(t))
    unitaries = cayley_unitaries(loop.payloads)
    return det_winding(FamilyLoop(loop.thetas, unitaries, refine))


def _branch_ids(eig_lists):
    """Branch ids of the eigenvalue lists of a loop, sample by sample, by
    greedy nearest-neighbor continuation (see `branch_table`).

    Returns (values, ids, valid): the NaN-padded value stack (K, m), the
    branch id of each entry and the mask of the entries that hold a value.
    """
    values = _padded(eig_lists)
    count, width = values.shape
    prev = values[:-1]
    ia, ib = _greedy_pairs(values[1:], prev, 0.5 + 0.25 * np.abs(prev))
    # each flat (sample, index) entry points at the entry it continues, or
    # at itself when it starts a branch
    entries = np.arange(count * width)
    parent = entries.copy()
    k, t = np.nonzero(ia >= 0)
    parent[(k + 1) * width + ia[k, t]] = k * width + ib[k, t]
    valid = ~np.isnan(values)
    fresh = np.cumsum(valid.ravel() & (parent == entries)) - 1
    # pointer jumping: after the loop each entry points at its branch start
    while True:
        root = parent[parent]
        if np.array_equal(root, parent):
            break
        parent = root
    return values, fresh[parent].reshape(count, width), valid


def branch_table(thetas, kappas, eig_lists):
    """Rows (theta, kappa, branch_id, lambda), sample by sample, with ids
    assigned by greedy nearest-neighbor continuation.

    One `_greedy_pairs` call pairs the values of every sample with those
    of the sample before it, closest first, each value once, within
    0.5 + 0.25 |lambda| of the earlier value;
    among equal moves the lowest (index in the later sample, index in the
    earlier) goes first.  A paired value inherits its partner's id; the
    others get fresh ids in (sample, index) order.
    """
    values, ids, valid = _branch_ids(eig_lists)
    counts = valid.sum(axis=1)
    return list(zip(
        np.repeat(np.asarray(thetas, dtype=float), counts).tolist(),
        np.repeat(np.asarray(kappas, dtype=float), counts).tolist(),
        ids[valid].tolist(), values[valid].tolist()))


# ---------------------------------------------------------------------------
# the Robin family on the interval
# ---------------------------------------------------------------------------

def _sampled_loop(batch, samples):
    """Loop over `samples` equally spaced thetas, evaluated by one call of
    the batched generator `batch` (thetas -> payloads); the scalar
    generator is its one-sample form, for refinement."""
    thetas = _theta_grid(samples)
    return FamilyLoop(list(thetas), batch(thetas),
                      generator=lambda theta: batch([theta])[0])


def _relation_batch(kappa_of):
    """Batched generator of the relation loop: the transformed Robin
    relations of the given thetas as one RelationStack."""
    rt = reduced_triplet(sturm.RellichBoundaryProblem())
    return lambda thetas: transform_boundary_conditions(
        rt, sturm.robin_relations([kappa_of(t) for t in thetas]))


def _eigenvalue_batch(kappa_of, lambda_max):
    """Batched generator of the eigenvalue loop: one secular solve for all
    the given thetas."""
    return lambda thetas: sturm.secular_eigenvalues_batch(
        [kappa_of(t) for t in thetas], lambda_max=lambda_max)


def rellich_boundary_family(samples=720):
    """Loop of transformed boundary relations of the Robin family."""
    return _sampled_loop(_relation_batch(sturm.kappa_of_theta), samples)


def rellich_eigenvalue_samples(samples=720,
                               lambda_max=sturm._ROBIN_LAMBDA_MAX):
    """Loop of Robin eigenvalue lists over the circle."""
    return _sampled_loop(_eigenvalue_batch(sturm.kappa_of_theta, lambda_max),
                         samples)


def _robin_index(kappa_of, samples, lambda_max):
    """Index report of the Robin loop theta -> kappa_of(theta), together
    with the eigenvalue loop it was computed from.

    The flow is walked at level zero with window 1.  The crossing is read
    off that walk: the first matched pair straddling the level, polished
    by a k-section through the batched eigenvalue generator capped at the
    top of the window, since the walk reads no eigenvalue above it.
    """
    level, window = 0.0, 1.0
    eig_loop = _sampled_loop(_eigenvalue_batch(kappa_of, lambda_max), samples)
    flow, crossings = _flow_walk(eig_loop, level, window)
    wind = relation_family_index(
        _sampled_loop(_relation_batch(kappa_of), samples))
    crossing_kappa = None
    if crossings:
        theta = _polish_crossing(_eigenvalue_batch(kappa_of, level + window),
                                 *crossings[0], level)
        crossing_kappa = float(kappa_of(theta))
    return IndexReport(flow, wind, crossing_kappa), eig_loop


def verify_index_theorem(samples=720):
    """Both index computations for the Robin loop and their comparison.

    Spectral flow of the operator family through level zero against the
    winding of the Cayley loop of the transformed boundary relations; the
    report also records the Robin parameter of the level-zero crossing.
    """
    return robin_index_report(sturm.kappa_of_theta, samples)


def robin_index_report(robin_of_theta, samples=720):
    """Index comparison for a synthetic Robin loop.

    `robin_of_theta` maps theta to a Robin parameter traversed by the loop;
    the operator side uses the secular solver and the relation side the
    transformed boundary family of the same parameters.  The report records
    the Robin parameter of the first level-zero crossing, if any.
    """
    return _robin_index(robin_of_theta, samples, sturm._ROBIN_LAMBDA_MAX)[0]
