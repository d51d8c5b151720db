"""The Robin family on the interval: spectral flow equals Cayley winding.

The family -u'' with u(0) = 0 and u'(1) = kappa u(1), kappa traversing the
projective line once, is the classical example of a loop of self-adjoint
operators whose circle index is nonzero.  Everything here is computed in an
exact exponential-polynomial algebra: eigenvalues come from secular
equations solved to near machine precision, and the boundary side reduces
the loop to 2x2 relations whose Cayley determinant winds exactly once.
"""

import math

import numpy as np

from tripletflow import (CONVENTION, dirichlet_to_neumann, robin_relation,
                         secular_eigenvalues, spectral_flow,
                         transform_boundary_condition, verify_index_theorem)
from tripletflow.famindex import rellich_eigenvalue_samples
from tripletflow.sturm import RellichBoundaryProblem, galerkin_sine, xvar
from tripletflow.triplet import reduced_triplet

print("== eigenvalues at a few parameters ==")
for kappa in (0.0, 1.0, 2.0, math.inf):
    eigs = secular_eigenvalues(kappa, lambda_max=100.0)
    print(f"kappa = {kappa!s:6}:", np.round(eigs, 4))
print("(kappa = 2 shows the negative eigenvalue; kappa = 1 has the zero)")

print("\n== zero-point Weyl operator and the transformed loop ==")
bp = RellichBoundaryProblem()
rt = reduced_triplet(bp)
print("Weyl matrix:\n", dirichlet_to_neumann(bp).real)
for kappa in (0.0, 2.0):
    rel = transform_boundary_condition(rt, robin_relation(kappa))
    print(f"transformed boundary relation at kappa={kappa}: dim {rel.dim}")

print("\n== the index, twice ==")
report = verify_index_theorem(samples=720)
print("spectral flow :", report.spectral_flow)
print("Cayley winding:", report.winding)
print("consistent    :", report.consistent)
print("level-zero crossing at kappa =", report.crossing_kappa)
print("convention    :", CONVENTION)

print("\n== a second look at the flow, coarser loop ==")
loop = rellich_eigenvalue_samples(samples=180)
print("flow at 180 samples:", spectral_flow(loop, level=0.0, window=1.0))

print("\n== operator-level bridge: sine-basis diagonalization ==")
lam, cayley_diag, project = galerkin_sine(6)
print("first reference eigenvalues:", np.round(lam[:4], 4))
print("their Cayley phases:", np.round(np.angle(cayley_diag[:4]), 4))
ramp = project(xvar())
print("sine coefficients of x:", np.round(ramp.real, 6))
