"""Weighted boundary spaces, the zero-point Weyl operator and the reduced
boundary triplet.

The boundary space carries two inner products (a small space inside a pivot
space); the derived square-root isometries turn raw trace maps, which only
pair correctly through the duality, into a genuine boundary triplet.  The
demo assembles everything on a random finite model with recombined traces
and a weighted small space, then compares the result with the
deficiency-space triplet of the same model: the two are related by a unique
isomorphism D and a Hermitian block P, both recovered numerically.
"""

import numpy as np

from tripletflow import (MatrixBoundaryProblem, build_triple,
                         compare_triplets, dirichlet_to_neumann,
                         neumann_graph_check, random_symmetric_model,
                         reduced_residuals, reduced_triplet,
                         shift_identity_residual)

rng = np.random.default_rng(21)

print("== a weighted Gelfand triple ==")
g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
triple = build_triple(g @ g.conj().T + 3 * np.eye(3), np.eye(3))
x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
print("square root residual:",
      np.linalg.norm(triple.lam @ triple.lam - triple.j))
print("pairing shift identity residual:",
      shift_identity_residual(triple, y, x))

print("\n== reduced triplet on a finite model ==")
model = random_symmetric_model(rng, dim=6, defect=2)
d = model.defect
e_mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) \
    + 2 * np.eye(d)
h_mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
h_mat = h_mat + h_mat.conj().T
gram = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
bp = MatrixBoundaryProblem(model, gram_small=gram @ gram.conj().T
                           + d * np.eye(d), mix=(e_mat, h_mat))
rt = reduced_triplet(bp)
print("zero-point Weyl matrix:\n", np.round(rt.dtn, 4))
for name, value in reduced_residuals(rt, rng).items():
    print(f"  {name:32s} {value:.2e}")
print("Neumann-type relation vs. negated Weyl graph (gap):",
      neumann_graph_check(rt))

print("\n== comparison with the deficiency triplet ==")
comparison = compare_triplets(rt, rng)
print("D =\n", np.round(comparison.d_matrix, 4))
print("P =\n", np.round(comparison.p_matrix, 4))
for name, value in comparison.residuals.items():
    print(f"  {name:32s} {value:.2e}")
