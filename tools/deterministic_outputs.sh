#!/bin/sh
# Write every output that must be byte-identical across runs into OUTDIR:
# the rellich reports at 720, 240, 97 (lambda-max 120) and 8 samples, the
# index report of the built-in family and of a 256-sample fixture (JSON and
# CSV), the stderr and exit codes of index on two defective fixtures, the
# verify records at seed 0 (JSON and CSV) and at the CLI default seed, the
# triplet records at seed 163, the split winding reports of four symbol
# loops, the Dirac unitaries of three fixed symbols, the symbols records at
# seeds 0-39 and 160-169, the step test of det_winding on fast loops and
# on the 8-sample Robin relation loop, and the stdout of every demo.  Every
# command runs with -W error, so a new warning fails the script.
#
# Usage: tools/deterministic_outputs.sh OUTDIR
# Compare two runs with `diff -r`, for example under two PYTHONHASHSEEDs or
# on two checkouts.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out/verify_samples" "$out/odd" "$out/eight" "$out/fixtures"

run() {
    PYTHONPATH="$root/src" python -W error "$@"
}

run -m tripletflow rellich --samples 720 --out "$out" > "$out/rellich.stdout"
# verify's sample count: its crossing_kappa is verify's
run -m tripletflow rellich --samples 240 --out "$out/verify_samples" \
    > "$out/verify_samples/rellich.stdout"
# an odd sample count never samples kappa = inf, and rows of 3 and 4
# eigenvalues exercise the padding of the branch matcher
run -m tripletflow rellich --samples 97 --lambda-max 120 --out "$out/odd" \
    > "$out/odd/rellich.stdout"
# eight samples: both loop walkers bisect (10 and 6 inserts)
run -m tripletflow rellich --samples 8 --out "$out/eight" \
    > "$out/eight/rellich.stdout"
run -m tripletflow index --family rellich --out "$out" > "$out/index.stdout"
run -m tripletflow index --family rellich --format csv > "$out/index.csv"
# family fixtures written by the package's own relation_to_json: the
# transformed Robin loop at 256 samples, and the same loop with one sample
# that is not self-adjoint or with one sample in C^1 + C^1
run - "$out/fixtures" <<'PY'
import json
import sys

import numpy as np

from tripletflow import famindex, relspace

loop = famindex.rellich_boundary_family(samples=256)
rels = list(loop.payloads)
cases = {
    "robin": rels,
    "not_self_adjoint": rels[:5] + [relspace.LinearRelation.graph_of(
        np.array([[1.0, 2.0], [0.0, 1.0]]))] + rels[6:],
    "other_space": rels[:9] + [relspace.LinearRelation.graph_of(
        np.array([[1.0]]))] + rels[10:],
}
for name, samples in cases.items():
    obj = {"dim": 2, "samples": [
        {"theta": float(theta), "relation": relspace.relation_to_json(rel)}
        for theta, rel in zip(loop.thetas, samples)]}
    with open(f"{sys.argv[1]}/{name}.json", "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
PY
run -m tripletflow index --family "$out/fixtures/robin.json" \
    > "$out/fixtures/robin.stdout"
run -m tripletflow index --family "$out/fixtures/robin.json" --format csv \
    > "$out/fixtures/robin.csv"
# the defective fixtures are input errors: their stderr and exit code are
# kept, the code captured by hand since set -e would stop at it
for name in not_self_adjoint other_space; do
    code=0
    run -m tripletflow index --family "$out/fixtures/$name.json" \
        > "$out/fixtures/$name.stdout" 2> "$out/fixtures/$name.stderr" \
        || code=$?
    echo "$code" > "$out/fixtures/$name.exit"
done
run -m tripletflow verify --suite all --seed 0 > "$out/verify.stdout"
run -m tripletflow verify --suite all --seed 0 --format csv \
    > "$out/verify.csv"
# no --seed: the CLI default (42)
run -m tripletflow verify --suite all > "$out/verify_default.stdout"
# the seed of every worst triplet margin over seeds 0-39 and 160-169, so a
# move in the last digits shows where the margins are tightest
run -m tripletflow verify --suite triplet --seed 163 \
    > "$out/verify_triplet_163.stdout"
# split_winding_report on verify's loop with the default grading, demo 05's
# loop with a constant block grading, and two loops whose grading bundles
# turn into minus themselves after one turn (2 x 2 and 4 x 4)
run - "$out/symbols_windings.json" <<'PY'
import json
import math
import sys

import numpy as np

from tripletflow.symbols import split_winding_report

theta = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)


def half_turn(gen, tau_diag, grading_diag):
    turns = [math.cos(t / 2) * np.eye(len(gen)) + math.sin(t / 2) * gen
             for t in theta]
    return ([u @ np.diag(tau_diag) @ u.T for u in turns],
            [u @ np.diag(grading_diag) @ u.T for u in turns])


flat = []
for t in theta:
    tb = np.array([[1j * (2 + math.cos(t)), math.sin(t)],
                   [-math.sin(t), 1j * (2 - math.cos(t))]], dtype=complex)
    flat.append(0.5 * (tb - tb.conj().T))
coupling = np.zeros((4, 4))
coupling[2, 0] = coupling[3, 1] = 1.0
coupling[0, 2] = coupling[1, 3] = -1.0
reports = {
    "verify_flat": split_winding_report(flat),
    "demo_block_grading": split_winding_report(
        [np.diag([1j * (2 + math.sin(t)), -1j * (1.5 + math.cos(t))])
         for t in theta], [np.diag([1j, -1j]) for _ in theta]),
    "half_turn_2x2": split_winding_report(*half_turn(
        np.array([[0.0, -1.0], [1.0, 0.0]]), [2j, -1.5j], [1j, -1j])),
    "half_turn_4x4": split_winding_report(*half_turn(
        coupling, [2j, 3j, -1.5j, -2.5j], [1j, 1j, -1j, -1j])),
}
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(reports, handle, sort_keys=True, indent=2)
    handle.write("\n")
PY
# dirac_unitary, entry by entry as [re, im], of a 1 x 1 symbol, of a 3 x 3
# drawn at seed 0 and shifted off singular as verify's draws are, and of a
# 4 x 4 with cond(|tb|) = 1e6
run - "$out/symbols_dirac.json" <<'PY'
import json
import sys

import numpy as np

from tripletflow.symbols import dirac_unitary
from tripletflow.verify import _complex_normal


def skew(mat):
    return 0.5 * (mat - mat.conj().T)


rng = np.random.default_rng(0)
drawn = skew(_complex_normal(rng, (3, 3)))
gap = np.min(np.abs(np.linalg.eigvalsh(1j * drawn)))
if gap < 0.2:
    drawn = drawn + 1j * (0.3 + gap) * np.eye(3)
frame = np.linalg.qr(_complex_normal(np.random.default_rng(1), (4, 4)))[0]
stiff = skew(-1j * (frame * [1.0, -10.0, 1e3, -1e6]) @ frame.conj().T)
tbs = {"scalar": np.array([[-0.5j]]), "verify_seed0_3x3": drawn,
       "cond_1e6_4x4": stiff}
unitaries = {name: [[[z.real, z.imag] for z in row]
                    for row in dirac_unitary(tb).tolist()]
             for name, tb in tbs.items()}
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(unitaries, handle, indent=1)
    handle.write("\n")
PY
# the symbols records at every seed of CI's verify step, in one process:
# they cover the sign iteration on 50 seeds of random symbols
run - "$out/verify_symbols_seeds.json" <<'PY'
import json
import sys

from tripletflow import verify

seeds = [*range(40), *range(160, 170)]
records = {str(seed): verify.run_suite("symbols", seed=seed)
           for seed in seeds}
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(records, handle, indent=1)
    handle.write("\n")
PY
# the step test of det_winding: exp(i k theta) at 48 samples for k = 1, 5
# and 11, its winding and inserts with a generator and its error without
# one, and the winding and inserts of the 8-sample Robin relation loop
run - "$out/famindex_steps.json" <<'PY'
import json
import math
import sys

import numpy as np

from tripletflow import famindex as fi


def counted(generator):
    def wrapped(theta):
        wrapped.calls += 1
        return generator(theta)

    wrapped.calls = 0
    return wrapped


def walk(index, loop):
    """The integer and the inserts of a walk, or the error it raises."""
    gen = None if loop.generator is None else counted(loop.generator)
    try:
        value = index(fi.FamilyLoop(loop.thetas, loop.payloads, gen))
    except fi.RefinementError as exc:
        return {"error": str(exc)}
    return {"winding": value, "inserts": None if gen is None else gen.calls}


thetas = list(np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False))
records = {}
for k in (1, 5, 11):
    def turn(theta, k=k):
        return np.array([[np.exp(1j * k * theta)]])

    samples = [turn(t) for t in thetas]
    records[f"exp_{k}_theta_48"] = {
        "generator": walk(fi.det_winding, fi.FamilyLoop(thetas, samples, turn)),
        "no_generator": walk(fi.det_winding, fi.FamilyLoop(thetas, samples))}
records["robin_relations_8"] = walk(fi.relation_family_index,
                                    fi.rellich_boundary_family(8))
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(records, handle, indent=1)
    handle.write("\n")
PY
# relations and Cayley transforms, both Cayley factorization residuals of
# the extension engine, the zero-point Weyl matrix, the Robin loop on the
# interval model and the symbol calculus
for demo in "$root"/demos/*.py; do
    run "$demo" > "$out/$(basename "$demo" .py).stdout"
done
