#!/bin/sh
# Write every output that must be byte-identical across runs into OUTDIR:
# the rellich reports at 720, 97 (lambda-max 120) and 8 samples, the index
# report of the built-in family and of a 256-sample fixture (JSON and CSV),
# the stderr and exit codes of index on two defective fixtures, the verify
# records at seed 0 (JSON and CSV) and at the CLI default seed, and the
# stdout of every demo.  Every command runs with -W error, so a new
# warning fails the script.
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
mkdir -p "$out/odd" "$out/eight" "$out/fixtures"

run() {
    PYTHONPATH="$root/src" python -W error "$@"
}

run -m tripletflow rellich --samples 720 --out "$out" > "$out/rellich.stdout"
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
# relations and Cayley transforms, both Cayley factorization residuals of
# the extension engine, the zero-point Weyl matrix, the Robin loop on the
# interval model and the symbol calculus
for demo in "$root"/demos/*.py; do
    run "$demo" > "$out/$(basename "$demo" .py).stdout"
done
