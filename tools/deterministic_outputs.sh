#!/bin/sh
# Write every output that must be byte-identical across runs into OUTDIR:
# the rellich reports at 720, 97 (lambda-max 120) and 8 samples, the index
# report (JSON and CSV), the verify records at seed 0 (JSON and CSV) and at
# the CLI default seed, and the stdout of every demo.  Every command runs
# with -W error, so a new warning fails the script.
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
mkdir -p "$out/odd" "$out/eight"

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
