"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py --workload W --seed N --mode {setup,run,trace}
                           --out DIR [--smoke]

Imports the package from `<checkout>/src`, builds the workload inputs from
the seed, then (unless `--mode setup`) runs the workload once through the
package's public entry points.  With `--mode trace` the layers are wrapped
first and the spans are written to DIR/spans.jsonl.  With `--mode run` the
peak RSS is read and then `reference_work` is timed.  Prints one JSON object
on stdout; checking the outputs is left to `run.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# dim, defect, count of the random symmetric models in `extension`
EXTENSION_MIX = ((8, 3, 100), (40, 10, 3), (80, 20, 1))
EXTENSION_MIX_SMOKE = ((8, 3, 2),)
ROBIN_SAMPLES, ROBIN_SAMPLES_SMOKE = 720, 72
ROBIN_LAMBDA_MAX = 400.0
VERIFY_TRIALS_SMOKE = 1
# `verify` runs the suites at the CLI's default seed, not the benchmark's:
# on some seeds (18, 60, 116, ... of 0-299) `symbols.matrix_sign` does not
# converge for an ill-conditioned random symbol and the command aborts, and
# on seed 163 `triplet.comparison_p_hermitian` misses its tolerance.  Those
# are package defects; a timed workload must run without failures.
VERIFY_SEED = 0
# least share of a repetition's time spent re-running `reference_work`
REF_SHARE = 0.125


def _import_package():
    sys.path.insert(0, SRC)
    import tripletflow
    from tripletflow import cayley, cli

    where = os.path.abspath(tripletflow.__file__)
    if not where.startswith(SRC + os.sep):
        raise ImportError(f"tripletflow imported from {where}, not {SRC}")
    return cayley, cli


def make_inputs(cayley, workload, seed, out, smoke):
    """Workload inputs from the seed alone; the same seed gives the same
    inputs.  Only `extension` depends on it (see VERIFY_SEED)."""
    if workload == "robin":
        samples = ROBIN_SAMPLES_SMOKE if smoke else ROBIN_SAMPLES
        return [("rellich", ["rellich", "--samples", str(samples),
                             "--lambda-max", repr(ROBIN_LAMBDA_MAX),
                             "--out", out]),
                ("index", ["index", "--family", "rellich", "--out", out])]
    if workload == "verify":
        argv = ["verify", "--suite", "all", "--seed", str(VERIFY_SEED)]
        if smoke:
            argv += ["--trials", str(VERIFY_TRIALS_SMOKE)]
        return [("verify", argv)]
    if workload == "extension":
        import numpy as np

        rng = np.random.default_rng(seed)
        cases = []
        for dim, defect, count in (EXTENSION_MIX_SMOKE if smoke
                                   else EXTENSION_MIX):
            for _ in range(count):
                model = cayley.random_symmetric_model(rng, dim, defect)
                brel = cayley.random_selfadjoint_relation(rng, defect)
                cases.append((f"{dim}/{defect}", model, brel))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(cli, steps, out):
    ops, times = [], {}
    for name, argv in steps:
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with open(os.path.join(out, f"{name}.stdout"), "w",
                      encoding="utf-8") as handle, \
                    contextlib.redirect_stdout(handle):
                rc = cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=3)
        times[name] = time.perf_counter() - t0
        ops.append({"name": name, "rc": rc, "error": error})
    return ops, times


def run_extension(cayley, cases):
    ops = []
    for size, model, brel in cases:
        res, error = None, None
        try:
            res = list(cayley.cayley_factorization_check(model, brel))
        except Exception:
            error = traceback.format_exc(limit=3)
        ops.append({"name": size, "residuals": res, "error": error})
    return ops


def reference_work():
    """Seconds taken by a fixed piece of work that never touches the
    package: pure-Python loops and many small numpy calls (the regime of
    robin and verify), dense 160-dim LAPACK and 160-dim complex
    matrix-vector products (the regime of extension).  Its time is the
    speed of the host during the repetition, which `run.py` divides out of
    the workload's times."""
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    big = rng.standard_normal((160, 160)) + 1j * rng.standard_normal(
        (160, 160))
    tall = big[:, :40].copy()
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(300_000):
        key = i % 97
        table[key] = table.get(key, 0.0) + math.sqrt(i + 1.0)
        acc += table[key] * 1e-9
    for _ in range(1500):
        q, r = np.linalg.qr(small)
        acc += abs(np.linalg.det(r)) + np.linalg.norm(q @ small - small @ q)
    for _ in range(3):
        acc += np.linalg.svd(big, compute_uv=False)[0]
        acc += abs(np.linalg.eigvals(big)).max()
    vec = tall[:, 0].copy()
    for _ in range(1500):
        vec = big.conj().T @ (tall @ (tall.conj().T @ (big @ vec)))
        vec /= np.linalg.norm(vec)
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc + abs(vec[0])):
        raise ArithmeticError("reference work gave a non-finite result")
    return seconds


def peak_rss_mib():
    """Peak resident set of this process image (VmHWM, Linux).

    Unlike ru_maxrss, VmHWM starts afresh at exec, so it does not inherit
    the spawning process's peak.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM missing from /proc/self/status")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    cayley, cli = _import_package()
    inputs = make_inputs(cayley, args.workload, args.seed, args.out,
                         args.smoke)
    result = {"t_ready": time.monotonic()}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
        t0 = time.perf_counter()
        if args.workload == "extension":
            ops, times = run_extension(cayley, inputs), {}
        else:
            ops, times = run_cli(cli, inputs, args.out)
        result["run_s"] = time.perf_counter() - t0
        result["steps_s"] = times
        result["ops"] = ops
        if tracer is not None:
            spans = os.path.join(args.out, "spans.jsonl")
            tracer.write(spans)
            result["spans_file"] = spans
    result["rss_mib"] = peak_rss_mib()
    if args.mode == "run":
        # repeated until it took REF_SHARE of the workload's time, so that
        # a long repetition is set against more than one short sample
        refs, t_end = [], time.perf_counter() + REF_SHARE * result["run_s"]
        while not refs or time.perf_counter() < t_end:
            refs.append(reference_work())
        result["ref_s"] = sum(refs) / len(refs)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
