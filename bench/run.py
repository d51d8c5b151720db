"""Layered benchmark of tripletflow.

    python3 bench/run.py --workload {robin,extension,verify,all}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; the package is imported from its
`src/` directory.  Every repetition runs in a fresh child process
(`bench/child.py`) with BLAS pinned to one thread, as a command-line user
would run it, so import and first-call costs are paid each time and nothing
memoized survives from one repetition to the next.

Workloads (chosen so that each stresses different layers):

* robin: `rellich --samples 720 --lambda-max 400`, then `index --family
  rellich`, through `cli.main`.  The paper's headline computation: sturm,
  triplet, famindex and 2x2 relspace work; never the cayley engine.  It
  has no random input, so the seed does not change it.
* extension: `cayley.cayley_factorization_check` on seeded random models
  (100 of dim/defect 8/3, 3 of 40/10, 1 of 80/20) with seeded self-adjoint
  boundary relations.  The n^4 `boundary_data` cost dominates.
* verify: `verify --suite all --seed 0` (the CLI's default seed) with
  default trials.  Thousands of tiny calls (n <= 8), so Python overhead
  dominates; the only workload that exercises gelfand and symbols.  Like
  robin, it does not depend on the seed (see `child.VERIFY_SEED`).

A run first spawns one discarded child to warm the bytecode and file
caches, then runs children one after another in a closed loop for
`--seconds`: each child is spawned when the last one ends.  After the
workload, each untraced child times `reference_work`, a fixed piece of
numpy and pure-Python work, and every time the run reports is scaled to a
host on which that work takes REF_S seconds.  With `--trace 0` the run
reports the median setup_s (spawn until the package is imported and the
inputs are built), the mean run_s (the workload's commands) and the
median peak_rss_mb (the child's VmHWM, read before the reference work).
With `--trace 1` traced and untraced repetitions alternate, and the run
reports the per-layer metrics read from the traced spans (see
`tracer.py`), plus the tracing overhead and coverage.  After the timing,
every output is checked (see `check_*`); a run fails when a count that
must repeat exactly (output counts, span calls, linalg calls) drifts
between its repetitions.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  The lines before it, starting with "#", give the same run
under workload-prefixed names (robin.rellich_s, robin.missing_eigs,
extension.batch_s, verify.all_s, <workload>.fail_frac, the unscaled
<workload>.wall_run_s and the reference time <workload>.ref_s), and
`--workload all` prints all of them in its result line.  Full results,
with per-repetition samples and the environment (git SHA, source hash,
Python, numpy, BLAS, threads, nproc), go to
`.bench_out/BENCH_<workload>_seed<N>_trace<T>.json`.  Exit code 0 when
every check passed, 1 when a check failed or a count drifted, 2 when the
benchmark could not run (for instance without `src/tripletflow`).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(BENCH, "child.py")

sys.path.insert(0, BENCH)

from child import (ROBIN_LAMBDA_MAX, ROBIN_SAMPLES,  # noqa: E402
                   ROBIN_SAMPLES_SMOKE)
from oracle import RobinOracle  # noqa: E402
from tracer import LAYERS, aggregate  # noqa: E402

WORKLOADS = ("robin", "extension", "verify")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
RESIDUAL_TOL = 1e-9       # factorization residual counted as a failure
RUN_DEADLINE_S = 170.0    # no child may outlive this many seconds of a run

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
# Reported times are those of a host on which `child.reference_work` takes
# REF_S seconds, about its median on the 2-CPU VM of the baseline.
REF_S = 0.4

# Workload-prefixed names printed before the result line, per workload.
WORKLOAD_METRICS = {
    "robin": {"robin.rellich_s": "s", "robin.index_s": "s",
              "robin.missing_eigs": "count", "robin.fail_frac": "ratio",
              "robin.peak_rss_mb": "MiB", "robin.wall_run_s": "s",
              "robin.ref_s": "s"},
    "extension": {"extension.batch_s": "s", "extension.fail_frac": "ratio",
                  "extension.peak_rss_mb": "MiB",
                  "extension.wall_run_s": "s", "extension.ref_s": "s"},
    "verify": {"verify.all_s": "s", "verify.fail_frac": "ratio",
               "verify.peak_rss_mb": "MiB", "verify.wall_run_s": "s",
               "verify.ref_s": "s"},
}

SUITES = ("relspace", "cayley", "gelfand", "triplet", "sturm", "symbols",
          "famindex")
# Times are shares of the traced repetition's run_s ("frac": inclusive,
# "self_frac": without child spans), so a layer a workload never enters
# reads 0 rather than a time that is the same on every run.
PER_LAYER = (
    [f"{layer}.{kind}" for layer in LAYERS
     for kind in ("self_frac", "linalg_calls")]
    + ["cayley.boundary_data.calls", "cayley.boundary_data.frac",
       "cayley.von_neumann_components.calls",
       "cayley.von_neumann_components.self_frac",
       "cayley.extension_isometry.calls",
       "cayley.extension_isometry.self_frac",
       "cayley.extension_from_relation.calls",
       "cayley.cayley_factorization_check.calls",
       "cayley.cayley_factorization_check.frac",
       "sturm.secular_eigenvalues.calls",
       "sturm.secular_eigenvalues.self_frac",
       "triplet.transform_boundary_condition.calls",
       "triplet.transform_boundary_condition.self_frac",
       "famindex.det_winding.calls", "famindex.det_winding.self_frac",
       "famindex.spectral_flow.calls", "famindex.spectral_flow.self_frac",
       "famindex.branch_table.self_frac",
       "relspace.Subspace.from_span.calls", "relspace.adjoint_relation.calls",
       "relspace.adjoint_relation.self_frac",
       "relspace.cayley_unitary.calls", "relspace.cayley_unitary.self_frac",
       "symbols.matrix_sign.calls", "symbols.matrix_sign.self_frac",
       "cli.cmd_rellich.frac", "cli.cmd_index.frac", "cli.cmd_verify.frac"]
    + [f"verify.suite_{suite}.frac" for suite in SUITES]
    + ["robin.missing_eigs", "trace.spans", "trace.overhead_frac",
       "trace.coverage"])


def unit_of(name):
    """Unit of a per-layer metric: a count or a share of the run time."""
    if name == "trace.spans" or name.endswith(("calls", "missing_eigs")):
        return "count"
    return "ratio"


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_sha():
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": _git_sha(), "src_sha256": _source_sha(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": dict(THREAD_ENV),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

class Runner:
    """Spawns the child processes of one run and enforces its deadline."""

    def __init__(self, workload, seed, smoke, out):
        self.workload, self.seed, self.smoke, self.out = (workload, seed,
                                                          smoke, out)
        self.t_start = time.monotonic()
        self.count = itertools.count(1)

    def spawn(self, mode):
        number = next(self.count)
        rep_dir = os.path.join(self.out, f"rep{number}")
        os.makedirs(rep_dir)
        cmd = [sys.executable, CHILD, "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", rep_dir,
               "--run-id", f"{self.workload}-{self.seed}-{number}"]
        if self.smoke:
            cmd.append("--smoke")
        timeout = RUN_DEADLINE_S - (time.monotonic() - self.t_start)
        if timeout <= 0:
            raise BenchError("run deadline passed")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT,
                                  env=dict(os.environ, **THREAD_ENV))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        rep = json.loads(proc.stdout.splitlines()[-1])
        rep["setup_s"] = rep["t_ready"] - t_spawn
        rep["dir"], rep["mode"] = rep_dir, mode
        return rep

    def loop(self, seconds, trace):
        """Repetitions in one closed loop, each child spawned when the last
        one ends, until `seconds` have passed and at least one untraced
        (and, with `trace`, two traced) ran.  Traced and untraced
        repetitions alternate, so they share conditions."""
        started = {"run": 0, "trace": 0}
        reps = []
        t_loop = time.monotonic()
        while (time.monotonic() - t_loop < seconds or started["run"] < 1
               or started["trace"] < (2 if trace else 0)):
            mode = ("trace" if trace and started["trace"] <= started["run"]
                    else "run")
            started[mode] += 1
            reps.append(self.spawn(mode))
        return reps


# ---------------------------------------------------------------------------
# output checks: each returns (attempted, failed, counts)
# ---------------------------------------------------------------------------

def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_robin(rep, oracle):
    failed, missing = 0, None
    for op in rep["ops"]:
        ok = op["rc"] == 0 and op["error"] is None
        try:
            if ok and op["name"] == "rellich":
                report = _load_json(os.path.join(rep["dir"],
                                                 "rellich_report.json"))
                eigs = oracle.check_csv(os.path.join(rep["dir"],
                                                     "rellich_branches.csv"))
                missing = eigs["missing"]
                ok = (report["spectral_flow"] == report["winding"] == 1
                      and report["consistent"] is True
                      and eigs["spurious"] == 0 and eigs["bad_rows"] == 0)
            elif ok and op["name"] == "index":
                report = _load_json(os.path.join(rep["dir"],
                                                 "index_report.json"))
                ok = report["winding"] == 1
        except (OSError, ValueError, KeyError):
            ok = False
        failed += not ok
    return len(rep["ops"]), failed, {"missing_eigs": missing}


def check_extension(rep):
    failed = sum(1 for op in rep["ops"]
                 if op["error"] is not None
                 or not max(op["residuals"]) <= RESIDUAL_TOL)
    return len(rep["ops"]), failed, {"ops": [op["name"]
                                             for op in rep["ops"]]}


def check_verify(rep):
    (op,) = rep["ops"]
    try:
        payload = _load_json(os.path.join(rep["dir"], "verify.stdout"))
        checks = payload["checks"]
        bad = sum(1 for c in checks if c["pass"] is not True)
        if op["error"] is None and op["rc"] == (0 if bad == 0 else 1) \
                and checks:
            return len(checks), bad, {"checks": [c["name"] for c in checks]}
    except (OSError, ValueError, KeyError):
        pass
    return 1, 1, {"checks": None}


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

class Tally:
    """Attempted/failed operations and the counts that must not drift."""

    def __init__(self, workload, smoke):
        self.workload = workload
        self.attempted = self.failed = 0
        self.counts = None
        self.drift = []
        self.oracle = None
        if workload == "robin":
            self.oracle = RobinOracle(
                ROBIN_SAMPLES_SMOKE if smoke else ROBIN_SAMPLES,
                ROBIN_LAMBDA_MAX)

    def same(self, what, first, other):
        if first != other:
            self.drift.append(f"{what} drifted between repetitions")

    def add(self, rep):
        if self.workload == "robin":
            attempted, failed, counts = check_robin(rep, self.oracle)
        elif self.workload == "extension":
            attempted, failed, counts = check_extension(rep)
        else:
            attempted, failed, counts = check_verify(rep)
        self.attempted += attempted
        self.failed += failed
        if self.counts is None:
            self.counts = counts
        else:
            self.same("output counts", self.counts, counts)


def run_workload(workload, seed, seconds, trace, smoke):
    """One run: a warm-up child, then repetitions in a closed loop for
    `seconds`; outputs are checked once the timing is over.  Returns the
    result record with its metrics."""
    out = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    runner = Runner(workload, seed, smoke, out)
    runner.spawn("setup")            # warms the bytecode and file caches
    reps = runner.loop(seconds, trace)
    tally = Tally(workload, smoke)
    plain, traced = [], []
    for rep in reps:
        tally.add(rep)
        if rep["mode"] == "trace":
            rep["trace"] = aggregate(rep["spans_file"])
            shutil.copyfile(rep["spans_file"],
                            os.path.join(OUT, f"spans-{workload}.jsonl"))
            traced.append(rep)
        else:
            plain.append(rep)
    shutil.rmtree(out)

    # Times are scaled by REF_S over the seconds of the reference work timed
    # in the same child right after the workload: this host's speed drifts
    # by tens of percent over minutes, and the reference work drifts with
    # it.  run_s is a mean: repetition times are bimodal under host noise,
    # and a median jumps between the modes from one run to the next.
    def scaled(seconds):
        return [REF_S * t / r["ref_s"] for t, r in zip(seconds, plain)]

    wall_run_s = [r["run_s"] for r in plain]
    run_s = statistics.fmean(scaled(wall_run_s))
    rss = statistics.median([r["rss_mib"] for r in plain])
    values = {"setup_s": statistics.median(scaled([r["setup_s"]
                                                   for r in plain])),
              "run_s": run_s, "peak_rss_mb": rss,
              f"{workload}.fail_frac": tally.failed / tally.attempted,
              f"{workload}.peak_rss_mb": rss,
              f"{workload}.wall_run_s": statistics.fmean(wall_run_s),
              f"{workload}.ref_s": statistics.median([r["ref_s"]
                                                      for r in plain])}
    if workload == "robin":
        for step in ("rellich", "index"):
            values[f"robin.{step}_s"] = statistics.fmean(
                scaled([r["steps_s"][step] for r in plain]))
        values["robin.missing_eigs"] = tally.counts["missing_eigs"]
    else:
        values[{"extension": "extension.batch_s",
                "verify": "verify.all_s"}[workload]] = run_s
    if trace:
        values.update(per_layer(traced, values[f"{workload}.wall_run_s"],
                                tally,
                                values.get("robin.missing_eigs", 0)))
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "attempted": tally.attempted,
            "failed": tally.failed, "drift": tally.drift, "values": values,
            "samples": {"setup_s": [r["setup_s"] for r in reps],
                        "run_s": wall_run_s,
                        "ref_s": [r["ref_s"] for r in plain],
                        "traced_run_s": [r["run_s"] for r in traced],
                        "peak_rss_mb": [r["rss_mib"] for r in plain]}}


def per_layer(traced, plain_run_s, tally, missing_eigs):
    """Per-layer metrics from the traced repetitions: counts from the first
    (they must repeat exactly), time shares as medians."""
    first = traced[0]["trace"]

    def counts(agg):
        return ({k: v["calls"] for k, v in agg["functions"].items()},
                {k: v["linalg_calls"] for k, v in agg["layers"].items()})

    for rep in traced[1:]:
        tally.same("span calls or linalg calls", counts(first),
                   counts(rep["trace"]))

    def share(get):
        return statistics.median([get(rep["trace"]) / rep["run_s"]
                                  for rep in traced])

    metrics = {
        "robin.missing_eigs": missing_eigs,
        "trace.spans": first["spans"],
        "trace.overhead_frac": statistics.fmean(
            [r["run_s"] for r in traced]) / plain_run_s - 1.0,
        "trace.coverage": share(lambda t: t["root_s"]),
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        head, _, kind = name.rpartition(".")
        seconds = {"frac": "s", "self_frac": "self_s"}.get(kind)
        if kind == "linalg_calls":
            metrics[name] = first["layers"][head]["linalg_calls"]
        elif head in first["layers"]:
            metrics[name] = share(lambda t, h=head: t["layers"][h]["self_s"])
        elif kind == "calls":
            metrics[name] = first["functions"].get(head, {}).get("calls", 0)
        else:
            metrics[name] = share(lambda t, h=head, k=seconds:
                                  t["functions"].get(h, {}).get(k, 0.0))
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _line(name, value, unit):
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"{name:48s} {shown:>14s} {unit}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tripletflow", "__init__.py")):
        print(f"benchmark error: no package source under {SRC}",
              file=sys.stderr)
        return 2
    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace),
                                args.smoke) for w in workloads]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for result in results:
        result["env"] = env
        name = (f"BENCH_{result['workload']}_seed{args.seed}"
                f"_trace{args.trace}.json")
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        for message in result["drift"]:
            print(f"error: {result['workload']}: {message}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))

    # workload-prefixed names first, then the result line's own metrics
    reported = {}
    for result in results:
        values = result["values"]
        names = {"setup_s": "s", **WORKLOAD_METRICS[result["workload"]]}
        for name, unit in names.items():
            print("# " + _line(name, values[name], unit))
        if args.workload == "all":
            reported.update({n: (values[n], u) for n, u in names.items()})
            if args.trace:
                reported.update({f"{result['workload']}:{n}":
                                 (values[n], unit_of(n)) for n in PER_LAYER})
        elif args.trace:
            reported = {n: (values[n], unit_of(n)) for n in PER_LAYER}
        else:
            reported = {n: (values[n], u) for n, u in END_TO_END.items()}
    if args.workload == "all":
        reported["setup_s"] = (statistics.median([r["values"]["setup_s"]
                                        for r in results]), "s")
    for name, (value, unit) in reported.items():
        print(_line(name, value, unit))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["drift"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit)
                                  in reported.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
