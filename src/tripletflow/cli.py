"""Batch entry points: the Robin demonstration, verification suites, and
family-index computation from fixture files.

Output is reproducible byte for byte: JSON is serialized with sorted keys,
CSV uses '.' decimals, '\\n' newlines and 17 significant digits, and all
randomness comes from the seeded generator named in the README.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import famindex as fi
from . import sturm
from . import verify as vf
from .relspace import is_self_adjoint_batch, relation_from_json

__all__ = ["main", "cmd_rellich", "cmd_verify", "cmd_index"]


def _fmt(x):
    return "%.17g" % float(x)


def _json_bytes(obj):
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def _report_bytes(obj, fmt):
    if fmt == "json":
        return _json_bytes(obj)
    lines = ["key,value"]

    def flatten(path, value):
        if isinstance(value, dict):
            for key in sorted(value):
                flatten(f"{path}.{key}" if path else str(key), value[key])
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                flatten(f"{path}[{i}]", item)
        elif isinstance(value, float):
            lines.append(f"{path},{_fmt(value)}")
        else:
            lines.append(f"{path},{value}")

    flatten("", obj)
    return ("\n".join(lines) + "\n").encode()


def _emit_report(obj, args, stem):
    """Write a report to args.out (unless '.') and then to stdout."""
    data = _report_bytes(obj, args.format)
    if args.out not in (".", ""):
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, f"{stem}.{args.format}"), data)
    sys.stdout.write(data.decode())


def cmd_rellich(args):
    """Run the Robin family demonstration: branch CSV plus index report."""
    if args.samples < 8:
        raise ValueError("samples must be at least 8")
    # the flow window at level 0 is [-1, 1]: every eigenvalue up to 1 is
    # needed
    if not (math.isfinite(args.lambda_max) and args.lambda_max >= 1.0):
        raise ValueError("lambda-max must be a finite number of at least 1, "
                         f"not {args.lambda_max!r}")
    # the branch table reuses the eigenvalue loop of the index comparison
    report, eig_loop = fi._robin_index(sturm.kappa_of_theta, args.samples,
                                       args.lambda_max)
    values, ids, valid = fi._branch_ids(eig_loop.payloads)
    os.makedirs(args.out, exist_ok=True)
    # the rows of `fi.branch_table`, written sample by sample from the
    # arrays, so neither the row list nor a joined copy of it is held
    with open(os.path.join(args.out, "rellich_branches.csv"), "w",
              encoding="ascii", newline="\n") as handle:
        handle.write("theta,kappa,branch_id,lambda\n")
        for theta, lams, bids, keep in zip(eig_loop.thetas, values, ids,
                                           valid):
            # the rows of one sample share theta and kappa, formatted once
            head = f"{_fmt(theta)},{_fmt(sturm.kappa_of_theta(theta))},"
            handle.writelines(f"{head}{b},{_fmt(lam)}\n" for b, lam in
                              zip(bids[keep].tolist(), lams[keep].tolist()))
    _write(os.path.join(args.out, "rellich_report.json"),
           _json_bytes(report.to_dict()))
    # +1 is the sign of the Robin loop; -1 would be the loop reversed
    ok = report.consistent and report.winding == 1
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0 if ok else 1


def cmd_verify(args):
    """Run a verification suite and emit per-check residuals."""
    records = vf.run_suite(args.suite, trials=args.trials, seed=args.seed)
    payload = {"suite": args.suite, "seed": args.seed,
               "trials": args.trials, "checks": records,
               "all_pass": vf.all_pass(records)}
    _emit_report(payload, args, f"verify_{args.suite}")
    return 0 if payload["all_pass"] else 1


def _load_family(spec_path):
    """The loop of a family fixture, checked where it is read, or of the
    built-in family, which is self-adjoint by construction."""
    if spec_path == "rellich":
        return fi.rellich_boundary_family()
    with open(spec_path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    thetas = []
    rels = []
    try:
        for sample in obj["samples"]:
            theta = sample["theta"]
            if type(theta) not in (int, float):
                raise TypeError('"theta" must be a JSON number, not '
                                f'{theta!r}')
            thetas.append(float(theta))
            rels.append(relation_from_json(sample["relation"]))
        dim = obj.get("dim")
    except TypeError as exc:
        # a JSON value of the wrong kind where an object, list or number
        # belongs
        raise ValueError(f"malformed family fixture: {exc}") from None
    loop = fi.FamilyLoop(thetas, rels)
    bad = np.flatnonzero(~is_self_adjoint_batch(rels))
    if bad.size:
        raise ValueError(f"sample at theta={thetas[bad[0]]} is not a "
                         "self-adjoint relation")
    # every sample is now self-adjoint: its space is C^m + C^m, m = dom_dim
    n = rels[0].dom_dim
    other = [i for i, rel in enumerate(rels) if rel.dom_dim != n]
    if other:
        m = rels[other[0]].dom_dim
        raise ValueError(f"malformed family fixture: sample at "
                         f"theta={thetas[other[0]]} is a relation in "
                         f"C^{m} + C^{m}, not in C^{n} + C^{n} as the first "
                         "sample")
    if dim is not None and (type(dim) is not int or dim != n):
        raise ValueError(f"malformed family fixture: \"dim\" is {dim!r}, "
                         f"but the samples are relations in C^{n} + C^{n}")
    return loop


def cmd_index(args):
    """Family index of a loop of self-adjoint relations from a fixture file."""
    loop = _load_family(args.family)
    report = fi.IndexReport(None, fi.relation_family_index(loop))
    _emit_report(report.to_dict(), args, "index_report")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tripletflow",
        description="Boundary-triplet verification suites and circle-family "
                    "indices on exact models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rellich = sub.add_parser(
        "rellich", help="spectral flow and Cayley winding of the Robin loop")
    p_rellich.add_argument("--samples", type=int, default=720)
    p_rellich.add_argument("--lambda-max", type=float,
                           default=sturm._ROBIN_LAMBDA_MAX, dest="lambda_max")
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all",
                          choices=sorted(vf.SUITES) + ["all"])
    p_verify.add_argument("--trials", type=int, default=vf._TRIALS,
                          help=f"trials per suite (default: {vf._TRIALS})")
    p_verify.add_argument("--seed", type=int, default=42,
                          help="seed of the random draws (default: 42)")
    p_index = sub.add_parser(
        "index", help="family index from a loop fixture file")
    p_index.add_argument("--family", default="rellich",
                         help="fixture path or the built-in name 'rellich'")
    for p in (p_verify, p_index):
        p.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (p_rellich, p_verify, p_index):
        p.add_argument("--out", type=str, default=".")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {"rellich": cmd_rellich, "verify": cmd_verify,
                "index": cmd_index}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except fi.RefinementError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
