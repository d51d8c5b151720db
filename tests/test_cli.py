import json
import math

import numpy as np
import pytest

from tripletflow import cli
from tripletflow import famindex as fi
from tripletflow import relspace as rs
from tripletflow import sturm
from tripletflow.sturm import kappa_of_theta, robin_relation


def run_cli(args):
    return cli.main(args)


def test_rellich_command(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["rellich", "--samples", "180", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "rellich_report.json").read_text())
    assert report["consistent"] is True
    assert report["winding"] == 1
    assert report["spectral_flow"] == report["winding"]
    lines = (out / "rellich_branches.csv").read_text().split("\n")
    assert lines[0] == "theta,kappa,branch_id,lambda"
    assert len(lines) > 180
    printed = capsys.readouterr().out
    assert '"consistent": true' in printed


def test_rellich_csv_rows_are_the_branch_table(tmp_path):
    assert run_cli(["rellich", "--samples", "97", "--lambda-max", "120",
                    "--out", str(tmp_path)]) == 0
    loop = fi.rellich_eigenvalue_samples(samples=97, lambda_max=120.0)
    kappas = [kappa_of_theta(t) for t in loop.thetas]
    rows = fi.branch_table(loop.thetas, kappas, loop.payloads)
    expected = "".join(
        f"{cli._fmt(theta)},{cli._fmt(kappa)},{bid},{cli._fmt(lam)}\n"
        for theta, kappa, bid, lam in rows)
    text = (tmp_path / "rellich_branches.csv").read_text()
    assert text == "theta,kappa,branch_id,lambda\n" + expected


def test_rellich_fails_on_the_reversed_loop(tmp_path, monkeypatch, capsys):
    # the Robin loop traversed clockwise: both index computations agree on
    # -1, which is not the sign of the Robin loop
    forward = kappa_of_theta
    monkeypatch.setattr(sturm, "kappa_of_theta",
                        lambda t: forward((2.0 * math.pi - t)
                                          % (2.0 * math.pi)))
    code = run_cli(["rellich", "--samples", "180", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "rellich_report.json").read_text())
    assert report["consistent"] is True
    assert report["winding"] == report["spectral_flow"] == -1


def test_rellich_small_sample_budget(tmp_path):
    # eight samples force the refinement path; it must succeed through the
    # loop generator rather than erroring out
    code = run_cli(["rellich", "--samples", "8", "--out", str(tmp_path)])
    assert code == 0


def test_rellich_truncation_keeps_index(tmp_path):
    code = run_cli(["rellich", "--samples", "180", "--lambda-max", "50",
                    "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "rellich_report.json").read_text())
    assert report["winding"] == 1


def test_verify_deterministic(tmp_path, capsys):
    code = run_cli(["verify", "--suite", "sturm", "--seed", "42",
                    "--trials", "10", "--out", str(tmp_path / "a")])
    assert code == 0
    capsys.readouterr()
    code = run_cli(["verify", "--suite", "sturm", "--seed", "42",
                    "--trials", "10", "--out", str(tmp_path / "b")])
    assert code == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "verify_sturm.json").read_bytes()
    b = (tmp_path / "b" / "verify_sturm.json").read_bytes()
    assert a == b


def test_verify_symbols_seed_with_ill_conditioned_sign(capsys):
    # seed 18 draws a symbol whose matrix sign has norm ~340; an absolute
    # stop on ||S^2 - I|| sat below rounding there and the command aborted
    assert run_cli(["verify", "--suite", "symbols", "--seed", "18"]) == 0
    assert '"all_pass": true' in capsys.readouterr().out


def test_verify_csv_format(tmp_path, capsys):
    code = run_cli(["verify", "--suite", "relspace", "--trials", "5",
                    "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    text = (tmp_path / "verify_relspace.csv").read_text()
    assert text.startswith("key,value")
    assert "\r" not in text


def test_verify_bad_suite_exits_two():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


def test_invalid_samples_is_input_error(capsys):
    assert run_cli(["rellich", "--samples", "4"]) == 2
    assert (capsys.readouterr().err
            == "input error: samples must be at least 8\n")


@pytest.mark.parametrize("value", ["inf", "nan", "0.5", "-5"])
def test_invalid_lambda_max_is_input_error(tmp_path, capsys, value):
    # the flow window at level 0 is [-1, 1] and needs every eigenvalue up to
    # 1; below that the walk bisects in vain or misses the crossing
    out = tmp_path / "run"
    assert run_cli(["rellich", "--lambda-max", value, "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == "input error: lambda-max must be a finite number of at least "
               f"1, not {float(value)!r}\n")
    assert not out.exists()


def test_invalid_trials_is_input_error(capsys):
    assert run_cli(["verify", "--trials", "0"]) == 2
    assert (capsys.readouterr().err
            == "input error: trials must be at least 1\n")


def test_index_builtin_family(tmp_path, capsys):
    code = run_cli(["index", "--family", "rellich", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "index_report.json").read_text())
    assert report["winding"] == 1


def test_index_of_the_builtin_family_checks_nothing_again(tmp_path,
                                                          monkeypatch):
    # the built-in loop is self-adjoint by construction: index makes the
    # SVDs of rellich's relation loop and no self-adjointness check
    svd = np.linalg.svd
    counts = {}
    for argv in (["index", "--family", "rellich"],
                 ["rellich", "--out", str(tmp_path)]):
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert run_cli(argv) == 0
        counts[argv[0]] = calls
    assert counts["index"] == counts["rellich"]
    assert len(counts["index"]) == 3


def test_cli_reads_no_private_relation_helper():
    imported = [name for name in vars(cli)
                if name.startswith("_") and not name.startswith("__")
                and getattr(rs, name, None) is getattr(cli, name)]
    assert imported == []


def write_family(path, thetas, relations):
    payload = {"dim": relations[0].dom_dim,
               "samples": [{"theta": float(t),
                            "relation": rs.relation_to_json(r)}
                           for t, r in zip(thetas, relations)]}
    path.write_text(json.dumps(payload))


def test_index_constant_family_file(tmp_path, capsys):
    thetas = np.linspace(0, 2 * math.pi, 32, endpoint=False)
    rel = rs.LinearRelation.graph_of(np.diag([1.0, -2.0]))
    fam = tmp_path / "family.json"
    write_family(fam, thetas, [rel] * len(thetas))
    code = run_cli(["index", "--family", str(fam), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "index_report.json").read_text())
    assert report["winding"] == 0


def test_index_mobius_family_file(tmp_path, capsys):
    thetas = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    rels = [robin_relation(kappa_of_theta(t)) for t in thetas]
    fam = tmp_path / "mobius.json"
    write_family(fam, thetas, rels)
    code = run_cli(["index", "--family", str(fam), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "index_report.json").read_text())
    assert report["winding"] == 1


def test_index_rejects_non_selfadjoint(tmp_path, capsys):
    thetas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    rel = rs.LinearRelation.graph_of(np.array([[1j]]))
    fam = tmp_path / "bad.json"
    write_family(fam, thetas, [rel] * len(thetas))
    assert run_cli(["index", "--family", str(fam)]) == 2


@pytest.mark.parametrize("odd", [
    rs.LinearRelation.graph_of(np.array([[1.0, 2.0], [0.0, 1.0]])),
    rs.LinearRelation.from_span(2, 2, np.eye(4)[:, :1]),
    rs.LinearRelation.from_span(1, 3, np.eye(4)[:, :2]),
], ids=["non-hermitian", "too-small", "non-square"])
def test_index_names_the_one_non_selfadjoint_sample(tmp_path, capsys, odd):
    # only sample 5 is bad: the stacked check must report its theta, not the
    # first sample's
    thetas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    rels = [robin_relation(kappa_of_theta(t)) for t in thetas]
    rels[5] = odd
    fam = tmp_path / "one_bad.json"
    write_family(fam, thetas, rels)
    assert run_cli(["index", "--family", str(fam)]) == 2
    err = capsys.readouterr().err
    assert f"sample at theta={float(thetas[5])} is not a self-adjoint" in err


@pytest.mark.parametrize("case", ["string-entry", "null-entry",
                                  "top-level-list", "zero-dims",
                                  "negative-dim", "mixed-sizes"])
def test_index_malformed_fixture_is_input_error(tmp_path, capsys, case):
    thetas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    fam = tmp_path / "malformed.json"
    write_family(fam, thetas, [robin_relation(kappa_of_theta(t))
                               for t in thetas])
    obj = json.loads(fam.read_text())
    rel = obj["samples"][3]["relation"]
    if case == "string-entry":
        rel["basis"][2] = ["x", 0.0]
    elif case == "null-entry":
        rel["basis"][2] = None
    elif case == "zero-dims":
        rel["dom_dim"] = rel["cod_dim"] = 0
    elif case == "negative-dim":
        # the basis length still divides dom_dim + cod_dim = 1
        rel["dom_dim"], rel["cod_dim"] = -1, 2
    elif case == "mixed-sizes":
        # self-adjoint, but in C^1 + C^1 among samples in C^2 + C^2
        obj["samples"][3]["relation"] = rs.relation_to_json(
            rs.LinearRelation.graph_of(np.eye(1)))
    else:
        obj = obj["samples"]
    fam.write_text(json.dumps(obj))
    assert run_cli(["index", "--family", str(fam)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "Traceback" not in err
    # a malformed fixture is reported as such, not as a bad sample
    assert "self-adjoint" not in err
    if case == "mixed-sizes":
        assert f"sample at theta={float(thetas[3])} is a relation in" in err


@pytest.mark.parametrize("dim, code", [(7, 2), ("1", 2), (None, 0),
                                       (1, 0)])
def test_index_checks_the_declared_dim(tmp_path, capsys, dim, code):
    thetas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    fam = tmp_path / "dim.json"
    write_family(fam, thetas,
                 [rs.LinearRelation.graph_of(np.array([[1.0]]))] * 16)
    obj = json.loads(fam.read_text())
    if dim is None:
        del obj["dim"]
    else:
        obj["dim"] = dim
    fam.write_text(json.dumps(obj))
    assert run_cli(["index", "--family", str(fam)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == (f"input error: malformed family fixture: "
                                f"\"dim\" is {dim!r}, but the samples are "
                                "relations in C^1 + C^1\n")
    else:
        assert json.loads(captured.out)["winding"] == 0


@pytest.mark.parametrize("theta", ["0.5", True, None, [0.5]])
def test_index_theta_must_be_a_json_number(tmp_path, capsys, theta):
    thetas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    fam = tmp_path / "theta.json"
    write_family(fam, thetas,
                 [rs.LinearRelation.graph_of(np.array([[1.0]]))] * 16)
    obj = json.loads(fam.read_text())
    obj["samples"][0]["theta"] = theta
    fam.write_text(json.dumps(obj))
    assert run_cli(["index", "--family", str(fam)]) == 2
    assert capsys.readouterr().err == (
        "input error: malformed family fixture: \"theta\" must be a JSON "
        f"number, not {theta!r}\n")
    # an integer theta is a JSON number
    obj["samples"][0]["theta"] = 0
    fam.write_text(json.dumps(obj))
    assert run_cli(["index", "--family", str(fam)]) == 0


@pytest.mark.parametrize("eps, code", [(5e-9, 0), (1e-6, 2)])
def test_index_judges_the_self_adjointness_gap(tmp_path, capsys, eps, code):
    # entry [0, 0] of sample 5's basis moved by eps: a gap of about eps to
    # its adjoint, judged against 100 * DEFAULT_TOL = 1e-8
    thetas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    fam = tmp_path / "perturbed.json"
    write_family(fam, thetas, [robin_relation(kappa_of_theta(t))
                               for t in thetas])
    obj = json.loads(fam.read_text())
    obj["samples"][5]["relation"]["basis"][0][0] += eps
    fam.write_text(json.dumps(obj))
    assert run_cli(["index", "--family", str(fam), "--out",
                    str(tmp_path)]) == code
    if code:
        assert (f"sample at theta={float(thetas[5])} is not a self-adjoint "
                "relation") in capsys.readouterr().err


def test_missing_family_file_is_input_error(tmp_path, capsys):
    assert run_cli(["index", "--family", str(tmp_path / "missing.json")]) == 2


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TRIPLETFLOW_TOL", "1e-7")
    code = run_cli(["verify", "--suite", "relspace", "--trials", "3",
                    "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["rellich", "--tol", "1e-9"], ["rellich", "--seed", "1"],
    ["rellich", "--trials", "3"], ["rellich", "--format", "csv"],
    ["verify", "--samples", "8"], ["verify", "--lambda-max", "50"],
    ["verify", "--tol", "1e-9"],
    ["index", "--samples", "8"], ["index", "--lambda-max", "50"],
    ["index", "--seed", "1"], ["index", "--trials", "3"],
    ["index", "--tol", "1e-9"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan", "not-a-number"])
def test_index_does_not_read_the_tolerance_variable(monkeypatch, capsys,
                                                    value):
    monkeypatch.delenv("TRIPLETFLOW_TOL", raising=False)
    assert run_cli(["index", "--family", "rellich"]) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("TRIPLETFLOW_TOL", value)
    assert run_cli(["index", "--family", "rellich"]) == 0
    assert capsys.readouterr().out == unset
