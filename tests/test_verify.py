import inspect
import math

import pytest

from tripletflow import cayley as cy
from tripletflow import cli
from tripletflow import sturm
from tripletflow import verify as vf


def _by_name(records):
    return {r["name"]: r for r in records}


def test_cayley_suite_builds_each_extension_once(monkeypatch):
    calls = []
    boundary_data = cy.boundary_data
    monkeypatch.setattr(cy, "boundary_data",
                        lambda model: calls.append(model.mu)
                        or boundary_data(model))
    monkeypatch.setattr(cy, "extension_from_relation",
                        lambda *args: pytest.fail("extension built twice"))
    records = _by_name(vf.suite_cayley(trials=4, seed=7))
    # one extension at i and one at -i per trial, both from the check
    assert calls == [1j, -1j] * 4
    assert records["selfadjoint_extensions"]["residual"] == 0.0
    assert records["selfadjoint_extensions"]["pass"]


def test_reversed_robin_loop_fails_the_index_checks(monkeypatch):
    forward = sturm.kappa_of_theta
    # the Robin loop traversed clockwise: index -1, not the +1 of the
    # convention, although every winding still agrees with the others
    monkeypatch.setattr(sturm, "kappa_of_theta",
                        lambda t: forward((2.0 * math.pi - t)
                                          % (2.0 * math.pi)))
    records = _by_name(vf.suite_famindex(seed=42))
    assert not records["weyl_shift_homotopy_invariance"]["pass"]
    assert not records["index_theorem_consistency"]["pass"]
    assert records["conjugation_invariance"]["pass"]


def test_forward_robin_loop_passes_the_index_checks():
    records = _by_name(vf.suite_famindex(seed=42))
    assert records["weyl_shift_homotopy_invariance"]["pass"]
    assert records["index_theorem_consistency"]["pass"]


def test_every_suite_and_the_cli_share_one_trials_default():
    defaults = {inspect.signature(f).parameters["trials"].default
                for f in [*vf.SUITES.values(), vf.run_suite]}
    args = cli._build_parser().parse_args(["verify"])
    assert defaults == {args.trials} == {50}
