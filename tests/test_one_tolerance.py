"""The rank tolerance is one constant, not a setting carried by values."""

import dataclasses
import inspect

import numpy as np
import pytest

from tripletflow import (cayley, cli, famindex, gelfand, relspace, sturm,
                         symbols, triplet, verify)

MODULES = (relspace, cayley, gelfand, triplet, sturm, famindex, symbols,
           verify, cli)


def _signatures(module):
    """(qualified name, signature) of every public callable of the
    module's __all__, and of the public methods of its classes."""
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj) or (inspect.isclass(obj)
                                 and issubclass(obj, Exception)):
            continue
        yield f"{module.__name__}.{name}", inspect.signature(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                func = getattr(obj, attr)
                if callable(func):
                    yield (f"{module.__name__}.{name}.{attr}",
                           inspect.signature(func))


def test_no_public_callable_takes_a_tolerance():
    with_tol = sorted(qualname for module in MODULES
                      for qualname, sig in _signatures(module)
                      if "tol" in sig.parameters)
    assert with_tol == []


@pytest.mark.parametrize("cls", [cayley.SymmetricModel, gelfand.GelfandTriple,
                                 symbols.SymbolPoint])
def test_value_dataclasses_have_no_tolerance_field(cls):
    assert "tol" not in {f.name for f in dataclasses.fields(cls)}


def test_values_carry_no_tolerance(rng):
    model = cayley.random_symmetric_model(rng, 4, 1)
    values = [
        relspace.Subspace.full(2),
        relspace.LinearRelation.graph_of(np.eye(2)),
        sturm.robin_relations([1.0, 2.0]),
        model,
        gelfand.identity_triple(2),
        symbols.SymbolPoint.dirac(np.array([[1j]])),
        triplet.MatrixBoundaryProblem(model),
        sturm.RellichBoundaryProblem(),
    ]
    assert [type(v).__name__ for v in values if hasattr(v, "tol")] == []
