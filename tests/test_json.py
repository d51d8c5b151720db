"""Round trips of the JSON fixture formats described in the README."""

import json

import numpy as np
import pytest

from tripletflow import cayley as cy
from tripletflow import cli
from tripletflow import relspace as rs

from conftest import random_complex


def through_text(obj):
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("entry", [["1", "2"], [1, 2, 3], 1])
def test_matrix_from_json_rejects_entries_that_are_not_pairs(entry):
    # the dense-matrix decoder is gone; its entries go through the pair codec
    # that the relation decoder reads its basis with
    obj = through_text(rs.relation_to_json(
        rs.LinearRelation.graph_of(np.array([[1.0]]))))
    obj["basis"][0] = entry
    with pytest.raises(ValueError, match=r"\[re, im\] pairs of numbers"):
        rs.relation_from_json(obj)


def test_model_mu_is_read_by_the_pair_codec(rng):
    obj = through_text(cy.model_to_json(cy.random_symmetric_model(rng, 3, 1)))
    obj["mu"] = [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match=r"\[re, im\] pairs of numbers"):
        cy.model_from_json(obj)


@pytest.mark.parametrize("pair", [[True, False], [False, True], [True, 0],
                                  [0.5, False], [1, True]])
def test_pairs_reject_json_booleans(rng, tmp_path, pair):
    # numpy promotes a bool among numbers, so mixed pairs must be read too
    error = r"basis entries must be \[re, im\] pairs of numbers"
    obj = through_text(rs.relation_to_json(
        rs.LinearRelation.graph_of(np.array([[1.0]]))))
    obj["basis"][0] = pair
    with pytest.raises(ValueError, match=error):
        rs.relation_from_json(obj)
    fixture = tmp_path / "family.json"
    fixture.write_text(json.dumps(
        {"samples": [{"theta": 0.0, "relation": obj}]}))
    with pytest.raises(ValueError, match=error):
        cli._load_family(str(fixture))
    model = cy.model_to_json(cy.random_symmetric_model(rng, 3, 1))
    bad_basis, bad_mu = through_text(model), through_text(model)
    bad_basis["T"]["basis"][-1] = pair
    bad_mu["mu"] = pair
    for bad in (bad_basis, bad_mu):
        with pytest.raises(ValueError, match=error):
            cy.model_from_json(bad)


def test_a_basis_of_json_booleans_is_rejected():
    with pytest.raises(ValueError, match=r"\[re, im\] pairs of numbers"):
        rs.relation_from_json({"dom_dim": 1, "cod_dim": 1,
                               "basis": [[True, False], [False, False]]})


def test_relation_round_trip(rng):
    rel = rs.LinearRelation.from_span(3, 2, random_complex(rng, 5, 3))
    obj = through_text(rs.relation_to_json(rel))
    assert obj["dom_dim"] == 3 and obj["cod_dim"] == 2
    # column-major [re, im] pairs of the orthonormal basis
    assert len(obj["basis"]) == 5 * 3
    first = rel.graph.basis[:, 0]
    assert obj["basis"][:5] == [[z.real, z.imag] for z in first]
    back = rs.relation_from_json(obj)
    assert (back.dom_dim, back.cod_dim, back.dim) == (3, 2, 3)
    assert back.gap(rel) <= 1e-12


@pytest.mark.parametrize("bad", [1.9, 1.0, "1", True, None])
def test_dimensions_must_be_json_integers(rng, bad):
    obj = through_text(rs.relation_to_json(
        rs.LinearRelation.graph_of(np.array([[1.0]]))))
    obj["dom_dim"] = bad
    with pytest.raises(ValueError, match="must be integers"):
        rs.relation_from_json(obj)
    model = through_text(cy.model_to_json(cy.random_symmetric_model(rng, 3,
                                                                    1)))
    model["dim"] = bad
    with pytest.raises(ValueError, match="JSON integer"):
        cy.model_from_json(model)


def test_model_dim_must_match_its_relations(rng):
    obj = through_text(cy.model_to_json(cy.random_symmetric_model(rng, 3,
                                                                  1)))
    assert obj["dim"] == 3
    assert cy.model_from_json(obj).dim == 3
    obj["dim"] = 7
    with pytest.raises(ValueError, match="dim is 7, not the JSON integer 3"):
        cy.model_from_json(obj)


def test_relation_from_json_reads_the_pairs_exactly(rng):
    # signed zeros, a subnormal, an integer and a large value survive the text
    # and the array conversion bit for bit: the relation read back is
    # from_span of the very matrix that was written
    mat = random_complex(rng, 4, 2)
    mat[0, 0] = complex(-0.0, 5e-324)
    mat[1, 1] = complex(3.0, -0.0)
    mat[2, 0] = complex(1e150, -1e-300)
    obj = through_text({"dom_dim": 1, "cod_dim": 3,
                        "basis": [[z.real, z.imag] for z in mat.T.ravel()]})
    obj["basis"][7] = [3, 0]
    mat[3, 1] = 3.0
    exact = rs._complex_pairs(obj["basis"])
    expected = np.array([complex(re, im) for re, im in obj["basis"]])
    assert exact.tobytes() == expected.tobytes()
    back = rs.relation_from_json(obj)
    ref = rs.LinearRelation.from_span(1, 3, mat)
    assert back.graph.basis.tobytes() == ref.graph.basis.tobytes()
    for bad in (["x", 0.0], ["1", "2"], None, 1, [1.0], [1.0, 2.0, 3.0],
                [1, 2, 3], [[1.0], 2.0]):
        broken = through_text(obj)
        broken["basis"][5] = bad
        with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
            rs.relation_from_json(broken)


def test_model_round_trip(rng):
    model = cy.random_symmetric_model(rng, 6, 2, mu=0.3 + 2j)
    obj = through_text(cy.model_to_json(model))
    assert obj["dim"] == 6 and obj["mu"] == [0.3, 2.0]
    back = cy.model_from_json(obj)
    assert back.dim == model.dim and back.mu == model.mu
    assert back.T.gap(model.T) <= 1e-12
    assert back.A.gap(model.A) <= 1e-12
    assert back.kminus.dim == model.kminus.dim == 2
