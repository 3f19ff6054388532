"""The result records.

`Invariants`, `FunctionalReport` and `ClassificationResult` are immutable
NamedTuples whose `to_dict` hands out containers the caller owns.  That a
numpy b, omega or c gives the same records, of the same Python types, as the
float of itself is `tests/test_scalar_contract.py`'s.
"""
import numpy as np
import pytest

from dnls_well.classifier import ClassificationResult, classify_thm17
from dnls_well.closedform import ModelParams
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, invariants, report


def _field():
    g = make_grid(20.0, 256)
    return Field(g, 1.2 * np.exp(-g.x**2) * np.exp(0.3j * g.x))


def _records():
    f, p = _field(), ModelParams(0.1)
    return (
        invariants(f, p.b, 0.25),
        report(f, p, 1.0, 0.4, Frame.GAUGE),
        classify_thm17(f, p, [-0.5, 0.0, 0.5]),
    )


def test_records_are_immutable_tuples_of_their_fields():
    for rec in _records():
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0.0)
        with pytest.raises(AttributeError):
            rec.extra = 0.0
        assert rec == tuple(rec) == tuple(getattr(rec, name) for name in rec._fields)


def test_to_dict_keys_keep_their_order():
    _, rep, res = _records()
    assert list(rep.to_dict()) == [
        "frame", "b", "omega", "c", "energy", "mass", "momentum", "action",
        "nehari", "ell", "ii", "l4", "l6", "grad_sq", "gn_ratio",
    ]
    assert list(res.to_dict()) == [
        "mass", "energy", "momentum", "theorem17_case", "global_existence", "m_star",
        "s_star", "boundary_soliton", "witness_omega", "witness_c", "apriori_bound", "per_s",
    ]
    assert ClassificationResult(1.0, 0.0, 0.0, "ii", True).to_dict()["per_s"] == []


def test_to_dict_is_a_copy_the_caller_owns():
    _, rep, res = _records()
    before_rep, before_res = rep.to_dict(), res.to_dict()
    d = rep.to_dict()
    d["energy"] = 0.0
    d.clear()
    d = res.to_dict()
    assert d["per_s"] == before_res["per_s"] and d["per_s"] is not res.per_s
    row = d["per_s"][0]
    row["verdict"] = "changed"
    row["J"].append([0.0, 1.0])
    row["J"][0][0] = -1.0
    row["k_signs"].clear()
    d["per_s"].append({})
    d["mass"] = 0.0
    assert rep.to_dict() == before_rep
    assert res.to_dict() == before_res


@pytest.mark.parametrize("b", ["0.1", None])
def test_model_params_refuses_a_b_that_is_not_real(b):
    with pytest.raises(TypeError):
        ModelParams(b)

