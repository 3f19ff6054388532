"""The result records and the scalar types that reach them.

`Invariants`, `FunctionalReport` and `ClassificationResult` are immutable
NamedTuples whose `to_dict` hands out containers the caller owns; a numpy
b, omega or c gives the same records, of the same Python types, as the
float of itself.
"""
import numpy as np
import pytest

from dnls_well.classifier import ClassificationResult, classify_thm17, invariant_summary, member
from dnls_well.closedform import ModelParams
from dnls_well.evolve import EvolveConfig, evolve
from dnls_well.field import Field, make_grid
from dnls_well.functionals import Frame, Invariants, invariants, report


def _field():
    g = make_grid(20.0, 256)
    return Field(g, 1.2 * np.exp(-g.x**2) * np.exp(0.3j * g.x))


def _types(x):
    """x with every leaf replaced by its type, containers kept."""
    if isinstance(x, dict):
        return {k: _types(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_types(v) for v in x)
    return type(x)


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


@pytest.mark.parametrize("b", [np.float64(0.1), np.float32(0.1), np.float64(-3.0 / 16.0)])
def test_numpy_scalars_classify_as_their_floats(b):
    f, omega, c = _field(), np.float64(1.0), np.float64(-0.4)
    p, q = ModelParams(b), ModelParams(float(b))
    assert type(p.b) is float and p == q
    if p.b > -3.0 / 16.0:
        assert p.turning == q.turning and _types(p.turning) == _types(q.turning)
    for got, want in (
        (classify_thm17(f, p, np.array([-0.5, 0.5])).to_dict(), classify_thm17(f, q, [-0.5, 0.5]).to_dict()),
        (report(f, p, omega, c, Frame.GAUGE).to_dict(), report(f, q, 1.0, -0.4, Frame.GAUGE).to_dict()),
        (report(f, p, np.float32(0.7), np.float32(0.3), 0.0).to_dict(),
         report(f, q, float(np.float32(0.7)), float(np.float32(0.3)), 0.0).to_dict()),
        (member(invariant_summary(f, p, 0.0), p, omega, c), member(invariant_summary(f, q, 0.0), q, 1.0, -0.4)),
    ):
        assert got == want and _types(got) == _types(want)
    runs = [
        evolve(f, EvolveConfig(b=bb, gauge_a=0.25, t_end=0.01), monitor=mon)
        for bb, mon in ((b, (omega, c)), (float(b), (1.0, -0.4)))
    ]
    assert runs[0].drift == runs[1].drift and runs[0].grad_history == runs[1].grad_history
    assert runs[0].k_signs == runs[1].k_signs and _types(runs[0].k_signs) == _types(runs[1].k_signs)
    assert runs[0].apriori_bound == runs[1].apriori_bound


@pytest.mark.parametrize("b", ["0.1", None])
def test_model_params_refuses_a_b_that_is_not_real(b):
    with pytest.raises(TypeError):
        ModelParams(b)


def test_invariants_of_a_numpy_b_are_floats():
    inv = invariants(_field(), ModelParams(np.float32(0.1)).b, 0.25)
    assert type(inv) is Invariants and all(type(x) is float for x in inv)
