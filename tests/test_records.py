"""Value semantics of the package's records: repr, equality, hashing, pickling, immutability."""

import pickle
from fractions import Fraction as F

import numpy as np
import pytest

import weylstat as ws
from weylstat import clt, depgraph, formulas, stats, weyl
from weylstat.rootsys import Component, FamilySpec


def _regime():
    return clt.RegimeClassification(1, 0, 4, "C", (("A", 0.5, True), ("B", 2.0, False)))


def _sample_run(samples=(0, 1, 1, 0)):
    return stats.SampleRun("A2", {"psi": ["N[1,2]"]}, 3, 4, np.array(samples), F(1, 2), F(1, 3))


def _report():
    return clt.CLTReport("A2", "inversions", 1, 2, 1, F(1), F(1, 3), 5, 100, 0.37, 10.5, _regime())


def _graph():
    rs = ws.build("A2")
    return depgraph.build_graph(rs, rs.roots)


# name -> (a fresh record, a record of the same type that differs, its repr,
# a field that cannot be assigned, or None for a mutable record)
RECORDS = {
    "Component": (lambda: Component("B", 3), lambda: Component("C", 3),
                  "Component(family='B', rank=3)", "family"),
    "FamilySpec": (lambda: ws.parse_spec("A2xG2"), lambda: ws.parse_spec("A2"),
                   "FamilySpec(components=(Component(family='A', rank=2), "
                   "Component(family='G2', rank=2)))", "components"),
    "WPartitionCounts": (lambda: stats.WPartitionCounts(1, 2, 3, 4),
                         lambda: stats.WPartitionCounts(1, 2, 4, 3),
                         "WPartitionCounts(pp=1, pm=2, mp=3, mm=4)", "pp"),
    "SampleRun": (_sample_run, lambda: stats.SampleRun("A2", {}, 3, 4, np.array([0]), F(0), F(0)),
                  "SampleRun(spec='A2', descriptor={'psi': ['N[1,2]']}, seed=3, n_samples=4, "
                  "sample_mean=Fraction(1, 2), sample_variance=Fraction(1, 3))", None),
    "WeylElement": (lambda: weyl.longest_element(ws.build("B2")),
                    lambda: weyl.identity(ws.build("B2")),
                    "WeylElement(parts=(SignedPermPart(perm=(1, 2), signs=(-1, -1)),))", "parts"),
    "RegimeClassification": (_regime, lambda: clt.RegimeClassification(1, 0, 4, "C", ()),
                             "RegimeClassification(r_a=1, r_b=0, r_c=4, regime='C', "
                             "rates=(('A', 0.5, True), ('B', 2.0, False)))", "r_a"),
    # CLTReport was a mutable record; nothing assigns its fields
    "CLTReport": (_report, lambda: clt.clt_report(ws.build("A2"), 1, "inversions", 100, 5),
                  "CLTReport(spec='A2', statistic='inversions', d=1, k=2, delta=1, "
                  "mean=Fraction(1, 1), variance=Fraction(1, 3), seed=5, n_samples=100, ks=0.37, "
                  "janson_m3=10.5, regime=RegimeClassification(r_a=1, r_b=0, r_c=4, regime='C', "
                  "rates=(('A', 0.5, True), ('B', 2.0, False))))", None),
    "VarianceQuery": (lambda: formulas.VarianceQuery("A", 5, 2, "descents"),
                      lambda: formulas.VarianceQuery("A", 5, 2, "inversions"),
                      "VarianceQuery(family='A', n=5, d=2, statistic='descents')", "family"),
    "BlockCovariancesB": (lambda: formulas.BlockCovariancesB(F(1, 2), F(-1, 3), F(0), F(5, 4), F(1, 4)),
                          lambda: formulas.block_covariances_b(4, 2),
                          "BlockCovariancesB(pn2=Fraction(1, 2), no2=Fraction(-1, 3), "
                          "po2=Fraction(0, 1), pp=Fraction(5, 4), oo=Fraction(1, 4))", "pn2"),
    "DependencyGraph": (_graph, lambda: depgraph.build_graph(ws.build("A2"), ws.build("A2").roots[:1]),
                        "DependencyGraph(vertices=(0, 1, 2), adjacency={0: frozenset({1, 2}), "
                        "1: frozenset({0, 2}), 2: frozenset({0, 1})}, max_degree=2, "
                        "component_sizes=(3,))", "vertices"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_values(name):
    make, make_other, text, _ = RECORDS[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name and a is not b
    assert repr(a) == repr(b) == text
    assert a == b and not a != b
    assert a != other and not a == other
    if name == "DependencyGraph":  # its adjacency is a dict
        with pytest.raises(TypeError):
            hash(a)
    elif type(a).__hash__ is not None:
        assert hash(a) == hash(b)
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a) and copy == a and repr(copy) == text


@pytest.mark.parametrize("name", [name for name, entry in RECORDS.items() if entry[3]])
def test_frozen_records_refuse_assignment(name):
    make, _, _, field = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_sample_run_equality_ignores_the_samples():
    a, b = _sample_run((0, 1, 1, 0)), _sample_run((1, 1, 0, 0, 1))
    assert a == b and not a != b
    assert type(a).__hash__ is None
    copy = pickle.loads(pickle.dumps(a))
    assert copy.samples.tolist() == [0, 1, 1, 0] and copy.values == [0, 1, 1, 0]


def test_elements_of_twin_systems_are_equal():
    parts = (weyl.SignedPermPart((2, 1), (1, -1)),)
    u, v = weyl.element(ws.build("B2"), parts), weyl.element(ws.build("B2"), parts)
    assert u.system is not v.system
    assert u == v and not u != v and hash(u) == hash(v)
    w = weyl.element(ws.build("C2"), parts)
    assert u != w and not u == w


@pytest.mark.parametrize("make", [
    lambda: Component("E", 6), lambda: Component("G2", 3), lambda: Component(family="B", rank=1),
    lambda: FamilySpec(()), lambda: FamilySpec(components=()),
])
def test_invalid_records_are_refused_at_construction(make):
    with pytest.raises(ws.InvalidSpecError):
        make()
