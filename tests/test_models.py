import json

import pytest

from helpers import (
    con_sigma_view,
    fin_hom_reference,
    hom_into_regular,
    n_bounded_hom_oracle,
)
from hornsep import normalize, parse_abox, parse_signature, parse_tbox
from hornsep.models import (
    Interpretation,
    UniversalModel,
    enumerate_connected_substructures,
    materialize,
    prefix_interpretation,
    type_graph,
)
from hornsep.reasoner import InconsistentABoxError
from hornsep.syntax import Role


def nt(text):
    return normalize(parse_tbox(text))


def sig(text):
    return parse_signature(text)


def test_materialize_depth_zero_keeps_individuals_only():
    t = nt("A sub some r B")
    interp = materialize(UniversalModel(t, parse_abox("A(a)")), 0)
    assert interp.elements == {"a"}
    assert "A" in interp.labels["a"]


def test_materialize_adds_anonymous_successors():
    t = nt("A sub some r B\nB sub some r B")
    interp = materialize(UniversalModel(t, parse_abox("A(a)")), 2)
    # a, its B-successor, and that element's own successor
    assert len(interp.elements) == 3
    anon = [e for e in interp.elements if e != "a"]
    assert all("B" in interp.labels[e] for e in anon)
    assert len(interp.edges) == 2


def test_materialize_respects_role_hierarchy():
    t = nt("A sub some r B\nr subr s")
    interp = materialize(UniversalModel(t, parse_abox("A(a)\nr(a,b)")), 1)
    names = {r for _x, r, _y in interp.edges}
    assert names == {"r", "s"}


def test_materialize_inconsistent_raises():
    with pytest.raises(InconsistentABoxError):
        materialize(UniversalModel(nt("A sub bot"), parse_abox("A(a)")), 0)


def test_materialize_json_stable_within_run():
    t = nt("A sub some r B\nB sub some s A")
    one = materialize(UniversalModel(t, parse_abox("A(a)")), 3).to_json()
    two = materialize(UniversalModel(t, parse_abox("A(a)")), 3).to_json()
    assert one == two
    json.loads(one)


def test_type_graph_finite_on_infinite_model():
    # the canonical model is an infinite chain, the type graph is not
    tg = type_graph(nt("A sub some r A"), frozenset({"A"}))
    assert len(tg.nodes) == 2
    prefix = prefix_interpretation(tg, tg.root, 3)
    assert len(prefix.elements) == 4


def test_hom_into_regular_positive_and_negative():
    tg = type_graph(nt("A sub some r B"), frozenset({"A"}))
    q = Interpretation()
    q.add_element(0, {"A"})
    q.add_element(1, {"B"})
    q.add_role_edge(0, Role("r"), 1)
    s = sig("concepts: A B\nroles: r")
    assert hom_into_regular(q, tg, s)
    q.add_role_edge(1, Role("r"), 0)  # now needs a cycle
    assert not hom_into_regular(q, tg, s)


def test_enumerate_connected_substructures_counts():
    interp = Interpretation()
    for e in (0, 1, 2):
        interp.add_element(e)
    interp.add_role_edge(0, Role("r"), 1)
    interp.add_role_edge(0, Role("r"), 2)
    subs = list(enumerate_connected_substructures(interp, 0, 3))
    # {0}, {0,1}, {0,2}, {0,1,2}
    assert len(subs) == 4
    assert all(0 in s.elements for s in subs)


def test_n_bounded_hom_oracle_reflexive():
    t = nt("A sub some r B\nB sub some s A")
    tg = type_graph(t, frozenset({"A"}))
    s = sig("concepts: A B\nroles: r s")
    assert n_bounded_hom_oracle(tg, tg, s, 3)


def test_n_bounded_hom_oracle_direction_flip_still_maps():
    # finite pieces of a forward chain map into an inverse chain by
    # shifting deep enough; only the infinite chain itself would not
    s = sig("concepts: B\nroles: r")
    src = type_graph(nt("B sub some r B"), frozenset({"B"}))
    tgt = type_graph(nt("B sub some inv(r) B"), frozenset({"B"}))
    assert n_bounded_hom_oracle(src, tgt, s, 3)


def test_n_bounded_hom_oracle_edgeless_target():
    s = sig("concepts: B\nroles: r")
    src = type_graph(nt("B sub some r B"), frozenset({"B"}))
    tgt = type_graph(nt(""), frozenset({"B"}))
    assert n_bounded_hom_oracle(src, tgt, s, 1)
    assert not n_bounded_hom_oracle(src, tgt, s, 2)


def test_con_sigma_view_filters_edges():
    t = nt("A sub some r B\nA sub some s C")
    tg = type_graph(t, frozenset({"A"}))
    view = con_sigma_view(tg, sig("concepts: A B C\nroles: r"))
    assert len(view.nodes) == 2
    assert all(
        any(x.name == "r" for x in rho)
        for node in view.nodes
        for _r, rho, _c in view.out[node]
    )


def test_fin_hom_reference_cases():
    s = sig("concepts: B\nroles: r")
    # chain into edgeless target fails as soon as one edge must map
    assert not fin_hom_reference(nt(""), {"B"}, nt("B sub some r B"),
                                 {"B"}, s, 2)
    # identical chains map, and so do direction-flipped ones
    assert fin_hom_reference(nt("B sub some r B"), {"B"},
                             nt("B sub some r B"), {"B"}, s, 3)
    assert fin_hom_reference(nt("B sub some inv(r) B"), {"B"},
                             nt("B sub some r B"), {"B"}, s, 3)

