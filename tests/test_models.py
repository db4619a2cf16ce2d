import json
import random
import warnings

import pytest

from helpers import (
    TwinModel,
    con_sigma_view,
    criterion6_problem,
    fin_hom_reference,
    hom_into_regular,
    n_bounded_hom_oracle,
    random_abox,
    random_horn_tbox_text,
    substructures_by_whole_window,
)
from hornsep import (
    entailment,
    normalize,
    parse_abox,
    parse_signature,
    parse_tbox,
)
from hornsep.entailment import enumerate_tree_aboxes
from hornsep.models import (
    Interpretation,
    UniversalModel,
    enumerate_connected_substructures,
    materialize,
    prefix_interpretation,
    stable_key,
    type_graph,
)
from hornsep.reasoner import InconsistentABoxError, certain_answers
from hornsep.syntax import Role, cq_to_text


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


def test_named_successor_along_a_functional_role_has_no_anonymous_twin():
    # func(r) makes b the one r-successor of a, so the window gives a no
    # anonymous r-child, and b takes B from the existential
    t = nt("A sub some r B\nfunc(r)")
    window = UniversalModel(t, parse_abox("A(a)\nr(a,b)")).window(1)
    assert "B" in window.labels["b"]
    assert not [e for e in window.elements
                if isinstance(e, tuple) and e[:2] == ("a", "r")]
    assert ("a", "r", "b") in window.edges


def test_a_named_successor_has_no_anonymous_twin():
    """Along a non-functional role too, a named successor gets no
    anonymous copy: a's B-child is the one its existential asks for, and
    b has no inv(r)-child with a's type.  The depth-2 window holds
    exactly these three elements."""
    t = nt("A sub some r B")
    window = UniversalModel(t, parse_abox("A(a)\nr(a,b)")).window(2)
    assert sorted(map(stable_key, window.elements)) == [
        "(a,r,{B})", "a", "b"]
    child = ("a", "r", frozenset({"B"}))
    assert window.edges == {("a", "r", "b"), ("a", "r", child)}


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


def _criterion6_models(draws):
    """The consistent universal models of both TBoxes over the tree
    ABoxes of up to two individuals, on seed-601 criterion-6 draws."""
    rng = random.Random(601)
    for _ in range(draws):
        _t1, _t2, p = criterion6_problem(rng)
        for abox in enumerate_tree_aboxes(p.sigA, 2):
            for tbox in (p.t1, p.t2):
                m = UniversalModel(tbox, abox)
                if m.consistent:
                    yield p, m


def _answers_with_and_without_twins(tboxes, abox, sig, count):
    """Ask each distinct cq candidate read off the depth-3 window of the
    last TBox's twin model (its ``sig`` reduct, unless sig is None), of
    substructures of at most three elements, of every consistent model
    of the TBoxes with and without twins; count the windows that twins
    change and the answer sets compared."""
    tm = TwinModel(tboxes[-1], abox)
    if not tm.consistent:
        return
    window = tm.window(3)
    if window.to_json() != UniversalModel(tm.tbox, abox).window(3).to_json():
        count["twinned"] += 1
    if sig is not None:
        window = entailment._sigma_reduct(window, sig)
    pairs = [(UniversalModel(t, abox), TwinModel(t, abox)) for t in tboxes]
    pairs = [(m, twin) for m, twin in pairs if m.consistent]
    asked = set()
    for top in sorted(window.elements, key=stable_key):
        for sub in enumerate_connected_substructures(window, top, 3):
            for q, _ans in entailment._queries_from_sub(
                    sub, window.individuals, "cq"):
                if cq_to_text(q) in asked:
                    continue
                asked.add(cq_to_text(q))
                for m, twin in pairs:
                    assert certain_answers(m, q) == certain_answers(
                        twin, q), (cq_to_text(q), m.abox)
                    count["compared"] += 1


def test_certain_answers_do_not_depend_on_twins():
    """A universal model without anonymous twins of named successors
    gives the certain answers of the one with them (``TwinModel``) to
    every candidate query read off the twin model's depth-3 windows:
    the oracle's candidates under T2, asked under T1 and T2, on seed-601
    criterion-6 draws 0-29 with tree ABoxes of up to two individuals,
    and on 40 seed-16 ``random_horn_tbox_text`` draws over A, B, r and s
    (functionality, value restrictions, bot, inverses) with two
    ``random_abox`` ABoxes each over a, b and c, forks and self-loops
    included."""
    c6 = {"compared": 0, "twinned": 0}
    rng = random.Random(601)
    for _ in range(30):
        _t1, _t2, p = criterion6_problem(rng)
        for abox in enumerate_tree_aboxes(p.sigA, 2):
            _answers_with_and_without_twins((p.t1, p.t2), abox, p.sigQ, c6)
    horn = {"compared": 0, "twinned": 0}
    rng = random.Random(16)
    for _ in range(40):
        text = random_horn_tbox_text(rng, ["A", "B"], ["r", "s"], 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            t = nt(text)
        for _ in range(2):
            abox = random_abox(rng, ["A", "B"], ["r", "s"], ["a", "b", "c"])
            _answers_with_and_without_twins((t,), abox, None, horn)
    assert c6["compared"] > 15000 and c6["twinned"] > 300
    assert horn["compared"] > 1000 and horn["twinned"] > 40


def test_bounded_enumeration_equals_the_whole_window_one():
    """Exploring only max_size - 1 steps from the root, with each
    element's neighbours read off the window's index, yields the list
    that the whole-window tree order with explicitly sorted neighbours
    yields: on the depth-3 windows of criterion-6 models and on their
    query-signature reducts (forests when a role is dropped), for every
    root and sizes 1-4."""
    compared = 0
    for p, m in _criterion6_models(10):
        window = m.window(3)
        for interp in (window, entailment._sigma_reduct(window, p.sigQ)):
            for root in sorted(interp.elements, key=stable_key):
                for size in (1, 2, 3, 4):
                    got = list(enumerate_connected_substructures(
                        interp, root, size))
                    want = substructures_by_whole_window(interp, root, size)
                    assert got == want, (root, size)
                    compared += len(got)
    assert compared > 20000


@pytest.mark.parametrize("order", [(1, 2, 3), (3, 2, 1), (2, 0, 3)])
def test_windows_asked_in_any_order_equal_fresh_ones(order):
    """A model's window equals a fresh ``materialize`` at its depth,
    whatever order the depths are asked in, and asking a depth again
    returns the window the model holds, with its JSON unchanged."""
    checked = 0
    for _p, m in _criterion6_models(10):
        built = {}
        for depth in order:
            window = m.window(depth)
            fresh = UniversalModel(m.tbox, m.abox)
            assert window.to_json() == materialize(fresh, depth).to_json()
            built[depth] = (window, window.to_json())
            for shallow, (w, js) in built.items():
                assert m.window(shallow) is w and w.to_json() == js
        checked += 1
    assert checked > 100


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

