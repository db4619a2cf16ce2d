import itertools
import random

import pytest

from conftest import within
from helpers import (
    BruteForceReasoner,
    FullSweepIndex,
    chain_problem,
    criterion6_problem,
    random_tbox_text,
)
from hornsep import normalize, parse_abox, parse_cq, parse_tbox
from hornsep.models import UniversalModel
from hornsep.reasoner import (
    ConsequenceIndex,
    InconsistentABoxError,
    certain_answers,
    chase,
    index_for,
    succ_rel,
)
from hornsep.syntax import Role


def nt(text):
    return normalize(parse_tbox(text))


def test_subsumption_chain():
    idx = index_for(nt("A sub B\nB sub C"))
    assert "C" in idx.closure({"A"})
    assert "A" not in idx.closure({"C"})


def test_conjunction_and_bot():
    idx = index_for(nt("A and B sub C\nC sub bot"))
    assert "C" in idx.closure({"A", "B"})
    assert "C" not in idx.closure({"A"})
    # an inconsistent seed entails everything
    assert "A" in idx.closure({"A", "B"})
    assert not idx.consistent({"A", "B"})


def test_value_restriction_propagates_backwards():
    # some r A sub B is stored as A sub only inv(r) B; a type with an
    # r-predecessor in A must contain B on the successor side
    t = nt("some r A sub B")
    succs = succ_rel(nt("A sub some r C\nsome r A sub B"), {"A"}, Role("r"))
    assert any("C" in s for s in succs)


def test_functional_merge():
    """func(r) collapses the two r-successors, so their types join and
    the conjunction fires."""
    t = nt("A sub some r B\nA sub some r C\nB and C sub D\nfunc(r)")
    succs = succ_rel(t, {"A"}, Role("r"))
    assert any({"B", "C", "D"} <= s for s in succs)
    t2 = nt("A sub some r B\nA sub some r C\nB and C sub D")
    assert not any("D" in s for s in succ_rel(t2, {"A"}, Role("r")))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_functionality_pulls_successor_back():
    # with func(advBy), the asserted adviser and the implied professor
    # coincide, so the implied type flows onto the assertion
    t = nt("PhDStud sub some advBy Prof\nadv subr inv(advBy)\nfunc(advBy)")
    a = parse_abox("PhDStud(a1)\nadv(a0,a1)")
    assert "Prof" in chase(t, a).tp["a0"]
    t_nofunc = nt("PhDStud sub some advBy Prof\nadv subr inv(advBy)")
    assert "Prof" not in chase(t_nofunc, a).tp["a0"]


def test_role_hierarchy_closure():
    t = nt("r subr s\ns subr inv(q)")
    idx = index_for(t)
    assert idx.role_subsumes(Role("r"), Role("q", True))
    assert idx.role_subsumes(Role("r", True), Role("q"))
    assert not idx.role_subsumes(Role("q"), Role("r"))


def test_types_is_a_closure_operator():
    idx = index_for(nt("A sub B\nB and C sub D"))
    cl = idx.type_of({"A", "C"})
    assert {"A", "B", "C", "D"} <= cl
    assert idx.type_of(cl) == cl


def test_chase_detects_inconsistency():
    t = nt("A sub bot")
    assert not chase(t, parse_abox("A(a)")).consistent
    m = UniversalModel(t, parse_abox("A(a)"))
    with pytest.raises(InconsistentABoxError):
        certain_answers(m, parse_cq("q(x) <- A(x)"))


def test_certain_answers_simple():
    t = nt("A sub some r B")
    a = parse_abox("A(x)\nr(x,y)\nB(z)")
    m = UniversalModel(t, a)
    assert certain_answers(m, parse_cq("q(v) <- B(v)")) == {("z",)}
    # the anonymous r-successor answers the boolean query
    assert certain_answers(m, parse_cq("q() <- r(v,w), B(w)")) == {()}


def test_certain_answers_join():
    t = nt("")
    a = parse_abox("r(x,y)\nr(z,y)\nA(y)")
    q = parse_cq("q(u,v) <- r(u,w), r(v,w), A(w)")
    assert certain_answers(UniversalModel(t, a), q) == {
        ("x", "x"), ("x", "z"), ("z", "x"), ("z", "z")
    }


def test_certain_answers_merge_components():
    # the components with answer variables are matched together, in the
    # order of the answer variables; the Boolean one is checked alone
    abox = parse_abox("A(a)\nA(b)\nC(c)")
    m = UniversalModel(nt("C sub some r B"), abox)
    q = parse_cq("q(u,v) <- A(u), C(v), r(w,w2), B(w2)")
    assert certain_answers(m, q) == {("a", "c"), ("b", "c")}
    q_swapped = parse_cq("q(v,u) <- A(u), C(v), r(w,w2), B(w2)")
    assert certain_answers(m, q_swapped) == {("c", "a"), ("c", "b")}
    assert certain_answers(m, parse_cq("q(u,u) <- A(u)")) == {
        ("a", "a"), ("b", "b")
    }
    # without the axiom nothing has an r-successor in B
    assert certain_answers(UniversalModel(nt(""), abox), q) == set()


def test_anonymous_elements_do_not_answer():
    # answer variables range over individuals only
    t = nt("A sub some r B")
    m = UniversalModel(t, parse_abox("A(x)"))
    assert certain_answers(m, parse_cq("q(v) <- B(v)")) == set()
    assert certain_answers(m, parse_cq("q() <- B(v)")) == {()}


def test_subsumption_matches_model_enumeration():
    """Randomized cross-check of the saturation reasoner against
    exhaustive search over <= 3 element models (the heavyweight 500-query
    run lives in the acceptance suite)."""
    rng = random.Random(20)
    for _ in range(12):
        text = random_tbox_text(rng, ["A", "B"], ["r"], 3)
        t = nt(text)
        brute = BruteForceReasoner(parse_tbox(text), {"A", "B"}, ["r"],
                                   max_size=3)
        for seed in ({"A"}, {"B"}, {"A", "B"}):
            for goal in ("A", "B"):
                got = goal in index_for(t).closure(seed)
                want = brute.subsumes(seed, goal)
                assert got == want, (text, sorted(seed), goal, got, want)


def _saturated(index, seeds):
    for seed in seeds:
        index.register(seed)
    return index.cl, index.ex


def _assert_order_independent(tbox, names, rng):
    """Registering every subset of the names, in sorted, reversed and
    shuffled order, gives the closures and successor tuples of the full
    sweep, for every context the saturation made."""
    seeds = [
        frozenset(c)
        for k in range(len(names) + 1)
        for c in itertools.combinations(sorted(names), k)
    ]
    want = _saturated(FullSweepIndex(tbox), seeds)
    shuffled = list(seeds)
    rng.shuffle(shuffled)
    for order in (seeds, seeds[::-1], shuffled):
        assert _saturated(ConsequenceIndex(tbox), order) == want


def test_saturation_matches_the_full_sweep_in_any_order():
    rng = random.Random(11)
    with within(120):
        draws = random.Random(601)
        for _ in range(200):
            _t1, _t2, p = criterion6_problem(draws)
            names = p.sigA.concepts | p.sigQ.concepts
            for t in (p.t1, p.t2):
                _assert_order_independent(t, names | t.concept_names(), rng)
        for n in range(1, 10):
            p = chain_problem(n)
            for t in (p.t1, p.t2):
                _assert_order_independent(t, t.concept_names(), rng)


def test_new_names_reach_contexts_registered_inconsistent():
    # {A} and {B} are inconsistent and registered before {Z} brings in a
    # name the TBox does not mention; their closures must take it too
    t = nt("A sub bot\nB sub some r A")
    _assert_order_independent(t, {"A", "B", "Z"}, random.Random(3))
    idx = ConsequenceIndex(t)
    idx.register({"A"})
    idx.register({"B"})
    idx.register({"Z"})
    assert "Z" in idx.cl[frozenset({"A"})]
    assert "Z" in idx.cl[frozenset({"B"})]
    assert idx.cl[frozenset({"Z"})] == {"Z"}
