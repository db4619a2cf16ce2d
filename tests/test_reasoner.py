import itertools
import random
import warnings

import pytest

from conftest import within
from helpers import (
    BruteForceReasoner,
    FullSweepIndex,
    ScanIndex,
    chain_problem,
    chase_by_scan,
    criterion6_problem,
    finite_models,
    model_satisfies_raw,
    random_abox,
    random_horn_tbox_text,
    random_tbox_text,
)
from hornsep import entailment, normalize, parse_abox, parse_cq, parse_tbox
from hornsep.models import (
    UniversalModel,
    enumerate_connected_substructures,
    stable_key,
)
from hornsep.reasoner import (
    BOT,
    ConsequenceIndex,
    InconsistentABoxError,
    certain_answers,
    chase,
    index_for,
    is_certain_answer,
)
from hornsep.syntax import CQ, Role


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


def r_children(t, seed):
    """The types of the anonymous r-children of a root of type seed, as
    the TBox's children table lists them."""
    return [t2 for r, _rho, t2 in index_for(t).children(seed) if r == Role("r")]


def test_value_restriction_propagates_backwards():
    # some r A sub B is stored as A sub only inv(r) B; a type with an
    # r-predecessor in A must contain B on the successor side
    succs = r_children(nt("A sub some r C\nsome r A sub B"), {"A"})
    assert any("C" in s for s in succs)


def test_functional_merge():
    """func(r) collapses the two r-successors, so their types join and
    the conjunction fires."""
    t = nt("A sub some r B\nA sub some r C\nB and C sub D\nfunc(r)")
    succs = r_children(t, {"A"})
    assert any({"B", "C", "D"} <= s for s in succs)
    t2 = nt("A sub some r B\nA sub some r C\nB and C sub D")
    assert not any("D" in s for s in r_children(t2, {"A"}))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_functionality_pulls_successor_back():
    # with func(advBy), the asserted adviser and the implied professor
    # coincide, so the implied type flows onto the assertion
    t = nt("PhDStud sub some advBy Prof\nadv subr inv(advBy)\nfunc(advBy)")
    a = parse_abox("PhDStud(a1)\nadv(a0,a1)")
    assert "Prof" in chase(t, a).tp["a0"]
    t_nofunc = nt("PhDStud sub some advBy Prof\nadv subr inv(advBy)")
    assert "Prof" not in chase(t_nofunc, a).tp["a0"]


def test_children_table_derives_each_key_once(monkeypatch):
    """The oracle search on seed-601 criterion-6 draws derives each
    (type, incoming role) entry of a TBox's children table once, however
    many elements, windows and models read it: the table's misses are
    its distinct keys.  ``tbox_entails`` reads a private copy's index,
    so the indexes are those the derivations ran on."""
    derive = ConsequenceIndex._derive_children
    derived = []
    indexes = {}

    def counting(idx, m, rin):
        indexes[id(idx)] = idx
        derived.append((id(idx), m, rin))
        return derive(idx, m, rin)

    monkeypatch.setattr(ConsequenceIndex, "_derive_children", counting)
    rng = random.Random(601)
    for _ in range(20):
        _t1, _t2, p = criterion6_problem(rng)
        entailment.oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 3)
    keys = {(i, *key) for i, idx in indexes.items() for key in idx._children}
    assert len(derived) == len(keys) > 20
    assert set(derived) == keys


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


def test_is_certain_answer_is_membership_in_certain_answers():
    """``is_certain_answer(m, q, t)`` is ``t in certain_answers(m, q)``
    on the models of seed-601 criterion-6 draws over tree ABoxes of up
    to two individuals.  The queries are read off each window, with no,
    one or two answer variables (repeated ones and one that no atom
    mentions included).  The tuples are every tuple of individuals, one
    naming a non-individual and one of the wrong length."""
    rng = random.Random(601)
    seen = set()
    for _ in range(6):
        _t1, _t2, p = criterion6_problem(rng)
        for abox in entailment.enumerate_tree_aboxes(p.sigA, 2):
            for tbox in (p.t1, p.t2):
                m = UniversalModel(tbox, abox)
                if not m.consistent:
                    continue
                window = m.window(2)
                inds = sorted(window.individuals)
                other = next((e for e in sorted(window.elements, key=stable_key)
                              if e not in window.individuals), "nobody")
                bodies = {}
                for top in inds:
                    for sub in enumerate_connected_substructures(
                            window, top, 2):
                        for q, _ans in entailment._queries_from_sub(
                                sub, window.individuals, "cq"):
                            key = (tuple(sorted(q.concept_atoms)),
                                   tuple(sorted(q.role_atoms)))
                            bodies.setdefault(key, q)
                for body in bodies.values():
                    xs = sorted(body.variables())
                    heads = [()] + [(x,) for x in xs] + [
                        (x, y) for x in xs for y in xs] + [(xs[0], "y")]
                    for head in heads:
                        q = CQ(head, set(body.concept_atoms),
                               set(body.role_atoms))
                        want = certain_answers(m, q)
                        tuples = list(itertools.product(inds, repeat=len(head)))
                        tuples += [(other,) + tuple(inds[:1]) * (len(head) - 1),
                                   tuple(inds[:1]) * (len(head) + 1)]
                        kind = len(head), len(set(head)), "y" in head
                        for t in tuples:
                            got = is_certain_answer(m, q, t)
                            assert got == (t in want), (str(q), t)
                            seen.add((kind, got))
    # answers held and refused with every kind of head
    assert len(seen) == 2 * 5, seen


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


def _horn_draws(seed, count, concepts, roles, max_axioms):
    """Fixed draws of ``random_horn_tbox_text`` as (text, NormalTBox)."""
    rng = random.Random(seed)
    for _ in range(count):
        text = random_horn_tbox_text(rng, concepts, roles, max_axioms)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            yield text, nt(text)


def test_edge_rules_match_the_scans_over_the_axioms():
    """On 1,000 fixed draws with value restrictions, functionality, ⊥ and
    inverse role inclusions, the saturation reading ``pushes`` gives the
    closures, successor tuples and children of the scans over the axioms
    (``ScanIndex``), for every seed over the names, and the chase gives
    the types and consistency of ``chase_by_scan`` on random ABoxes with
    forks and self-loops."""
    concepts, roles = ["A", "B", "C"], ["r", "s"]
    seeds = [frozenset(c) for k in range(len(concepts) + 1)
             for c in itertools.combinations(concepts, k)]
    rng = random.Random(25)
    glued = 0
    with within(120):
        for text, t in _horn_draws(2501, 1000, concepts, roles, 5):
            idx, ref = ConsequenceIndex(t), ScanIndex(t)
            for seed in seeds:
                assert idx.closure(seed) == ref.closure(seed), (text, seed)
                for rin in [None, *sorted(idx.roles, key=str)]:
                    assert idx.children(seed, rin) == ref.children(
                        seed, rin), (text, seed, rin)
            assert (idx.cl, idx.ex) == (ref.cl, ref.ex), text
            glued += any(g for r in idx.roles for _a, _b, g in idx.pushes(r))
            for _ in range(3):
                abox = random_abox(rng, concepts, roles, ["a", "b", "c"])
                state = chase(t, abox)
                assert (state.tp, state.consistent) == chase_by_scan(
                    t, abox), (text, abox)
    # the glue rule is reached, not only value restrictions
    assert glued > 40, glued


def test_saturation_matches_model_enumeration_with_func_and_inverses():
    """The saturation against exhaustive search over <= 3 element models
    on 60 fixed draws of up to 4 axioms over A, B and r, with
    functionality, value restrictions, ⊥ and inverse roles.  A seed the
    index calls inconsistent has no element in any model; otherwise
    membership in its closure is entailment over the models."""
    queries = 0
    with within(120):
        for seed in (1, 2):
            for text, t in _horn_draws(seed, 30, ["A", "B"], ["r"], 4):
                brute = BruteForceReasoner(parse_tbox(text), {"A", "B"},
                                           ["r"], max_size=3)
                idx = index_for(t)
                for seed_set in ({"A"}, {"B"}, {"A", "B"}):
                    if not idx.consistent(seed_set):
                        assert brute.subsumes(seed_set, BOT), (text, seed_set)
                        continue
                    for goal in ("A", "B"):
                        queries += 1
                        got = goal in idx.closure(seed_set)
                        want = brute.subsumes(seed_set, goal)
                        assert got == want, (text, sorted(seed_set), goal)
    assert queries > 150, queries


def _brute_force_texts():
    """The TBox texts the ``BruteForceReasoner`` tests draw, with their
    seeds and counts: ``test_subsumption_matches_model_enumeration``,
    ``test_saturation_matches_model_enumeration_with_func_and_inverses``
    and criterion 8, whose draws of seeds and goals are replayed."""
    rng = random.Random(20)
    texts = [random_tbox_text(rng, ["A", "B"], ["r"], 3) for _ in range(12)]
    texts += [text for seed in (1, 2)
              for text, _t in _horn_draws(seed, 30, ["A", "B"], ["r"], 4)]
    rng = random.Random(801)
    queries = 0
    while queries < 500:
        texts.append(random_tbox_text(rng, ["A", "B"], ["r"], 3))
        for _ in range(10):
            rng.sample(["A", "B"], rng.randint(1, 2))
            rng.choice(["A", "B"])
            queries += 1
    return texts


def test_cached_models_are_the_models_of_each_tbox():
    """``BruteForceReasoner`` ANDs cached per-axiom model sets; the models
    it keeps are exactly those of ``finite_models`` that satisfy the TBox
    as a whole, in the same order.  Checked for every TBox the
    brute-force tests draw over the models of at most 2 elements, and for
    the three with the most axioms over those of at most 3."""
    texts = _brute_force_texts()
    assert len(texts) == 122
    by_size = sorted(texts, key=lambda t: -len(parse_tbox(t).cis))
    cases = [(t, 2) for t in texts] + [(t, 3) for t in by_size[:3]]
    for text, size in cases:
        raw = parse_tbox(text)
        want = [m for m in finite_models({"A", "B"}, ["r"], size)
                if model_satisfies_raw(m, raw)]
        got = BruteForceReasoner(raw, {"A", "B"}, ["r"], size).models
        assert [(m.size, m.labels, m.edges) for m in got] == [
            (m.size, m.labels, m.edges) for m in want], (text, size)

