import collections
import dataclasses
import random
import sys
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import problem, within
from helpers import (
    ScanIndex,
    chain_problem,
    closed_sets_by_subsets,
    criterion6_problem,
    derivation_sets_by_subsets,
    eval_formula,
    initial_classes_by_label,
    live_assignments_by_position,
    random_horn_tbox_text,
    random_regular_tree,
    small_trees,
    solve_cobuchi_by_rescans,
)
from hornsep import automata, entailment, normalize, parse_signature
from hornsep import parse_tbox
from hornsep.automata import (
    FALSE,
    MAX_LABELS,
    TRUE,
    RegularTreeRep,
    StateRule,
    TwoWayAutomaton,
    UnsupportedAutomatonError,
    build_A1,
    build_A2,
    build_A3,
    build_A4,
    build_label_context,
    down_allbut,
    down_ex,
    f_and,
    f_or,
    formula_atoms,
    here,
    intersect,
    is_empty,
    run_on_regular_tree,
    sat_assignments,
    up_may,
    up_must,
    _DemandSearch,
    _closed_sets,
    _independent_sets,
    _minimal_derivations,
    _plan_to_rep,
    _solve_cobuchi,
)
from hornsep.entailment import (
    _run_pipeline,
    build_pipeline,
    decide_cq_entailment,
    oracle_witness_search,
    tbox_entails,
    verify_witness,
)
from hornsep.models import stable_key
from hornsep.reasoner import index_for
from hornsep.syntax import ResourceLimitError, Signature, TopSub
from test_decision_golden import FIXTURES, GOLDEN, _certificates, _decide


def toy(name, rules, init, pri, labels, root_labels=None):
    rr = {q: StateRule(lambda l: l, body) for q, body in rules.items()}
    return TwoWayAutomaton(name, init, pri, rr, labels, root_labels)


def pipeline(p):
    """The automata pipeline's (entails, certificate, stats) on the cq
    problem p, which the decision's witness-first search may settle
    before the pipeline runs."""
    return _run_pipeline(p.t1, p.t2, p.sigA, p.sigQ, False)


LABS = ["a", "b"]
LEAF = RegularTreeRep({"n0": "a"}, {"n0": []}, "n0")
LOOP = RegularTreeRep({"n0": "a", "n1": "a"}, {"n0": ["n1"], "n1": ["n1"]},
                      "n0")


# -- formulas --------------------------------------------------------------


def test_formula_simplification():
    assert f_and() is TRUE
    assert f_or() is FALSE
    assert f_and(here("q"), FALSE) is FALSE
    assert f_or(here("q"), TRUE) is TRUE
    assert f_and(TRUE, here("q")) == here("q")


def test_sat_assignments_are_minimal_and_satisfying():
    f = f_and(f_or(here("p"), here("q")), down_ex("r"))
    asgs = sat_assignments(f)
    for a in asgs:
        assert eval_formula(f, lambda atom: atom in a)
    # no assignment strictly contains another
    for a in asgs:
        for b in asgs:
            assert not (a < b)
    assert len(asgs) == 2


@st.composite
def formulas(draw, depth=3):
    atoms = [here("p"), here("q"), up_must("p"), down_ex("q"),
             down_allbut("p", 0), up_may("q")]
    if depth == 0:
        return draw(st.sampled_from(atoms + [TRUE, FALSE]))
    op = draw(st.integers(0, 2))
    if op == 0:
        return draw(st.sampled_from(atoms + [TRUE, FALSE]))
    parts = draw(
        st.lists(formulas(depth=depth - 1), min_size=1, max_size=3)
    )
    return f_and(*parts) if op == 1 else f_or(*parts)


@given(f=formulas())
@settings(max_examples=80, deadline=None)
def test_sat_assignments_property(f):
    asgs = sat_assignments(f)
    if f is FALSE:
        assert asgs == []
        return
    for a in asgs:
        assert eval_formula(f, lambda atom: atom in a)
    # dropping any atom from a minimal assignment breaks it
    for a in asgs:
        for atom in a:
            smaller = a - {atom}
            assert not eval_formula(f, lambda x: x in smaller)


def test_formula_atoms_collects_all():
    f = f_and(here("p"), f_or(down_ex("q"), up_must("r")))
    tags = {a[0] for a in formula_atoms(f)}
    assert tags == {"here", "dx", "up!"}


# -- membership game -------------------------------------------------------


def test_accept_everything():
    a = toy("t", {"q0": lambda l: TRUE}, "q0", {"q0": 0}, LABS)
    assert run_on_regular_tree(a, LEAF)
    assert run_on_regular_tree(a, LOOP)


def test_priority_one_self_loop_rejects():
    a = toy("t", {"q0": lambda l: down_ex("q0")}, "q0", {"q0": 1}, LABS)
    assert not run_on_regular_tree(a, LEAF)
    assert not run_on_regular_tree(a, LOOP)
    assert is_empty(a).empty


def test_priority_zero_self_loop_accepts_infinite_branch():
    a = toy("t", {"q0": lambda l: down_ex("q0")}, "q0", {"q0": 0}, LABS)
    assert not run_on_regular_tree(a, LEAF)
    assert run_on_regular_tree(a, LOOP)
    # the emptiness search must find the looping witness
    res = is_empty(a)
    assert not res.empty
    assert run_on_regular_tree(a, res.certificate)


def test_label_sensitive_transitions():
    a = toy(
        "t",
        {
            "q0": lambda l: f_and(TRUE if l == "a" else FALSE,
                                  f_or(down_ex("q1"), TRUE)),
            "q1": lambda l: TRUE if l == "b" else FALSE,
        },
        "q0",
        {"q0": 0, "q1": 0},
        LABS,
    )
    ab = RegularTreeRep({"n0": "a", "n1": "b"}, {"n0": ["n1"]}, "n0")
    ba = RegularTreeRep({"n0": "b", "n1": "a"}, {"n0": ["n1"]}, "n0")
    assert run_on_regular_tree(a, ab)
    assert not run_on_regular_tree(a, ba)


def test_upward_moves_and_root_restriction():
    a = toy(
        "t",
        {
            "q0": lambda l: down_ex("q1") if l == "a" else FALSE,
            "q1": lambda l: f_and(TRUE if l == "b" else FALSE,
                                  up_must("q2")),
            "q2": lambda l: TRUE if l == "a" else FALSE,
        },
        "q0",
        {"q0": 0, "q1": 0, "q2": 0},
        LABS,
        root_labels=["a"],
    )
    res = is_empty(a)
    assert not res.empty
    assert sorted(res.certificate.labels.values()) == ["a", "b"]


@pytest.mark.xfail(strict=True, reason="an up move from a back-edge copy "
                   "reads the spanning-tree parent, not the unfolding's")
def test_game_resolves_up_moves_from_back_edge_copies():
    # the unfolding of n0(a) -> n1(b) -> n1 is a, b, b, ...: the second
    # b has a b-labelled parent, so q2's up move cannot reach an a
    a = toy(
        "t",
        {
            "q0": lambda l: down_ex("q1"),
            "q1": lambda l: f_and(TRUE if l == "b" else FALSE,
                                  down_ex("q2")),
            "q2": lambda l: up_must("q3"),
            "q3": lambda l: TRUE if l == "a" else FALSE,
        },
        "q0",
        {"q0": 0, "q1": 0, "q2": 0, "q3": 0},
        LABS,
    )
    rep = RegularTreeRep({"n0": "a", "n1": "b"}, {"n0": ["n1"], "n1": ["n1"]},
                         "n0")
    assert not run_on_regular_tree(a, rep)


@st.composite
def arenas(draw):
    """Game arenas of 1-9 positions: each maps to (owner, priority, up to
    3 moves), with repeated moves and dead ends."""
    n = draw(st.integers(1, 9))
    bit, pos = st.integers(0, 1), st.integers(0, n - 1)
    return {p: (draw(bit), draw(bit), tuple(draw(st.lists(pos, max_size=3))))
            for p in range(n)}


@given(info=arenas())
@settings(max_examples=300, deadline=None)
def test_cobuchi_solver_agrees_with_the_rescanning_reference(info):
    for start in info:
        assert _solve_cobuchi(info, start) == solve_cobuchi_by_rescans(
            info, start), start


def test_certificate_games_agree_with_the_rescanning_reference(monkeypatch):
    """Every membership game ``is_empty`` plays on the golden certificate
    cases gets the reference's verdict.  The c6 draws have relaxed plans
    the game rejects, so both verdicts occur."""
    verdicts = collections.Counter()

    def checked(info, start):
        got = _solve_cobuchi(info, start)
        assert got == solve_cobuchi_by_rescans(info, start)
        verdicts[got] += 1
        return got

    monkeypatch.setattr(automata, "_solve_cobuchi", checked)
    _certificates()
    assert verdicts[True] and verdicts[False], verdicts


def test_box_and_diamond_interaction():
    a = toy(
        "t",
        {
            "q0": lambda l: f_and(down_ex("q1"), down_allbut("qb", 0)),
            "q1": lambda l: TRUE,
            "qb": lambda l: TRUE if l == "b" else FALSE,
        },
        "q0",
        {"q0": 0, "q1": 0, "qb": 0},
        LABS,
    )
    res = is_empty(a)
    assert not res.empty
    assert run_on_regular_tree(a, res.certificate)


def test_allbut_one_forces_distinct_children():
    a = toy(
        "t",
        {
            "q0": lambda l: f_and(down_ex("qa"), down_ex("qb"),
                                  down_allbut("qa", 1)),
            "qa": lambda l: TRUE if l == "a" else FALSE,
            "qb": lambda l: TRUE if l == "b" else FALSE,
        },
        "q0",
        {"q0": 0, "qa": 0, "qb": 0},
        LABS,
    )
    res = is_empty(a)
    assert not res.empty
    cert = res.certificate
    kids = sorted(cert.labels[c] for c in cert.children[cert.root])
    assert kids == ["a", "b"]


def _toys():
    return [
        toy("t_true", {"q0": lambda l: TRUE}, "q0", {"q0": 0}, LABS),
        toy("t_pri1", {"q0": lambda l: down_ex("q0")}, "q0", {"q0": 1},
            LABS),
        toy("t_pri0", {"q0": lambda l: down_ex("q0")}, "q0", {"q0": 0},
            LABS),
        toy(
            "t_box",
            {
                "q0": lambda l: f_and(down_ex("q1"), down_allbut("qb", 0)),
                "q1": lambda l: TRUE,
                "qb": lambda l: TRUE if l == "b" else FALSE,
            },
            "q0",
            {"q0": 0, "q1": 0, "qb": 0},
            LABS,
        ),
        # q0 and q1 spawn each other at the same node, on label a only
        toy(
            "t_here_cycle",
            {"q0": lambda l: here("q1") if l == "a" else FALSE,
             "q1": lambda l: here("q0") if l == "a" else FALSE},
            "q0",
            {"q0": 0, "q1": 0},
            LABS,
        ),
        toy("t_here_false",
            {"q0": lambda l: here("q1"), "q1": lambda l: FALSE},
            "q0", {"q0": 0, "q1": 0}, LABS),
    ]


def _toy(name):
    return next(a for a in _toys() if a.name == name)


def test_emptiness_agrees_with_small_tree_enumeration():
    # t_pri0 is accepted only by trees with a back edge, t_pri1 by none.
    # The toys make no up moves, so the game judges back edges exactly.
    trees = list(small_trees(LABS, 3))
    for a in _toys():
        accepted = any(run_on_regular_tree(a, rep) for rep in trees)
        assert is_empty(a).empty == (not accepted), a.name


def _chain_rules(n):
    """A chain of n nodes whose last node reads a: state c<i> asks some
    child for c<i+1>, and c<n> asks for a."""
    rules = {f"c{i}": (lambda l, i=i: down_ex(f"c{i + 1}"))
             for i in range(1, n)}
    rules[f"c{n}"] = lambda l: TRUE if l == "a" else FALSE
    return rules


def _chain_toy(n):
    rules = _chain_rules(n)
    return toy(f"chain{n}", rules, "c1", {q: 0 for q in rules}, LABS)


def _up_or_chain_toy(n):
    """The root asks a child for q.  q either asks its parent for p,
    which no node can be in, or starts a chain of n nodes below it: the
    shallow option leaves a need, only the deep one realizes none."""
    rules = _chain_rules(n)
    rules.update(
        r=lambda l: down_ex("q"),
        q=lambda l: f_or(up_must("p"), down_ex("c1")),
        p=lambda l: FALSE,
    )
    return toy(f"upchain{n}", rules, "r", {q: 0 for q in rules}, LABS)


def test_priority_zero_here_cycle_is_live():
    """The liveness table is a greatest fixpoint: a state justified only
    through a priority-0 cycle of here spawns is live, and the one-node
    tree labelled a is accepted.  A least fixpoint would call it dead."""
    a = _toy("t_here_cycle")
    res = is_empty(a)
    assert not res.empty
    assert res.certificate.labels[res.certificate.root] == "a"
    assert run_on_regular_tree(a, res.certificate)


def test_here_spawn_of_a_false_state_is_dead():
    a = _toy("t_here_false")
    res = is_empty(a)
    assert res.empty
    assert res.stats["work"] == 0


def test_liveness_agrees_with_the_per_position_table(monkeypatch):
    """The liveness table shared by here-closure signature gives, on
    every call, what the per-position table gives: on the fixtures in
    all modes, and on the pipelines of chain n=1..12 and of the
    criterion-6 draws 0-24 that ``tbox_entails`` leaves open."""
    refs = weakref.WeakKeyDictionary()
    inner = _DemandSearch.live_assignments
    calls = 0

    def checked(search, q, i, is_root):
        nonlocal calls
        calls += 1
        got = inner(search, q, i, is_root)
        table = refs.setdefault(search, {})
        assert got == live_assignments_by_position(search, table, q, i,
                                                    is_root)
        return got

    monkeypatch.setattr(_DemandSearch, "live_assignments", checked)
    rng = random.Random(601)
    draws = [criterion6_problem(rng)[2] for _ in range(25)]
    with within(120):
        for case in GOLDEN:
            _decide(*case.split("/"))
        for n in range(1, 13):
            pipeline(chain_problem(n))
        for p in draws:
            if not tbox_entails(p.t1, p.t2):
                pipeline(p)
    assert calls


def test_eval_label_hands_its_liveness_lookups_to_close(monkeypatch):
    """``eval_label`` checks every copy with ``live_assignments`` and
    hands the results to ``_close`` as its starting ``asg_here``, so
    ``_close`` looks none of them up again: on the pipelines of chain
    n=1..7 the lookups fall from 5,357, with ``_close`` starting empty,
    to 4,370 or fewer, and the verdicts and stats (the work included)
    stay the same."""
    inner_live = _DemandSearch.live_assignments
    inner_close = _DemandSearch._close
    calls = 0

    def counted(search, *args):
        nonlocal calls
        calls += 1
        return inner_live(search, *args)

    def starting_empty(search, proc, *args):
        if not proc:  # eval_label's call; _assemble's has processed copies
            args = args[:-1] + ({},)
        return inner_close(search, proc, *args)

    def decide_chains():
        nonlocal calls
        calls = 0
        runs = [pipeline(chain_problem(n)) for n in range(1, 8)]
        return [(entails, stats) for entails, _cert, stats in runs], calls

    monkeypatch.setattr(_DemandSearch, "live_assignments", counted)
    handed, handed_calls = decide_chains()
    monkeypatch.setattr(_DemandSearch, "_close", starting_empty)
    alone, alone_calls = decide_chains()
    assert handed == alone
    assert alone_calls == 5357 and handed_calls <= 4370, (alone_calls,
                                                          handed_calls)


def test_chain_runs_the_liveness_fixpoint_once_per_walk(monkeypatch):
    """A state's liveness is tabled per group of labels equal on the
    layers its here-closure reads, and a miss in that table walks the
    closure and runs the fixpoint once, filling the table for the whole
    closure: chain n=7 runs it once per walk, at most 100 times (92),
    where a table per label position ran it 737 times.  Each walk starts
    at a ``live.get`` that finds nothing, which counts the walks."""
    runs = walks = 0
    inner = automata._live_fixpoint

    def counted(cand):
        nonlocal runs
        runs += 1
        return inner(cand)

    class Live(dict):
        def get(self, key, default=None):
            nonlocal walks
            hit = super().get(key, default)
            walks += hit is None
            return hit

    init = _DemandSearch.__init__

    def counting_init(search, *args):
        init(search, *args)
        search.live = Live()

    monkeypatch.setattr(automata, "_live_fixpoint", counted)
    monkeypatch.setattr(_DemandSearch, "__init__", counting_init)
    p = chain_problem(7)
    assert not is_empty(build_pipeline(p.t1, p.t2, p.sigA, p.sigQ)[1]).empty
    assert 0 < runs == walks <= 100, (runs, walks)


def _budgeted_stages(a):
    """The budgeted search's depth-6 stage and then its fixpoint stage,
    both from one start copy, so that the fixpoint starts from every
    value the first stage stored: the certificates of each stage."""
    search = _DemandSearch(a, False)
    start = frozenset([(search.ids[a.initial], 4)])
    return [[_plan_to_rep(plan) for plan in search.root_plans(start, depth)]
            for depth in (6, None)]


def test_depth_schedule_finds_deeper_chains_in_later_stages():
    """The relaxed pass's fixpoint stage finds each tree at once.  In the
    budgeted search the first stage stops at depth 6 below the root; the
    second has no depth bound, and results the search keeps from the
    first must not hide a deeper tree."""
    # in the budgeted stages, q realizes at depth 6 only the need for p,
    # which kills the root; the fixpoint must look for q's deeper tree,
    # which needs nothing.  The 18-node chain lies far below depth 6.
    for a, nodes in ((_chain_toy(8), 8), (_up_or_chain_toy(8), 10),
                     (_chain_toy(18), 18)):
        res = is_empty(a)
        assert not res.empty and res.stats["stages"] == 1
        assert res.stats["certificate_nodes"] == nodes
        assert run_on_regular_tree(a, res.certificate)
        shallow, deep = _budgeted_stages(a)
        assert not shallow and deep, a.name
        for rep in deep:
            assert rep.node_count() == nodes
            assert run_on_regular_tree(a, rep)


def test_nesting_past_the_recursion_limit_fails_loudly():
    """The fixpoint stage recurses once per nested position, with no
    depth bound; past Python's recursion limit it refuses with a
    resource error, as for the work limit (exit 13 on the CLI)."""
    with pytest.raises(ResourceLimitError, match="recursion limit"):
        is_empty(_chain_toy(1000))


def test_shallow_result_does_not_hide_a_tree_within_the_caps():
    """The root takes either a child a1, which leads four levels down to
    another q, or q directly.  Only {p}, a need nobody meets, fits q's
    result five levels down in the depth-6 stage, and the root's own
    child q reuses it there; the fixpoint stage must still find the
    14-node tree r, q, c1 ... c12."""
    rules = _chain_rules(12)
    rules.update(
        r=lambda l: f_or(down_ex("a1"), down_ex("q")),
        a1=lambda l: down_ex("a2"),
        a2=lambda l: down_ex("a3"),
        a3=lambda l: down_ex("a4"),
        a4=lambda l: f_and(down_ex("q"), up_must("p")),
        q=lambda l: f_or(up_must("p"), down_ex("c1")),
        p=lambda l: FALSE,
    )
    a = toy("shallow_hides", rules, "r", {q: 0 for q in rules}, LABS)
    ids = [f"n{i}" for i in range(14)]
    chain = RegularTreeRep({n: "a" for n in ids},
                           {n: ids[i + 1:i + 2] for i, n in enumerate(ids)},
                           "n0")
    assert run_on_regular_tree(a, chain)
    assert not is_empty(a).empty


def test_fixpoint_stage_ties_a_cycle_below_the_root():
    """r -> c1 -> ... -> c8 -> c1, all priority 0: only the regular tree
    whose c8 node has a back edge to c1 is accepted, and the position of
    c1 is met again while it is still open, eight levels down."""
    rules = {f"c{i}": (lambda l, i=i: down_ex(f"c{i % 8 + 1}"))
             for i in range(1, 9)}
    rules["r"] = lambda l: down_ex("c1")
    a = toy("cycle8", rules, "r", {q: 0 for q in rules}, LABS)
    ids = [f"n{i}" for i in range(9)]
    kids = {n: ids[i + 1:i + 2] for i, n in enumerate(ids)}
    kids["n8"] = ["n1"]
    assert run_on_regular_tree(a, RegularTreeRep(
        {n: "a" for n in ids}, kids, "n0"))
    res = is_empty(a)
    assert not res.empty and res.stats["stages"] == 1
    assert res.stats["certificate_nodes"] == 9
    assert run_on_regular_tree(a, res.certificate)
    shallow, deep = _budgeted_stages(a)
    assert not shallow
    assert [rep.node_count() for rep in deep] == [9]
    assert run_on_regular_tree(a, deep[0])


def test_fixpoint_stage_repeats_a_round_when_a_value_read_open_grows():
    """r asks for children x and y; x = a and (some y or some c1); y = b
    and some x, with priority 1; c1 .. c20 is a chain.  In round 1, y
    reads x while x is open and x's stored value is still empty, so y is
    stored empty and r has no plan.  x then needs nothing through c1,
    so round 2 reads x's new value and finds the 44-node tree."""
    rules = _chain_rules(20)
    rules.update(
        r=lambda l: f_and(down_ex("x"), down_ex("y")),
        x=lambda l: f_and(TRUE if l == "a" else FALSE,
                          f_or(down_ex("y"), down_ex("c1"))),
        y=lambda l: f_and(TRUE if l == "b" else FALSE, down_ex("x")),
    )
    pri = {q: 0 for q in rules}
    pri["y"] = 1
    a = toy("two_rounds", rules, "r", pri, LABS)
    res = is_empty(a)
    assert not res.empty and res.stats["stages"] == 1
    assert res.stats["certificate_nodes"] == 44
    assert run_on_regular_tree(a, res.certificate)
    shallow, deep = _budgeted_stages(a)
    assert not shallow and deep
    for rep in deep:
        assert rep.node_count() == 44
        assert run_on_regular_tree(a, rep)
    search = _DemandSearch(a, True)
    start = frozenset([(search.ids["r"], 0)])
    assert not list(search.root_plans(start, 6))
    assert len(list(search.root_plans(start, None))) >= 1
    assert search.round == 2


def test_fixpoint_stage_finding_nothing_ends_the_search():
    """q0 asks some child for q0, with priority 1: only an infinite
    branch has a run, and it meets priority 1 forever, so the repeating
    one-node loop is rejected.  The relaxed fixpoint stage ties no back
    edge through a priority-1 copy and finds no finite tree, which proves
    the product empty after that one stage."""
    a = toy("t", {"q0": lambda l: down_ex("q0")}, "q0", {"q0": 1}, LABS)
    assert not run_on_regular_tree(a, LOOP)
    res = is_empty(a)
    assert res.empty and res.stats == {"work": 12, "stages": 1}


def test_back_edge_plans_carry_no_needs():
    """q0 = here q3 and some child in q1; q1 = b, up! q3 and some child
    in q1; q3 = a.  Every q1 node needs an a-labelled parent and a q1
    child, whose parent is labelled b, so no tree is accepted.  A back
    edge from q1's child to q1's own node would need nothing of its
    parent, while the node it repeats needs q3 there."""
    a = toy(
        "t",
        {
            "q0": lambda l: f_and(here("q3"), down_ex("q1")),
            "q1": lambda l: f_and(TRUE if l == "b" else FALSE,
                                  up_must("q3"), down_ex("q1")),
            "q3": lambda l: TRUE if l == "a" else FALSE,
        },
        "q0",
        {"q0": 0, "q1": 0, "q3": 0},
        LABS,
    )
    assert is_empty(a).empty


def test_back_edge_plans_do_not_hide_finite_trees():
    """r = here p and some child in x; p = c; x = a, up! p and some child
    in y; y = b and (some child in x, or up! s and some child in z);
    s = a.  y's back edge to x needs nothing, y's chain to z needs s;
    x's plan over the back edge still needs p, now from y's b node, so
    it is dropped, and y's plan needing s must not have been dropped
    with it: the 4-node tree c, a, b, z is accepted."""
    def lab(x):
        return lambda l: TRUE if l == x else FALSE

    a = toy(
        "t",
        {
            "r": lambda l: f_and(here("p"), down_ex("x")),
            "p": lab("c"),
            "x": lambda l: f_and(lab("a")(l), up_must("p"), down_ex("y")),
            "y": lambda l: f_and(lab("b")(l), f_or(
                down_ex("x"), f_and(up_must("s"), down_ex("z")))),
            "s": lab("a"),
            "z": lambda l: TRUE,
        },
        "r",
        dict.fromkeys("rpxysz", 0),
        ["a", "b", "c"],
    )
    res = is_empty(a)
    assert not res.empty and res.stats["certificate_nodes"] == 4
    assert run_on_regular_tree(a, res.certificate)


def test_no_back_edge_ties_to_the_root_evaluation():
    """q0 = a and (some child in q1 and up? p, or up! s and some child in
    z); q1 = some child in q0; p = false, s = true, z = c.  At the root
    q0 skips its up? atom, so a back edge from the q0 two levels down to
    the root would repeat a node that never had to meet p.  Below the
    root q0 can only take up! s and a c-labelled child, so the accepted
    tree is the finite one a, a, a, c."""
    def lab(x):
        return lambda l: TRUE if l == x else FALSE

    a = toy(
        "t",
        {
            "q0": lambda l: f_and(lab("a")(l), f_or(
                f_and(down_ex("q1"), up_may("p")),
                f_and(up_must("s"), down_ex("z")))),
            "q1": lambda l: down_ex("q0"),
            "p": lambda l: FALSE,
            "s": lambda l: TRUE,
            "z": lab("c"),
        },
        "q0",
        dict.fromkeys(["q0", "q1", "p", "s", "z"], 0),
        ["a", "b", "c"],
    )
    res = is_empty(a)
    assert not res.empty and res.stats["certificate_nodes"] == 4
    cert = res.certificate
    kids = [c for n in cert.labels for c in cert.children[n]]
    assert sorted(kids) == sorted(set(cert.labels) - {cert.root})
    assert run_on_regular_tree(a, cert)


def test_priorities_above_one_are_refused():
    a = toy("t", {"q0": lambda l: TRUE}, "q0", {"q0": 2}, LABS)
    with pytest.raises(UnsupportedAutomatonError):
        is_empty(a)
    with pytest.raises(UnsupportedAutomatonError):
        run_on_regular_tree(a, LEAF)


def test_child_counts_above_one_are_refused():
    a = toy(
        "t",
        {"q0": lambda l: down_ex("q1", 2), "q1": lambda l: TRUE},
        "q0",
        {"q0": 0, "q1": 0},
        LABS,
    )
    with pytest.raises(UnsupportedAutomatonError):
        is_empty(a)
    # the count sits only in an assignment that spawns a dead state here,
    # which the search never draws; it is refused all the same
    a = toy(
        "t",
        {"q0": lambda l: f_or(f_and(here("qf"), down_ex("q1", 2)),
                              here("q1")),
         "q1": lambda l: TRUE, "qf": lambda l: FALSE},
        "q0",
        {"q0": 0, "q1": 0, "qf": 0},
        LABS,
    )
    with pytest.raises(UnsupportedAutomatonError):
        is_empty(a)


def test_intersection_is_conjunction_on_random_trees():
    components = [_toy(name) for name in ("t_true", "t_pri1", "t_box")]
    prod = intersect(components)
    rng = random.Random(3)
    for _ in range(20):
        rep = random_regular_tree(rng, LABS, 5)
        want = all(run_on_regular_tree(a, rep) for a in components)
        assert run_on_regular_tree(prod, rep) == want


# -- pipeline automata -----------------------------------------------------


@pytest.fixture(scope="module")
def advisor_parts():
    t1 = normalize(parse_tbox(
        "PhDStud sub some advBy Prof\nadv subr inv(advBy)"))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t2 = normalize(parse_tbox(
            "PhDStud sub some advBy Prof\nadv subr inv(advBy)\nfunc(advBy)"
        ))
    sa = parse_signature("concepts: PhDStud\nroles: adv")
    sq = parse_signature("concepts: Prof\nroles:")
    ctx = build_label_context(t1, t2, sa, sq)
    parts = [
        build_A1(ctx),
        build_A2(t1, ctx),
        build_A3(t2, ctx),
        build_A4(t1, t2, ctx),
    ]
    return ctx, parts


def test_pipeline_certificate_revalidates(advisor_parts):
    ctx, parts = advisor_parts
    prod = intersect(parts)
    res = is_empty(prod)
    assert not res.empty
    # the relaxed plan was valid, so no second pass re-checked it
    assert "spurious_relaxed_plan" not in res.stats
    assert run_on_regular_tree(prod, res.certificate)
    # each component accepts the witness on its own
    for a in parts:
        joint = intersect([a])
        assert run_on_regular_tree(joint, res.certificate)


def test_pipeline_intersection_conjunction_on_random_trees(advisor_parts):
    ctx, parts = advisor_parts
    prod = intersect(parts)
    singles = [intersect([a]) for a in parts]
    rng = random.Random(9)
    for _ in range(20):
        rep = random_regular_tree(rng, list(ctx.labels), 4)
        want = all(run_on_regular_tree(a, rep) for a in singles)
        assert run_on_regular_tree(prod, rep) == want


def test_dump_is_stable_within_process(advisor_parts):
    _ctx, parts = advisor_parts
    prod = intersect(parts)
    assert prod.dump() == prod.dump()
    assert "state" in prod.dump()


def test_state_ids_sort_like_stable_key(advisor_parts):
    """The search sorts state ids where it once sorted states by
    ``stable_key``; the copies and child obligations it sorts must come
    out in the same order, so that certificates do not move."""
    _ctx, parts = advisor_parts
    prod = intersect(parts)
    search = _DemandSearch(prod, False)
    by_key = sorted(prod.rules, key=stable_key)
    assert len({stable_key(q) for q in by_key}) == len(by_key)
    assert search.states == by_key
    assert [search.ids[q] for q in by_key] == list(range(len(by_key)))

    def old_key(pair):  # how the search rendered a (state, budget) pair
        return stable_key((search.states[pair[0]], pair[1]))

    rng = random.Random(11)
    n = len(by_key)
    for _ in range(200):
        pairs = [(p, rng.randint(0, 10)) for p in rng.sample(range(n), 4)]
        assert sorted(pairs) == sorted(pairs, key=old_key)

    # the assignments of every guard class come out in the order of the
    # atoms' stable_key text, which the search once sorted them by
    with within(30):
        for name, prod in _pipeline_products():
            search = _DemandSearch(prod, False)
            ids = search.ids
            for q in range(len(search.states)):
                for row, (_key, f) in enumerate(search.table(q)[0]):
                    by_text = [
                        tuple(a[:-1] + (ids[a[-1]],)
                              for a in sorted(s, key=stable_key))
                        for s in sorted(
                            sat_assignments(f),
                            key=lambda s: (len(s), sorted(map(stable_key, s))),
                        )
                    ]
                    assert search.assignments(q, row) == by_text, (name, q)


def _pipeline_products(chains=3, draws=0):
    """The cq and 1tcq products of the fixtures, of chain n=1..chains and
    of the first seed-601 criterion-6 draws."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problems = {name: problem(*texts) for name, texts in FIXTURES.items()}
    problems.update(
        (f"chain{n}", chain_problem(n)) for n in range(1, chains + 1))
    rng = random.Random(601)
    problems.update(
        (f"draw{i}", criterion6_problem(rng)[2]) for i in range(draws))
    for name, p in problems.items():
        for sim in (False, True):
            yield name, build_pipeline(p.t1, p.t2, p.sigA, p.sigQ, sim=sim)[1]


def test_equal_guard_keys_get_equal_formulas():
    """``classes`` builds one formula per guard key, from the first label
    that reaches it; every label's own formula must be that one.  A rule
    with ``parts`` has no per-label formula (see
    ``test_initial_rows_come_from_the_parts_rows_in_label_order``)."""
    with within(20):
        for name, prod in _pipeline_products():
            for q, rule in prod.rules.items():
                if rule.parts:
                    continue
                for label in prod.labels:
                    assert rule.build(label) == prod.delta(q, label), (name, q)


def _bot_free_product():
    """The bot-free product of the bot-axiom case."""
    p = problem(*FIXTURES["disjointness"])
    fresh = entailment._fresh_concept(p.t1, p.t2)
    return build_pipeline(
        entailment._bot_free(p.t1, fresh), entailment._bot_free(p.t2, fresh),
        p.sigA, Signature(concepts=frozenset([fresh])))[1]


def test_reads_name_every_layer_a_rule_depends_on():
    """``classes`` projects one label per group of labels equal on the
    layers a state ``reads``, so every label's own guard key and formula
    must be its row's.  Comparing the keys matters: with A4's q1 narrowed
    to layer 1, every label of the fixture and chain products still gets
    its own formula, but not its own key.  The corpus: the cq and 1tcq
    products of the fixtures, chain n=1..12 and criterion-6 draws 0-24,
    and the bot-free product of the bot-axiom case.  Rules with ``parts``
    read no label themselves and are checked by
    ``test_initial_rows_come_from_the_parts_rows_in_label_order``."""
    bot_free = _bot_free_product()
    with within(60):
        for name, prod in [*_pipeline_products(12, 25), ("bot-free", bot_free)]:
            for q, rule in prod.rules.items():
                if rule.parts:
                    continue
                rows, of = prod.classes(q)
                for label, i in prod.position.items():
                    assert rows[of[i]] == (rule.project(label),
                                           rule.build(label)), (name, q)


def test_initial_rows_come_from_the_parts_rows_in_label_order():
    """The product's initial rows, conjoined from the rows of the
    components' initial states, are the rows that projecting every label
    gives: the same keys and formulas, numbered in the order the labels
    first reach them, and the same row for every label.  On the corpus of
    ``test_reads_name_every_layer_a_rule_depends_on``."""
    bot_free = _bot_free_product()
    with within(60):
        for name, prod in [*_pipeline_products(12, 25), ("bot-free", bot_free)]:
            assert prod.classes(prod.initial) == initial_classes_by_label(
                prod), name


def test_is_empty_projects_each_label_once_per_state(advisor_parts):
    """The search reads every guard class from the automaton's table, and
    the table projects the first label of each group of labels equal on
    the layers a state reads: ``is_empty`` projects no (state, label)
    pair twice, and each state at most one label per group.  The initial
    state's rows come from its parts' rows, so it projects no label.  On
    chain n=7 that is at most 720 projections (705), where one label per
    group for every state made 1,067 and projecting every label 13,616."""
    products = {}
    for n in (7, 3):
        p = chain_problem(n)
        products[n] = build_pipeline(p.t1, p.t2, p.sigA, p.sigQ)[1]
    products["advisor"] = intersect(advisor_parts[1])
    for name, prod in products.items():
        counts = collections.Counter()
        for q, rule in list(prod.rules.items()):
            def project(label, q=q, inner=rule.project):
                counts[q, label] += 1
                return inner(label)

            prod.rules[q] = dataclasses.replace(rule, project=project)
        assert not is_empty(prod).empty
        if name == 7:
            assert sum(counts.values()) <= 720, sum(counts.values())
        assert not any(q == prod.initial for q, _label in counts), name
        most = max(counts.values())
        assert most == 1, f"a (state, label) pair was projected {most} times"
        groups = collections.Counter(
            (q, prod.groups(prod.rules[q].reads)[0][prod.position[label]])
            for q, label in counts)
        assert max(groups.values()) == 1, name


def test_is_empty_walks_each_tabled_state_once_per_search(
        monkeypatch, advisor_parts):
    """``_DemandSearch.table`` walks a state's guard rows once, and
    ``live_group`` and the child-count check at ``is_empty``'s entry read
    what that walk found: the top-level ``formula_atoms`` calls of an
    ``is_empty`` are the row formulas of the states its searches tabled,
    each once per search."""
    inner, walked, searches = automata.formula_atoms, collections.Counter(), []

    def formula_atoms(f):
        # the walk's own calls on subformulas come from formula_atoms
        if sys._getframe(1).f_code is not inner.__code__:
            walked[id(f)] += 1
        return inner(f)

    class Search(_DemandSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(automata, "formula_atoms", formula_atoms)
    monkeypatch.setattr(automata, "_DemandSearch", Search)
    p = chain_problem(7)
    products = {
        "chain7": build_pipeline(p.t1, p.t2, p.sigA, p.sigQ)[1],
        "advisor": intersect(advisor_parts[1]),
    }
    for name, prod in products.items():
        walked.clear()
        searches.clear()
        assert not is_empty(prod).empty
        rows = collections.Counter(
            id(f) for s in searches for t in s.tables if t is not None
            for _key, f in t[0])
        assert rows and walked == rows, name


def test_chain_work_grows_at_most_two_and_a_half_times():
    """The emptiness work of the concept chain grows at most 2.5 times
    from length 7 to length 8, while the certificate stays at 2 nodes."""
    with within(30):
        entails7, _cert, stats7 = pipeline(chain_problem(7))
        entails8, _cert, stats8 = pipeline(chain_problem(8))
    assert not entails7 and not entails8
    assert stats8["certificate_nodes"] == 2
    assert stats8["work"] <= 2.5 * stats7["work"]


def test_chain_of_ten_decides():
    """Chain n=10 decides within the budget.  Its label context closes
    only the independent sets of its 11 concept names, the empty set and
    the single names, and the emptiness search skips the label classes
    on which a copy is dead."""
    with within(30):
        entails, _cert, stats = pipeline(chain_problem(10))
    assert not entails
    assert stats["certificate_nodes"] == 2


def test_chain_work_grows_at_most_two_point_one_times_up_to_twelve():
    """Chain n=10, 11 and 12 separate with a 2-node certificate, and the
    emptiness work grows at most 2.1 times per n."""
    with within(30):
        ds = [pipeline(chain_problem(n)) for n in (10, 11, 12)]
    for entails, _cert, stats in ds:
        assert not entails
        assert stats["certificate_nodes"] == 2
    for (_e, _c, stats), (_e2, _c2, stats_next) in zip(ds, ds[1:]):
        assert stats_next["work"] <= 2.1 * stats["work"]


def _label_universes(p):
    """Both TBoxes of a problem, each with its label concept universe."""
    th0c = frozenset(p.sigA.concepts)
    return [(t, frozenset(t.concept_names()) | th0c) for t in (p.t1, p.t2)]


def test_closed_and_derivation_sets_match_the_subset_scans():
    """The independent-set enumeration gives the closed sets of the label
    context and A3's derivation sets of every name exactly as scanning
    all subsets does, in the same order, without visiting the subsets
    that are not independent."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problems = [problem(*texts) for texts in FIXTURES.values()]
    problems += [chain_problem(n) for n in range(1, 12)]
    rng = random.Random(601)
    problems += [criterion6_problem(rng)[2] for _ in range(200)]
    cases = [case for p in problems for case in _label_universes(p)]
    reversed_chain = normalize(
        parse_tbox("\n".join(f"C{i + 1} sub C{i}" for i in range(12)))
    )
    cases.append((reversed_chain, frozenset(reversed_chain.concept_names())))
    for tbox, universe in cases:
        assert _closed_sets(tbox, universe, MAX_LABELS) == (
            closed_sets_by_subsets(tbox, universe)
        )
        assert _minimal_derivations(tbox, sorted(universe)) == {
            a: derivation_sets_by_subsets(tbox, universe, a)
            for a in universe
        }
    # against the name order, the chain still grows only the empty set
    # and the 13 single names: no subset of two names is independent
    universe = reversed_chain.concept_names()
    assert len(list(_independent_sets(reversed_chain, universe))) == 14


_CHAIN_12 = "\n".join(f"C{i} sub C{i + 1}" for i in range(12))


def test_thirteen_name_chain_separates_with_one_node():
    """13 concept names are no longer refused: the back axiom C12 sub C0
    is seen on a single C12 individual."""
    with within(10):
        entails, _cert, stats = pipeline(problem(
            _CHAIN_12, _CHAIN_12 + "\nC12 sub C0",
            "concepts: C12\nroles:", "concepts: C0\nroles:",
        ))
    assert not entails
    assert stats["certificate_nodes"] == 1


def test_thirteen_name_chain_entails_an_implied_axiom():
    with within(10):
        entails, _cert, _stats = pipeline(problem(
            _CHAIN_12, _CHAIN_12 + "\nC11 sub C0",
            "concepts: C0\nroles:", "concepts: C12\nroles:",
        ))
    assert entails


def test_chain_of_twelve_entails_without_query_roles():
    """Without roles in the queries, T2's anonymous successor shows
    nothing: T1 already puts C12 on every C0 individual."""
    p = problem(_CHAIN_12, _CHAIN_12 + "\nC0 sub some r C1",
                "concepts: C0\nroles: r", "concepts: C12\nroles:")
    with within(30):
        d = decide_cq_entailment(p)
    assert d.entails
    assert oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 3) is None


def test_chain_of_twelve_builds_its_label_context_at_once():
    p = chain_problem(12)
    with within(1):
        ctx = build_label_context(p.t1, p.t2, p.sigA, p.sigQ)
    assert len(ctx.labels) == 848


def test_role_inclusion_chain_decides_at_once():
    """r0 subr r1 ... subr r9: of the 2^20 sets of these roles and their
    inverses, 11 × 11 are closed under the inclusions, and the alphabet
    builds only those.  T2's anonymous r0-successor in B separates."""
    t1 = "\n".join(f"r{i} subr r{i + 1}" for i in range(9))
    p = problem(t1, t1 + "\nA sub some r0 B",
                "concepts: A\nroles: r0", "concepts: B\nroles: r0")
    with within(2):
        entails, _cert, stats = pipeline(p)
    assert not entails
    assert stats["labels"] == 704


def test_too_many_closed_sets_are_refused_at_once():
    """Ten unrelated pairs ``Ai sub Bi`` have 3^10 closed sets; the
    label context stops once they pass the label alphabet bound instead
    of listing them.  The decision never builds it: the witness-first
    search finds the ABox A00(a0), on which T2 has an anonymous B01
    element and T1 none."""
    t1 = "\n".join(f"A{i} sub B{i}" for i in range(10))
    p = problem(t1, t1 + "\nA00 sub some r B01",
                "concepts: A00\nroles: r", "concepts: B01\nroles: r")
    with within(2):
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            build_label_context(p.t1, p.t2, p.sigA, p.sigQ)
    with within(2):
        d = decide_cq_entailment(p)
    assert not d.entails and d.stats["settled_by"] == "witness_search"
    assert verify_witness(p.t1, p.t2, d.witness)


def _check_label_constraints(p):
    """Every label of the problem's context meets the constraints the
    label enumeration alone enforces, which A1-A3 rely on unchecked."""
    idx1, idx2 = index_for(p.t1), index_for(p.t2)
    sig_roles = p.sigA.role_objects()
    roles1 = p.t1.roles() | sig_roles
    roles2 = p.t2.roles() | sig_roles
    tops = {ci.sup for ci in p.t1.cis if isinstance(ci, TopSub)}
    ctx = build_label_context(p.t1, p.t2, p.sigA, p.sigQ)
    for l in ctx.labels:
        assert l.c0 <= p.sigA.concepts and l.r0 <= sig_roles, l
        assert len(l.r0) <= 1, l
        assert l.c0 <= l.c1 and l.r0 <= l.r1, l
        assert not l.c1 or idx1.closure(l.c1) == l.c1, l
        assert all(s in l.r1 for r in l.r1 for s in roles1
                   if idx1.role_subsumes(r, s)), l
        assert l.l1_empty() or tops <= l.c1, l
        if l.l0_empty():
            assert not l.c2 and not l.r2, l
            continue
        assert l.c0 <= l.c2 and idx2.closure(l.c2) == l.c2, l
        assert l.r2 == {r for r in roles2
                        if any(idx2.role_subsumes(s, r) for s in l.r0)}, l


def test_label_context_owns_the_label_constraints():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problems = [problem(*texts) for texts in FIXTURES.values()]
    problems += [chain_problem(n) for n in range(1, 13)]
    rng = random.Random(601)
    problems += [criterion6_problem(rng)[2] for _ in range(200)]
    problems.append(problem(
        "top sub B\nr subr s\nA sub some r A", "A sub some s B",
        "concepts: A\nroles: r s", "concepts: B\nroles: s",
    ))
    with within(30):
        for p in problems:
            _check_label_constraints(p)


def _rendered_layers(l):
    """The reference label order: each layer's names as sorted strings."""
    return tuple(tuple(sorted(map(str, part)))
                 for part in (l.c0, l.r0, l.c1, l.r1, l.c2, l.r2))


def test_labels_sort_by_their_rendered_layers():
    """The label context renders each distinct layer set once; the order
    must be the one rendering every label's layers gives, on the fixtures
    and chain n=1..12."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        problems = [problem(*texts) for texts in FIXTURES.values()]
    problems += [chain_problem(n) for n in range(1, 13)]
    for p in problems:
        labels = build_label_context(p.t1, p.t2, p.sigA, p.sigQ).labels
        assert labels == sorted(labels, key=_rendered_layers)


def test_a3_guard_rows_match_the_pairs_by_scan():
    """A3 reads its (premise, edge role) pairs off ``pushes``.  On 300
    fixed draws with value restrictions, functionality, ⊥ and inverse
    role inclusions as the second TBox (the first empty, ΣA = ΣQ = A, B,
    r, s), every guard row of A3 is the one that A3 built over
    ``ScanIndex``, whose ``pushes`` scans the axioms, gives."""
    sig = parse_signature("concepts: A B\nroles: r s")
    rng = random.Random(2502)
    with warnings.catch_warnings(), within(60):
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(300):
            text = random_horn_tbox_text(rng, ["A", "B", "C"], ["r", "s"], 5)
            dumps = []
            for index in (index_for, ScanIndex):
                t1, t2 = normalize(parse_tbox("")), normalize(parse_tbox(text))
                t2._consequence_index = index(t2)
                try:
                    ctx = build_label_context(t1, t2, sig, sig)
                except ResourceLimitError as exc:
                    dumps.append(str(exc))
                    continue
                dumps.append(build_A3(t2, ctx).dump())
            assert dumps[0] == dumps[1], text
