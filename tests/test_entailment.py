import random
import warnings

import pytest

from conftest import problem, within
from helpers import (
    abox_tree_shaped,
    chain_problem,
    criterion6_problem,
    finite_models,
    model_satisfies_raw,
    oracle_candidates_by_whole_window,
    random_horn_tbox_text,
    satisfying_models,
)
from hornsep import (
    entailment,
    models,
    normalize,
    parse_cq,
    parse_signature,
    parse_tbox,
    reasoner,
)
from hornsep.entailment import (
    PreconditionError,
    Witness,
    build_pipeline,
    conservative_extension,
    decide_1tcq_entailment,
    decide_cq_entailment,
    decide_cq_entailment_incons,
    decide_deductive,
    decide_universal,
    enumerate_tree_aboxes,
    inseparable,
    make_problem,
    oracle_witness_search,
    verify_witness,
)
from hornsep.automata import run_on_regular_tree
from hornsep.reasoner import certain_answers, is_certain_answer
from hornsep.syntax import ABox, ProfileError, Role, Signature, cq_to_text
from test_decision_golden import FIXTURES, MODES


def test_advisor_cq_not_entailed(advisor_problem):
    """The witness-first search settles the advisor fixture with a
    witness that replays; the pipeline, run directly, refutes it too,
    with a certificate."""
    p = advisor_problem
    d = decide_cq_entailment(p)
    assert d.mode == "cq"
    assert not d.entails
    assert d.precheck == {"ri": True}
    assert d.stats["settled_by"] == "witness_search"
    assert verify_witness(p.t1, p.t2, d.witness)
    entails, cert, _stats = entailment._run_pipeline(
        p.t1, p.t2, p.sigA, p.sigQ, False)
    assert not entails and cert is not None


def test_advisor_oracle_finds_replayable_witness(advisor_problem):
    p = advisor_problem
    w = oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 1)
    assert w is not None
    assert verify_witness(p.t1, p.t2, w)
    # the separating query asks for the professor concept
    assert {c for c, _v in w.query.concept_atoms} == {"Prof"}


def test_incons_without_bot_axiom_decides_the_fork_quickly():
    """Without a bot axiom in the second TBox only functionality forks
    can be inconsistent; the bot-free pipeline is skipped."""
    p = problem("", "func(r)", "concepts: A\nroles: r",
                "concepts: A\nroles: r")
    with within(10):
        d = decide_cq_entailment_incons(p)
    assert not d.entails
    assert d.stats["incons"] is False
    assert "incons_pipeline" not in d.stats


def test_disjointness_entailed_but_not_under_incons(disjointness_problem):
    assert decide_cq_entailment(disjointness_problem).entails
    assert not decide_cq_entailment_incons(disjointness_problem).entails


def test_incons_keeps_the_bot_free_pipeline_evidence(disjointness_problem):
    """The bot-free pipeline that refutes returns its stats and its
    certificate, which the bot-free product accepts.  T1 ⊨ T2 runs no
    pipeline and adds no key to the decision."""
    p = disjointness_problem
    entails, cert, stats = entailment.decide_incons_entailment(
        p.t1, p.t2, p.sigA)
    assert not entails
    assert stats["certificate_nodes"] == 1
    fresh = entailment._fresh_concept(p.t1, p.t2)
    _ctx, prod = build_pipeline(
        entailment._bot_free(p.t1, fresh), entailment._bot_free(p.t2, fresh),
        p.sigA, Signature(concepts=frozenset([fresh])),
    )
    assert run_on_regular_tree(prod, cert)
    same = problem("A1 and A2 sub bot", "A1 and A2 sub bot",
                   "concepts: A1 A2\nroles:", "concepts: A1 A2\nroles:")
    d = decide_cq_entailment_incons(same)
    assert d.entails and "incons_pipeline" not in d.stats


def test_inverse_chain_entailed(inverse_chain_problem):
    assert decide_cq_entailment(inverse_chain_problem).entails
    assert decide_1tcq_entailment(inverse_chain_problem).entails


def test_identical_tboxes_shortcut():
    p = problem("A sub B", "A sub B", "concepts: A B\nroles:",
                "concepts: A B\nroles:")
    d = decide_cq_entailment(p)
    assert d.entails
    assert d.stats.get("subset") is True


# (T1, T2, what tbox_entails answers); False on an entailed T2 is
# "unknown", for a shape the check does not read
TBOX_ENTAILS_CASES = [
    ("some inv(r) A sub B", "A sub only r B", True),
    ("A sub only r B", "some inv(r) A sub B", True),
    ("s subr r", "inv(s) subr inv(r)", True),
    ("func(r)\ns subr r", "func(s)", True),
    ("A sub bot", "A sub some r B", True),
    ("top sub B", "A sub B", True),
    ("", "bot sub A", True),
    ("", "A sub top", True),
    ("some r top sub bot", "A sub only r bot", True),
    ("A sub some r B\nfunc(r)\nA sub some r C", "A sub some r (B and C)", True),
    ("func(r)", "func(inv(r))", False),
    ("top sub B", "top sub some r top", False),
    ("A sub B", "A sub B and some r top", False),
    ("A sub some r C\nC sub only s B", "A sub some r (only s B)", False),
]


@pytest.mark.filterwarnings("ignore:functional role:UserWarning")
@pytest.mark.parametrize("t1, t2, want", TBOX_ENTAILS_CASES)
def test_tbox_entails_shapes(t1, t2, want):
    got = entailment.tbox_entails(
        normalize(parse_tbox(t1)), normalize(parse_tbox(t2))
    )
    assert got is want


def test_tbox_entails_reads_a_fork_as_unknown():
    """Two r-successors under func(r) make the tree ABox of the left
    side inconsistent, yet an interpretation may identify them: a model
    of T1 violates T2, so the check must not say yes."""
    t1, t2 = parse_tbox("func(r)"), parse_tbox("some r A and some r B sub C")
    assert not entailment.tbox_entails(normalize(t1), normalize(t2))
    assert any(
        model_satisfies_raw(m, t1) and not model_satisfies_raw(m, t2)
        for m in finite_models({"A", "B", "C"}, {"r"}, 2)
    )


def test_tbox_entails_refuses_the_internal_names_of_the_first_tbox():
    """A name that normalization made up for T1 means something else in
    T2: asserting it would fire T1's helper axioms about it."""
    t1 = normalize(parse_tbox("some r A sub B"))
    (x,) = t1.fresh
    assert not entailment.tbox_entails(t1, normalize(parse_tbox(f"{x} sub B")))


def test_tbox_entails_unknown_shape_goes_through_the_pipeline():
    """``some r (only s B)`` on the right is a shape the check does not
    read; the pipeline still decides the entailment."""
    t1, t2 = "A sub some r C\nC sub only s B", "A sub some r (only s B)"
    p = problem(t1, t2, "concepts: A B C\nroles:",
                "concepts: A B C\nroles: r s")
    d = decide_cq_entailment(p)
    assert d.entails and "subset" not in d.stats


def test_tbox_entails_keeps_the_pipeline_index_unchanged():
    """The check chases T2's names under a copy of T1, so the index
    that the pipeline reads never sees them."""
    t1, t2 = normalize(parse_tbox("A sub bot")), normalize(parse_tbox("Z sub A"))
    idx = reasoner.index_for(t1)
    universe = set(idx.concept_universe)
    assert not entailment.tbox_entails(t1, t2)
    assert reasoner.index_for(t1) is idx and idx.concept_universe == universe


def _criterion6_draws():
    rng = random.Random(601)
    return [criterion6_problem(rng)[2] for _ in range(200)]


def test_tbox_entails_holds_in_small_finite_models():
    """On the seed-601 criterion-6 draws, every interpretation of the
    names of both TBoxes with at most two elements that satisfies the
    first TBox as written also satisfies the second wherever the check
    says T1 ⊨ T2.  The names are those of the normalized TBoxes, whose
    role names are the written ones."""
    yes = models_checked = 0
    for p in _criterion6_draws():
        if not entailment.tbox_entails(p.t1, p.t2):
            continue
        yes += 1
        t1, t2 = p.t1.source, p.t2.source
        concepts = t1.concept_names() | t2.concept_names()
        roles = p.t1.role_names() | p.t2.role_names()
        for m in finite_models(concepts, roles, 2):
            if model_satisfies_raw(m, t1):
                models_checked += 1
                assert model_satisfies_raw(m, t2), (t1, t2)
    assert (yes, models_checked) == (86, 9802)


def test_semantic_subsets_still_entail_through_the_pipeline():
    """The 21 seed-601 criterion-6 draws where T1 ⊨ T2 but T2 is no
    verbatim subset of T1 never reach the pipeline through the deciders;
    run it on them directly so that its entailing path stays covered."""
    draws = [
        p for p in _criterion6_draws()
        if entailment.tbox_entails(p.t1, p.t2)
        and not entailment._raw_subset(p.t2.source, p.t1.source)
    ]
    assert len(draws) == 21
    with within(240):
        for p in draws:
            entails, _cert, _stats = entailment._run_pipeline(
                p.t1, p.t2, p.sigA, p.sigQ, False
            )
            assert entails, (p.t1.source, p.t2.source)


def test_entailing_products_end_in_the_fixpoint_stage():
    """``tbox_entails`` settles every entailing criterion-6 draw, so no
    decider sends a nontrivial entailing product through the emptiness
    search; seed-601 draws 116 and 145 go through the pipeline directly,
    where the relaxed pass's first stage, the fixpoint, comes up empty."""
    draws = _criterion6_draws()
    with within(20):
        for i in (116, 145):
            p = draws[i]
            entails, cert, stats = entailment._run_pipeline(
                p.t1, p.t2, p.sigA, p.sigQ, False
            )
            assert entails and cert is None, i
            assert stats["stages"] == 1, i


def test_spurious_fixpoint_plan_falls_back_to_the_depth_stage():
    """Seed-601 draw 199's relaxed fixpoint plan fails the membership
    game.  The relaxed pass's depth-6 stage then finds a plan the game
    accepts, so the budgeted pass, which takes over ten times as much
    work on this product, never runs."""
    p = _criterion6_draws()[199]
    with within(8):
        entails, cert, stats = entailment._run_pipeline(
            p.t1, p.t2, p.sigA, p.sigQ, False
        )
    assert not entails and cert is not None
    assert stats["stages"] == 2 and "spurious_relaxed_plan" not in stats


def test_role_inclusion_precheck_fails():
    p = problem("", "r subr s", "concepts:\nroles: r s",
                "concepts:\nroles: r s")
    d = decide_cq_entailment(p)
    assert not d.entails
    assert d.precheck == {"ri": False}


_SIG_AR = "concepts: A\nroles: r"
_SIG_AS = "concepts: A\nroles: s"

# (T1, T2, ΣA, ΣQ, mode, entails): a role inclusion or functionality
# assertion of T2 that T1 lacks, over roles whose edges, or forks, one
# of the TBoxes makes inconsistent.  Every ABox with such an edge is
# left out of the comparison, so it separates nothing, except in
# ``cq-incons``, where an edge inconsistent with T2 alone separates.
EDGE_INCONSISTENT = [
    *[("some r top sub bot", "r subr s", _SIG_AR, _SIG_AS, mode, True)
      for mode in ("cq", "1tcq", "cq-incons")],
    *[("A sub bot\ntop sub A", "r subr s", _SIG_AR, _SIG_AS, mode, True)
      for mode in ("cq", "1tcq", "cq-incons")],
    *[("", "r subr s\nsome r top sub bot", _SIG_AR, _SIG_AS, mode, True)
      for mode in ("cq", "1tcq")],
    ("", "r subr s\nsome r top sub bot", _SIG_AR, _SIG_AS, "cq-incons",
     False),
    ("some r top sub bot", "func(r)", _SIG_AR, _SIG_AR, "deductive", True),
    ("some inv(r) top sub bot", "func(r)", _SIG_AR, _SIG_AR, "deductive",
     True),
]


@pytest.mark.parametrize("t1, t2, sig_a, sig_q, mode, want",
                         EDGE_INCONSISTENT)
def test_a_role_axiom_over_inconsistent_edges_separates_nothing(
        t1, t2, sig_a, sig_q, mode, want):
    """The decision agrees with the pipeline, joined in the modes that
    compare inconsistent ABoxes with the bot-free one; an entailing
    verdict has no witness at bounds (3, 3), and a refuting one carries
    the inconsistency witness r(a0, a1)."""
    p = problem(t1, t2, sig_a, sig_q)
    d = getattr(entailment, MODES[mode])(p)
    assert d.entails is want
    sim = mode in ("1tcq", "deductive")
    entails, _cert, _stats = entailment._run_pipeline(
        p.t1, p.t2, p.sigA, p.sigQ, sim)
    if mode in ("cq-incons", "deductive"):
        entails = entails and entailment.decide_incons_entailment(
            p.t1, p.t2, p.sigA)[0]
    assert entails is want
    if want:
        assert oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 3, 3,
                                     "1tcq" if sim else "cq") is None
    else:
        assert d.precheck["ri"] is True
        assert d.witness.to_json_obj() == {
            "abox": ["r(a0,a1)"], "query": None, "answer": []}
        assert verify_witness(p.t1, p.t2, d.witness)


_EDGE_WITNESS = {"abox": ["r(a0,a1)"], "query": "q(x0,x1) <- s(x0,x1)",
                 "answer": ["a0", "a1"]}
_FORK = {"abox": ["r(a0,a1)", "r(a0,a2)"], "query": None, "answer": []}
_INV_FORK = {"abox": ["r(a1,a0)", "r(a2,a0)"], "query": None, "answer": []}
# T2 -> {mode: (settled_by, witness)} of the modes that refute T1 empty
# over ΣA = ΣQ = {A, r, s}; the other modes entail
REFUTATIONS = {
    "r subr s": {mode: ("role_inclusion", _EDGE_WITNESS) for mode in MODES},
    "func(r)": {mode: ("fork", _FORK) for mode in ("cq-incons", "deductive")},
    "func(inv(r))": {mode: ("fork", _INV_FORK)
                     for mode in ("cq-incons", "deductive")},
    "r subr s\nfunc(s)": {mode: ("role_inclusion", _EDGE_WITNESS)
                          for mode in MODES},
}


@pytest.mark.filterwarnings("ignore:functional role:UserWarning")
@pytest.mark.parametrize("t2", sorted(REFUTATIONS))
def test_every_refutation_outside_the_pipeline_replays(t2):
    """Role inclusions and functionality separate in every mode that
    they separate in by a witness that ``verify_witness`` replays: the
    one-edge witness of the role-inclusion precheck, and a fork of two
    edges out of one individual.  The witnesses are pinned JSON, which
    CI checks under two hash seeds."""
    sig = "concepts: A\nroles: r s"
    p = problem("", t2, sig, sig)
    for mode, name in MODES.items():
        d = getattr(entailment, name)(p)
        if mode not in REFUTATIONS[t2]:
            assert d.entails and d.witness is None, mode
            continue
        by, witness = REFUTATIONS[t2][mode]
        assert not d.entails, mode
        assert d.stats["settled_by"] == by, mode
        assert d.precheck["ri"] is (by != "role_inclusion"), mode
        assert d.witness.to_json_obj() == witness, mode
        assert verify_witness(p.t1, p.t2, d.witness), mode


@pytest.mark.parametrize("mode", ["cq-incons", "deductive"])
def test_a_capped_search_still_refutes_by_the_fork(mode, monkeypatch):
    """The forks come after the witness-first search whether or not it
    was capped: with the cap at 0, ``func(r)`` still separates by r's
    fork, before any pipeline runs."""
    monkeypatch.setattr(entailment, "SEARCH_CAP", 0)
    p = problem("", "func(r)", _SIG_AR, _SIG_AR)
    d = getattr(entailment, MODES[mode])(p)
    assert not d.entails
    assert d.stats == {"search": {"asked": 0, "capped": True},
                       "settled_by": "fork", "incons": False}
    assert d.witness.to_json_obj() == _FORK
    assert verify_witness(p.t1, p.t2, d.witness)


@pytest.mark.filterwarnings("ignore:functional role:UserWarning")
@pytest.mark.parametrize("mode", ["cq-incons", "deductive"])
def test_a_fork_of_two_roles_under_one_functional_superrole_separates(mode):
    """r1(a0, a1), r2(a0, a2) is inconsistent with T2, where r1 and r2
    share the functional superrole f, and consistent with T1, where each
    is functional on its own.  No fork of one role separates, the
    search's two individuals cannot hold it, and the bot-free pipeline
    does not see functionality."""
    sig = "concepts: A\nroles: r1 r2"
    p = problem("func(r1)\nfunc(r2)", "r1 subr f\nr2 subr f\nfunc(f)",
                sig, sig)
    d = getattr(entailment, MODES[mode])(p)
    assert not d.entails
    assert d.stats["settled_by"] == "fork"
    assert d.witness.to_json_obj() == {
        "abox": ["r1(a0,a1)", "r2(a0,a2)"], "query": None, "answer": []}
    assert verify_witness(p.t1, p.t2, d.witness)


def test_forks_and_edges_match_model_enumeration():
    """The fork and edge ABoxes against exhaustive search over the <= 3
    element models of the 60 fixed draws over A, B and r that the
    saturation's reference test reads (its per-axiom model sets are
    cached), and three TBoxes that make every fork inconsistent without
    functionality.  A model with an element that has two distinct
    R-successors makes R's fork consistent, a model with an r-edge makes
    the edge consistent, and a functional superrole of R makes R's fork
    inconsistent.  ``tbox_entails`` decides ``func(R)`` by the fork."""
    texts = []
    for seed in (1, 2):
        rng = random.Random(seed)
        texts += [random_horn_tbox_text(rng, ["A", "B"], ["r"], 4)
                  for _ in range(30)]
    # no draw makes a fork inconsistent without functionality
    texts += ["some r top sub bot", "some inv(r) top sub bot",
              "A sub bot\ntop sub A"]
    counts = {"fork": 0, "edge": 0, "functional": 0, "vacuous": 0}
    with within(60):
        for text in texts:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                t = normalize(parse_tbox(text))
            found = satisfying_models(parse_tbox(text), {"A", "B"}, ["r"], 3)
            if any(m.edges["r"] for m in found):
                counts["edge"] += 1
                edge = entailment._successors(Role("r"))
                assert reasoner.chase(t, edge).consistent, text
            for r in (Role("r"), Role("r", True)):
                fork = reasoner.chase(t, entailment._successors(r, r))
                func = normalize(parse_tbox(f"func({r})"))
                assert entailment.tbox_entails(t, func) is (
                    not fork.consistent), (text, r)
                if any(len(set(m.succ(x, r))) > 1
                       for m in found for x in range(m.size)):
                    counts["fork"] += 1
                    assert fork.consistent, (text, r)
                if reasoner.index_for(t).functional_superroles(r):
                    counts["functional"] += 1
                    assert not fork.consistent, (text, r)
                elif not fork.consistent:
                    counts["vacuous"] += 1
    assert counts == {"edge": 60, "fork": 95, "functional": 25, "vacuous": 6}


def test_deductive_requires_matching_signatures(advisor_problem):
    with pytest.raises(PreconditionError):
        decide_deductive(advisor_problem)


def test_deductive_disjointness_not_conservative():
    p = problem("", "A1 and A2 sub bot", "concepts: A1 A2 B\nroles:",
                "concepts: A1 A2 B\nroles:")
    assert not decide_deductive(p).entails


def test_deductive_plain_existential_is_conservative():
    p = problem("", "A sub some r B", "concepts: A B\nroles:",
                "concepts: A B\nroles:")
    assert decide_deductive(p).entails


def test_deductive_rejects_non_eli_profile():
    p = problem("", "A sub only r B", "concepts: A B\nroles: r",
                "concepts: A B\nroles: r")
    with pytest.raises(ProfileError):
        decide_deductive(p)


def test_universal_role_detection():
    t = normalize(parse_tbox("top sub B"))
    sa = parse_signature("concepts: A\nroles:")
    sq = parse_signature("concepts: B\nroles:")
    assert decide_universal(t, sa, sq)
    assert not decide_universal(normalize(parse_tbox("")), sa, sq)


def test_conservative_extension_needs_inclusion(inverse_chain_problem):
    with pytest.raises(PreconditionError):
        conservative_extension(inverse_chain_problem)


def test_conservative_extension_of_advisor():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = problem(
            "PhDStud sub some advBy Prof\nadv subr inv(advBy)",
            "PhDStud sub some advBy Prof\nadv subr inv(advBy)\nfunc(advBy)",
            "concepts: PhDStud Prof\nroles: adv advBy",
            "concepts: PhDStud Prof\nroles: adv advBy",
        )
        assert not conservative_extension(p).entails


def test_inseparable_identity():
    p = problem("A sub B", "A sub B", "concepts: A B\nroles:",
                "concepts: A B\nroles:")
    assert inseparable(p).entails


def test_oracle_none_when_entailed(disjointness_problem):
    p = disjointness_problem
    assert oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 2) is None


def test_oracle_witness_is_small_and_tree_shaped(advisor_problem):
    p = advisor_problem
    w = oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 1)
    assert len(w.abox.individuals()) <= 2
    assert abox_tree_shaped(w.abox)


def test_verify_witness_rejects_fabrications(advisor_problem):
    p = advisor_problem
    w = oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 1)
    # same query but pointed at the student, which both TBoxes refute
    fake = Witness(w.abox, parse_cq("q(x0) <- PhDStud(x0)"), w.answer)
    assert not verify_witness(p.t1, p.t2, fake)


@pytest.mark.parametrize("fixture", ["advisor_problem", "inverse_chain_problem"])
def test_oracle_chases_each_abox_once_per_tbox(fixture, request, monkeypatch):
    """The oracle answers every candidate query of an ABox over one
    chased model per TBox, and verify_witness chases its own two.  No
    fixture has T1 ⊨ T2, so ``tbox_entails`` is stubbed to its answer,
    False, and every chase left is one of the search."""
    counts = {"chase": 0, "abox": 0, "verify": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_aboxes(*args):
        for abox in enumerate_tree_aboxes(*args):
            counts["abox"] += 1
            yield abox

    p = request.getfixturevalue(fixture)
    assert not entailment.tbox_entails(p.t1, p.t2)
    monkeypatch.setattr(entailment, "tbox_entails", lambda t1, t2: False)
    # models and entailment reach the chase as reasoner.chase
    monkeypatch.setattr(reasoner, "chase", counted("chase", reasoner.chase))
    monkeypatch.setattr(entailment, "enumerate_tree_aboxes", counted_aboxes)
    monkeypatch.setattr(
        entailment, "verify_witness", counted("verify", verify_witness)
    )
    w = entailment.oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 2)
    assert (w is None) == (fixture == "inverse_chain_problem")
    assert counts["abox"] > 0 and counts["verify"] == (w is not None)
    assert counts["chase"] <= 2 * counts["abox"] + 2 * counts["verify"]


def test_shared_model_answers_like_a_fresh_one(monkeypatch):
    """Every membership question the oracle asks of a shared universal
    model gets the verdict a freshly chased model gives, and the oracle's
    reading of a window leaves the shared window as materialize builds
    it."""
    shared = {}

    def checked(model, q, answer):
        got = is_certain_answer(model, q, answer)
        fresh = models.UniversalModel(model.tbox, model.abox)
        assert got == is_certain_answer(fresh, q, answer), (str(q), answer)
        shared[id(model)] = model
        return got

    rng = random.Random(601)
    searched = 0
    while searched < 6:
        _t1, _t2, p = criterion6_problem(rng)
        if entailment.tbox_entails(p.t1, p.t2):
            continue  # the oracle returns at once
        searched += 1
        with monkeypatch.context() as mp:
            mp.setattr(entailment, "is_certain_answer", checked)
            entailment.oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 3)
    assert len(shared) > 10
    for model in shared.values():
        for depth in (1, 2, 3):
            fresh = models.UniversalModel(model.tbox, model.abox)
            want = models.materialize(fresh, depth).to_json()
            assert model.window(depth).to_json() == want


def test_oracle_candidates_follow_stable_key_order(monkeypatch):
    """The oracle's candidate order depends on ``stable_key`` alone, not
    on the hash order of a window's edge set: with no candidate a
    witness, the (query, answer) pairs it asks on seed-601 criterion-6
    draws 0-19 at bounds (2, 3) are, in order, those of the reference
    that sorts every element's neighbours explicitly.  CI runs this
    under two hash seeds."""
    asked = []

    def record(model, q, answer):
        asked.append((cq_to_text(q), answer))
        return True

    monkeypatch.setattr(entailment, "tbox_entails", lambda t1, t2: False)
    monkeypatch.setattr(entailment, "is_certain_answer", record)
    rng = random.Random(601)
    total = 0
    for _ in range(20):
        _t1, _t2, p = criterion6_problem(rng)
        asked.clear()
        assert oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 3) is None
        want = oracle_candidates_by_whole_window(
            p.t1, p.t2, p.sigA, p.sigQ, 2, 3)
        assert asked == want
        total += len(asked)
    assert total > 5000


def test_candidate_queries_hold_under_the_second_tbox():
    """Every candidate the oracle reads off the second TBox's window has
    its answer in that TBox's model (the identity map is a match), so the
    oracle asks each candidate of the first TBox's model only."""
    rng = random.Random(601)
    asked = 0
    for _ in range(6):
        _t1, _t2, p = criterion6_problem(rng)
        for abox in enumerate_tree_aboxes(p.sigA, 2):
            m1 = models.UniversalModel(p.t1, abox)
            m2 = models.UniversalModel(p.t2, abox)
            if not (m1.consistent and m2.consistent):
                continue
            window = entailment._sigma_reduct(m2.window(3), p.sigQ)
            for top in sorted(window.elements, key=models.stable_key):
                subs = models.enumerate_connected_substructures(window, top, 3)
                for sub in subs:
                    for q, ans in entailment._queries_from_sub(
                        sub, window.individuals, "cq"
                    ):
                        assert ans in certain_answers(m2, q), (str(q), ans)
                        asked += 1
    assert asked > 1000


@pytest.mark.parametrize("draw", [13, 18, 40, 83])
def test_budgeted_pass_certificate_replays(draw):
    """Seed-601 criterion-6 draws whose relaxed plan fails the membership
    game: the budgeted pass finds a 4-node certificate that a freshly
    built product accepts."""
    rng = random.Random(601)
    for _ in range(draw + 1):
        _t1, _t2, p = criterion6_problem(rng)
    entails, cert, stats = entailment._run_pipeline(
        p.t1, p.t2, p.sigA, p.sigQ, False)
    assert not entails
    assert stats["spurious_relaxed_plan"]
    assert stats["certificate_nodes"] == 4
    _ctx, prod = build_pipeline(p.t1, p.t2, p.sigA, p.sigQ)
    assert run_on_regular_tree(prod, cert)


def test_enumerate_tree_aboxes_bounds():
    sig = parse_signature("concepts: A\nroles: r")
    seen = list(enumerate_tree_aboxes(sig, 2))
    assert seen
    for a in seen:
        assert len(a.individuals()) <= 2
        assert abox_tree_shaped(a) or not a.role_assertions
    # enumeration is deterministic
    again = list(enumerate_tree_aboxes(sig, 2))
    assert [sorted(a.concept_assertions) for a in seen] == [
        sorted(a.concept_assertions) for a in again
    ]


def test_canonical_abox_key_keeps_a_long_path_connected():
    """Each edge is oriented by the generated index of its individuals,
    not by their names as strings, under which "a10" < "a2": the
    12-individual r-path gets a key with a single root."""
    n = 12
    abox = ABox(set(), {("r", f"a{i}", f"a{i + 1}") for i in range(n - 1)})
    key = entailment._canonical_abox_key(abox)
    assert key == "(|rf[" * (n - 1) + "(|)" + "])" * (n - 1)


def test_decision_json_shape(advisor_problem):
    """A decision the witness-first search settles prints its witness
    and the search's counts; one the pipeline settles prints no
    witness, and the search's counts beside the pipeline's stats."""
    d = decide_cq_entailment(advisor_problem)
    obj = d.to_json_obj()
    assert set(obj) == {"mode", "entails", "precheck", "witness", "stats"}
    assert set(obj["witness"]) == {"abox", "query", "answer"}
    assert obj["stats"] == {"search": {"asked": 6, "capped": False},
                            "settled_by": "witness_search"}
    p = problem("", "A1 and A2 sub bot", "concepts: A1 A2\nroles:",
                "concepts: A1 A2\nroles:")
    obj = decide_cq_entailment(p).to_json_obj()
    assert obj["entails"] and obj["witness"] is None
    assert obj["stats"]["settled_by"] == "pipeline"
    assert obj["stats"]["search"] == {"asked": 7, "capped": False}
    assert obj["stats"]["work"] > 0


def _witness_first_corpus():
    """(case, problem, decision) for the fixtures in every mode that
    accepts them, chain n=1..12 in ``cq`` and the seed-601 criterion-6
    draws in ``cq``, ``1tcq`` and ``cq-incons``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for fixture, texts in FIXTURES.items():
            for mode, name in MODES.items():
                p = problem(*texts)
                try:
                    d = getattr(entailment, name)(p)
                except PreconditionError:
                    continue
                yield f"{fixture}/{mode}", p, d
    for n in range(1, 13):
        p = chain_problem(n)
        yield f"chain/{n}", p, decide_cq_entailment(p)
    draws = _criterion6_draws()
    for mode in ("cq", "1tcq", "cq-incons"):
        for i, p in enumerate(draws):
            yield f"c6/{i:03d}/{mode}", p, getattr(entailment, MODES[mode])(p)


def test_every_witness_first_verdict_carries_a_replaying_witness():
    """Every "does not entail" that the pipeline did not give carries a
    witness that ``verify_witness`` replays (on the swapped problem for
    a backward ``inseparable`` verdict): the role-inclusion precheck's
    one-edge witness, the search's and the forks'.  Every other
    decision has no witness.  The verdicts are the pipeline's: the
    chains separate, and a criterion-6 draw entails in each mode
    exactly when ``tbox_entails`` proves T1 ⊨ T2.  The 30 draws whose
    T2 has a role inclusion that T1 lacks over the signatures separate
    by it in every mode."""
    settled = {}
    with within(20):
        for case, p, d in _witness_first_corpus():
            kind = case.split("/")[0]
            if kind == "chain":
                assert not d.entails, case
            if kind == "c6":
                assert d.entails == entailment.tbox_entails(p.t1, p.t2), case
            by = d.stats.get("settled_by")
            if d.entails or by == "pipeline":
                assert d.witness is None, case
                continue
            settled[kind, by] = settled.get((kind, by), 0) + 1
            assert (by == "role_inclusion") == (d.precheck["ri"] is False)
            if by != "role_inclusion":
                assert d.stats["search"]["capped"] is False, case
            if d.stats.get("direction") == "backward":
                p = p.swapped()
            assert verify_witness(p.t1, p.t2, d.witness), case
    assert settled == {
        ("advisor", "witness_search"): 5, ("chain", "witness_search"): 12,
        ("deductive_bot", "witness_search"): 2,
        ("deductive_exists", "witness_search"): 4,
        ("disjointness", "witness_search"): 2,
        ("c6", "witness_search"): 251, ("c6", "role_inclusion"): 90,
    }


@pytest.mark.parametrize("concepts", ["A", "A B"])
@pytest.mark.parametrize("mode", ["cq-incons", "deductive"])
def test_bot_axiom_decides_with_an_inconsistency_witness(concepts, mode):
    """T2's ``some r A sub bot`` makes the ABox r(a0, a1), A(a1)
    inconsistent, which T1 (empty) is not: the witness-first search
    finds that ABox before any pipeline runs."""
    sig = f"concepts: {concepts}\nroles: r"
    p = problem("", "some r A sub bot", sig, sig)
    with within(1):
        d = getattr(entailment, MODES[mode])(p)
    assert not d.entails
    assert d.stats["settled_by"] == "witness_search"
    assert d.stats["incons"] is False
    assert d.witness.query is None
    assert d.witness.to_json_obj() == {
        "abox": ["A(a1)", "r(a0,a1)"], "query": None, "answer": []}
    assert verify_witness(p.t1, p.t2, d.witness)
    assert not verify_witness(p.t2, p.t1, d.witness)


@pytest.mark.parametrize("fixture, mode", [
    ("advisor", "cq"), ("disjointness", "cq"), ("disjointness", "cq-incons"),
])
def test_a_capped_search_keeps_the_pipeline_verdict(fixture, mode,
                                                     monkeypatch):
    """With the cap at 2, a search that asks more stops there, says so
    in its stats, and leaves the verdict to the pipelines, which give
    the same verdict as the uncapped decision, with no witness.  The
    cap is lowered here because the fixtures' searches ask at most 7
    questions, far below ``SEARCH_CAP``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        p = problem(*FIXTURES[fixture])
    decide = getattr(entailment, MODES[mode])
    want = decide(p).entails
    monkeypatch.setattr(entailment, "SEARCH_CAP", 2)
    d = decide(p)
    assert d.stats["search"] == {"asked": 2, "capped": True}
    assert d.stats["settled_by"] == "pipeline"
    assert d.witness is None
    assert d.entails == want
    assert d.entails or d.certificate is not None
