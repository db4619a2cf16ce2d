import random
import warnings

import pytest

from conftest import problem, within
from helpers import (
    abox_tree_shaped,
    criterion6_problem,
    finite_models,
    model_satisfies_raw,
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
from hornsep.reasoner import certain_answers
from hornsep.syntax import ProfileError, Signature


def test_advisor_cq_not_entailed(advisor_problem):
    d = decide_cq_entailment(advisor_problem)
    assert d.mode == "cq"
    assert not d.entails
    assert d.precheck == {"ri": True}
    assert d.certificate is not None


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
    """The bot-free pipeline that refutes leaves its stats under
    ``incons_pipeline`` and its certificate, which the bot-free product
    accepts, on the decision.  T1 ⊨ T2 runs no pipeline and adds no
    key."""
    p = disjointness_problem
    d = decide_cq_entailment_incons(p)
    assert not d.entails
    assert d.stats["incons_pipeline"]["certificate_nodes"] == 1
    fresh = entailment._fresh_concept(p.t1, p.t2)
    _ctx, prod = build_pipeline(
        entailment._bot_free(p.t1, fresh), entailment._bot_free(p.t2, fresh),
        p.sigA, Signature(concepts=frozenset([fresh])),
    )
    assert run_on_regular_tree(prod, d.certificate)
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
    says T1 ⊨ T2."""
    yes = models_checked = 0
    for p in _criterion6_draws():
        if not entailment.tbox_entails(p.t1, p.t2):
            continue
        yes += 1
        t1, t2 = p.t1.source, p.t2.source
        concepts = t1.concept_names() | t2.concept_names()
        roles = t1.role_names() | t2.role_names()
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


def test_role_inclusion_precheck_fails():
    p = problem("", "r subr s", "concepts:\nroles: r s",
                "concepts:\nroles: r s")
    d = decide_cq_entailment(p)
    assert not d.entails
    assert d.precheck == {"ri": False}


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
    """Every query the oracle asks of a shared universal model gets the
    answers a freshly chased model gives, and the oracle's reading of a
    window leaves the shared window as materialize builds it."""
    shared = {}

    def checked(model, q):
        got = certain_answers(model, q)
        fresh = models.UniversalModel(model.tbox, model.abox)
        assert got == certain_answers(fresh, q), str(q)
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
            mp.setattr(entailment, "certain_answers", checked)
            entailment.oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 3)
    assert len(shared) > 10
    for model in shared.values():
        for depth in (1, 2, 3):
            fresh = models.UniversalModel(model.tbox, model.abox)
            want = models.materialize(fresh, depth).to_json()
            assert model.window(depth).to_json() == want


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
                        sub, window.individuals, p.sigQ, "cq"
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
    d = decide_cq_entailment(p)
    assert not d.entails
    assert d.stats["spurious_relaxed_plan"]
    assert d.stats["certificate_nodes"] == 4
    _ctx, prod = build_pipeline(p.t1, p.t2, p.sigA, p.sigQ)
    assert run_on_regular_tree(prod, d.certificate)


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


def test_decision_json_shape(advisor_problem):
    d = decide_cq_entailment(advisor_problem)
    obj = d.to_json_obj()
    assert set(obj) == {"mode", "entails", "precheck", "witness", "stats"}
    assert obj["witness"] is None
