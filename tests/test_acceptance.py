"""Acceptance gate: example-exact checks plus randomized oracle
agreement, one test (and one pass/fail line under pytest -v) per
criterion.  Time limits are asserted, not just hoped for."""

import random
import warnings

import pytest

from conftest import problem, within
from helpers import (
    BruteForceReasoner,
    criterion6_problem,
    fin_hom_reference,
    random_regular_tree,
    random_tbox_text,
)
from hornsep import mosaics, normalize, parse_signature, parse_tbox
from hornsep.automata import intersect, is_empty, run_on_regular_tree
from hornsep.entailment import (
    build_pipeline,
    decide_1tcq_entailment,
    decide_cq_entailment,
    decide_cq_entailment_incons,
    decide_deductive,
    oracle_witness_search,
    verify_witness,
)
from hornsep.reasoner import index_for


def test_criterion_1_advisor_example_witness(advisor_problem):
    with within(10):
        assert not decide_cq_entailment(advisor_problem).entails
        p = advisor_problem
        w = oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 1)
        assert w is not None and verify_witness(p.t1, p.t2, w)
        # the printed witness up to renaming: one adv-edge, a PhDStud at
        # its head, and the professor query answered at the tail
        assert len(w.abox.role_assertions) == 1
        (r, tail, head), = w.abox.role_assertions
        assert r == "adv"
        assert ("PhDStud", head) in w.abox.concept_assertions
        assert {c for c, _v in w.query.concept_atoms} == {"Prof"}
        assert w.answer == (tail,)


def test_criterion_2_disjointness_example(disjointness_problem):
    with within(10):
        assert decide_cq_entailment(disjointness_problem).entails
    with within(10):
        assert not decide_cq_entailment_incons(disjointness_problem).entails


def test_criterion_3_inverse_chain_example(inverse_chain_problem):
    with within(60):
        assert decide_cq_entailment(inverse_chain_problem).entails
        assert decide_1tcq_entailment(inverse_chain_problem).entails


def test_criterion_4_deductive_examples():
    p1 = problem("", "A1 and A2 sub bot", "concepts: A1 A2 B\nroles:",
                 "concepts: A1 A2 B\nroles:")
    with within(10):
        assert not decide_deductive(p1).entails
    p2 = problem("", "A sub some r B", "concepts: A B\nroles:",
                 "concepts: A B\nroles:")
    with within(10):
        assert decide_deductive(p2).entails


def test_criterion_5_mosaic_oracle_agreement():
    """decide_fin_hom agrees with the bounded unfolding oracle in both
    directions: decide true exactly when the oracle holds at every
    n <= 4."""
    rng = random.Random(501)
    names = ["A", "B", "C"]
    roles = ["r", "s"]
    checked = 0
    with within(600):
        while checked < 100:
            tb1 = normalize(parse_tbox(random_tbox_text(rng, names, roles, 3)))
            tb2 = normalize(parse_tbox(random_tbox_text(rng, names, roles, 3)))
            t0 = frozenset(rng.sample(names, rng.randint(1, 2)))
            sig = parse_signature(
                "concepts: "
                + " ".join(rng.sample(names, rng.randint(1, 3)))
                + "\nroles: "
                + " ".join(rng.sample(roles, rng.randint(1, 2)))
            )
            if not (index_for(tb1).consistent(t0)
                    and index_for(tb2).consistent(t0)):
                continue
            checked += 1
            got = mosaics.decide_fin_hom(tb1, t0, tb2, t0, sig)
            oracle = all(
                fin_hom_reference(tb1, t0, tb2, t0, sig, n)
                for n in range(1, 5)
            )
            assert got == oracle, (tb1, tb2, sorted(t0), sig, got)
    assert checked >= 100


def test_criterion_6_pipeline_oracle_agreement():
    """On random tiny problems the automata verdict is never refuted by
    the brute-force witness search, and every found witness implies a
    'false' verdict."""
    rng = random.Random(601)
    done = 0
    with within(1800):
        while done < 200:
            t1, t2, p = criterion6_problem(rng)
            done += 1
            d = decide_cq_entailment(p)
            w = oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 3, 3)
            if w is not None:
                assert verify_witness(p.t1, p.t2, w)
                assert not d.entails, (t1, t2, w.to_json_obj())
    assert done >= 200


def test_criterion_7_certificates_and_intersection_semantics():
    """Nonemptiness verdicts carry certificates that replay through the
    membership game, and intersection membership is conjunction of
    component memberships on random regular trees."""
    fixtures = [
        ("PhDStud sub some advBy Prof\nadv subr inv(advBy)",
         "PhDStud sub some advBy Prof\nadv subr inv(advBy)\nfunc(advBy)",
         "concepts: PhDStud\nroles: adv", "concepts: Prof\nroles:"),
        ("", "A sub some r B",
         "concepts: A B\nroles: r", "concepts: A B\nroles: r"),
        ("A sub B", "A sub B and some r A",
         "concepts: A B\nroles:", "concepts: A B\nroles: r"),
    ]
    rng = random.Random(701)
    nonempty_seen = 0
    for t1x, t2x, sa, sq in fixtures:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = problem(t1x, t2x, sa, sq)
        ctx, prod = build_pipeline(p.t1, p.t2, p.sigA, p.sigQ)
        res = is_empty(prod)
        assert "spurious_relaxed_plan" not in res.stats
        if not res.empty:
            nonempty_seen += 1
            assert res.certificate is not None
            assert run_on_regular_tree(prod, res.certificate)
        from hornsep.automata import build_A1, build_A2, build_A3, build_A4

        parts = [
            build_A1(ctx),
            build_A2(p.t1, ctx),
            build_A3(p.t2, ctx),
            build_A4(p.t1, p.t2, ctx),
        ]
        singles = [intersect([a]) for a in parts]
        for _ in range(20):
            rep = random_regular_tree(rng, list(ctx.labels), 4)
            want = all(run_on_regular_tree(a, rep) for a in singles)
            assert run_on_regular_tree(prod, rep) == want
    assert nonempty_seen >= 1


def test_criterion_8_reasoner_vs_model_enumeration():
    rng = random.Random(801)
    queries = 0
    with within(300):
        while queries < 500:
            text = random_tbox_text(rng, ["A", "B"], ["r"], 3)
            raw = parse_tbox(text)
            t = normalize(raw)
            brute = BruteForceReasoner(raw, {"A", "B"}, ["r"], max_size=3)
            for _ in range(10):
                seed = frozenset(
                    rng.sample(["A", "B"], rng.randint(1, 2))
                )
                goal = rng.choice(["A", "B"])
                queries += 1
                got = goal in index_for(t).closure(seed)
                want = brute.subsumes(seed, goal)
                assert got == want, (text, sorted(seed), goal, got, want)
    assert queries >= 500
