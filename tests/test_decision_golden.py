"""Pinned decisions: the full ``Decision`` JSON of the paper fixtures in
every mode, recorded in ``data/fixture_decisions.json``, plus the
fork refutation and the universality short cut, whose stats no other
test reads, and the first witness of the brute-force oracle on the random
problems of acceptance criterion 6, recorded in
``data/oracle_witnesses.json``.  A refactor of the decision paths or
the oracle must leave all of them byte-identical."""

import json
import pathlib
import random
import warnings

import pytest

from conftest import problem
from helpers import chain_problem, criterion6_problem
from hornsep import HornsepError, entailment
from hornsep.automata import (
    RegularTreeRep,
    is_empty,
    label_to_json,
    run_on_regular_tree,
)
from hornsep.entailment import build_pipeline

DATA = pathlib.Path(__file__).parent / "data"

_ADVISOR_T1 = "PhDStud sub some advBy Prof\nadv subr inv(advBy)"
# (t1, t2, sigma_a, sigma_q)
FIXTURES = {
    "advisor": (
        _ADVISOR_T1,
        _ADVISOR_T1 + "\nfunc(advBy)",
        "concepts: PhDStud\nroles: adv",
        "concepts: Prof\nroles:",
    ),
    "disjointness": (
        "", "A1 and A2 sub bot",
        "concepts: A1 A2\nroles:", "concepts: A1 A2\nroles:",
    ),
    "inverse_chain": (
        "A sub some s B\nB sub some inv(r) B",
        "A sub some s B\nB sub some r B",
        "concepts: A\nroles:", "concepts:\nroles: r",
    ),
    "deductive_bot": (
        "", "A1 and A2 sub bot",
        "concepts: A1 A2 B\nroles:", "concepts: A1 A2 B\nroles:",
    ),
    "deductive_exists": (
        "", "A sub some r B", "concepts: A B\nroles:", "concepts: A B\nroles:",
    ),
}
MODES = {
    "cq": "decide_cq_entailment",
    "1tcq": "decide_1tcq_entailment",
    "cq-incons": "decide_cq_entailment_incons",
    "deductive": "decide_deductive",
    "conservative": "conservative_extension",
    "inseparable": "inseparable",
}


def _decide(fixture, mode):
    """The decision's JSON object, or the name of the error a mode raises
    to refuse the fixture."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        p = problem(*FIXTURES[fixture])
    try:
        return getattr(entailment, MODES[mode])(p).to_json_obj()
    except HornsepError as exc:
        return {"refused": type(exc).__name__}


GOLDEN = json.loads((DATA / "fixture_decisions.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fixture_decision_matches_golden(case):
    fixture, mode = case.split("/")
    got = _decide(fixture, mode)
    assert json.dumps(got, sort_keys=True) == json.dumps(
        GOLDEN[case], sort_keys=True
    )


def test_deductive_functionality_separation_stats():
    """``func(r)`` separates as r's fork, an inconsistency witness that
    the witness-first search, whose ABoxes have two individuals, cannot
    hold."""
    p = problem("", "func(r)", "concepts: A\nroles: r",
                "concepts: A\nroles: r")
    assert entailment.decide_deductive(p).to_json_obj() == {
        "mode": "deductive",
        "entails": False,
        "precheck": {"ri": True, "profile": True},
        "witness": {"abox": ["r(a0,a1)", "r(a0,a2)"], "query": None,
                    "answer": []},
        "stats": {"search": {"asked": 38, "capped": False},
                  "settled_by": "fork", "incons": False},
    }


def test_cq_incons_universal_stats():
    p = problem("top sub B", "A sub C", "concepts: A\nroles:",
                "concepts: B\nroles:")
    assert entailment.decide_cq_entailment_incons(p).to_json_obj() == {
        "mode": "cq-incons",
        "entails": True,
        "precheck": {"ri": None},
        "witness": None,
        "stats": {"universal": True},
    }


def test_oracle_witnesses_match_golden():
    # the 200 seed-601 problems of criterion 6, at bounds (2, 3)
    want = json.loads((DATA / "oracle_witnesses.json").read_text())
    rng = random.Random(601)
    got = []
    for _ in range(200):
        _t1, _t2, p = criterion6_problem(rng)
        w = entailment.oracle_witness_search(p.t1, p.t2, p.sigA, p.sigQ, 2, 3)
        got.append(w.to_json_obj() if w else None)
    assert got == want


def _certificate_products():
    """The cq and 1tcq products of the fixtures, the chains of length
    1..7 and the seed-601 criterion-6 draws 13, 18, 40 and 83, whose
    relaxed plans fail the game, so their certificates come from the
    budgeted pass."""
    cases = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for fixture, texts in FIXTURES.items():
            p = problem(*texts)
            cases[f"{fixture}/cq"] = (p, False)
            cases[f"{fixture}/1tcq"] = (p, True)
    for n in range(1, 8):
        cases[f"chain/{n}"] = (chain_problem(n), False)
    rng = random.Random(601)
    draws = [criterion6_problem(rng)[2] for _ in range(84)]
    for i in (13, 18, 40, 83):
        cases[f"c6/{i:03d}"] = (draws[i], False)
    for case, (p, sim) in cases.items():
        yield case, build_pipeline(p.t1, p.t2, p.sigA, p.sigQ, sim=sim)[1]


def _certificates():
    """``RegularTreeRep.to_json()`` of ``is_empty``'s certificate, or
    None, on each product of ``_certificate_products``."""
    out = {}
    for case, prod in _certificate_products():
        cert = is_empty(prod).certificate
        out[case] = cert.to_json() if cert else None
    return out


def test_certificates_match_golden():
    want = json.loads((DATA / "certificates.json").read_text())
    assert _certificates() == want


def test_golden_certificates_are_trees_the_game_accepts():
    """Each certificate in ``data/certificates.json``, read back onto its
    product's labels, is a tree, with no back edge, and the membership
    game accepts it on that product."""
    want = json.loads((DATA / "certificates.json").read_text())
    for case, prod in _certificate_products():
        if want[case] is None:
            continue
        data = json.loads(want[case])
        by_json = {json.dumps(label_to_json(l), sort_keys=True): l
                   for l in prod.labels}
        labels = {n["id"]: by_json[json.dumps(n["label"], sort_keys=True)]
                  for n in data["nodes"]}
        children = {n["id"]: n["children"] for n in data["nodes"]}
        rep = RegularTreeRep(labels, children, data["root"])
        kids = sorted(c for cs in children.values() for c in cs)
        assert kids == sorted(set(labels) - {rep.root}), case
        assert len(rep.parents()) == len(labels) - 1, case
        assert run_on_regular_tree(prod, rep), case
