"""End-to-end signature-relative entailment decisions.

Given two TBoxes, an ABox signature and a query signature, the
functions here decide whether every certain answer under the second
TBox is a certain answer under the first, over all ABoxes in the ABox
signature that are consistent with both TBoxes.  Variants cover plain
conjunctive queries, rooted tree queries with one answer variable
(which characterize axiom-level entailment), the relaxation that also
quantifies over inconsistent ABoxes, conservative extensions, and
mutual inseparability.

Two independent routes exist on purpose: the automata pipeline (label
context, four-way intersection, emptiness) decides the problem, and
``oracle_witness_search`` enumerates small concrete counterexamples by
brute force.  The oracle is sound for non-entailment and deliberately
incomplete; the test suite keeps both routes honest against each other.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

from . import automata, models, reasoner
from .reasoner import certain_answers, index_for
from .syntax import (
    ABox,
    CQ,
    ConjSub,
    HornsepError,
    NormalTBox,
    ProfileError,
    Role,
    Signature,
    SubAll,
    SubBot,
    TBox,
    cq_is_1tcq,
    cq_to_text,
    is_elhifbot,
    normalize,
)


class PreconditionError(HornsepError):
    """A mode-specific precondition fails (for example, conservative
    extension mode on TBoxes without the syntactic inclusion)."""


@dataclass
class Problem:
    t1_raw: TBox
    t2_raw: TBox
    t1: NormalTBox
    t2: NormalTBox
    sigA: Signature
    sigQ: Signature

    def swapped(self) -> "Problem":
        return Problem(
            self.t2_raw, self.t1_raw, self.t2, self.t1, self.sigA, self.sigQ
        )


def make_problem(
    t1_raw: TBox, t2_raw: TBox, sigA: Signature, sigQ: Signature
) -> Problem:
    t1 = normalize(t1_raw)
    t2 = normalize(t2_raw)
    fresh = set(t1.fresh) | set(t2.fresh)
    bad = (set(sigA.concepts) | set(sigQ.concepts)) & fresh
    if bad:
        raise HornsepError(
            f"signature mentions internal normalization names: {sorted(bad)}"
        )
    return Problem(t1_raw, t2_raw, t1, t2, sigA, sigQ)


@dataclass
class Witness:
    """A concrete refutation of entailment: the query has the given
    answer over the ABox under the second TBox but not under the first."""

    abox: ABox
    query: CQ
    answer: tuple

    def to_json_obj(self):
        return {
            "abox": sorted(
                [f"{a}({x})" for a, x in self.abox.concept_assertions]
                + [f"{r}({x},{y})" for r, x, y in self.abox.role_assertions]
            ),
            "query": cq_to_text(self.query),
            "answer": list(self.answer),
        }


def verify_witness(t1: NormalTBox, t2: NormalTBox, w: Witness) -> bool:
    """Replay a witness on universal models of its own, built afresh."""
    m1 = models.UniversalModel(t1, w.abox)
    if not m1.consistent:
        return False
    m2 = models.UniversalModel(t2, w.abox)
    if not m2.consistent:
        return False
    if w.answer not in certain_answers(m2, w.query):
        return False
    return w.answer not in certain_answers(m1, w.query)


@dataclass
class Decision:
    mode: str
    entails: bool
    precheck: dict = field(default_factory=dict)
    witness: Witness | None = None
    certificate: object = None
    stats: dict = field(default_factory=dict)

    def to_json_obj(self):
        return {
            "mode": self.mode,
            "entails": self.entails,
            "precheck": self.precheck,
            "witness": self.witness.to_json_obj() if self.witness else None,
            "stats": self.stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# prechecks

def check_ri(
    t1: NormalTBox, t2: NormalTBox, sigA: Signature, sigQ: Signature
) -> bool:
    """No role inclusion over the signatures separates the TBoxes: any
    ABox-role into query-role inclusion the second TBox entails, the
    first entails too."""
    idx1 = index_for(t1)
    idx2 = index_for(t2)
    for r in sorted(sigA.role_objects()):
        for s in sorted(sigQ.role_objects()):
            if idx2.role_subsumes(r, s) and not idx1.role_subsumes(r, s):
                return False
    return True


# ---------------------------------------------------------------------------
# automata pipeline

def build_pipeline(
    t1: NormalTBox,
    t2: NormalTBox,
    sigA: Signature,
    sigQ: Signature,
    sim: bool = False,
):
    ctx = automata.build_label_context(t1, t2, sigA, sigQ)
    a4 = (
        automata.build_A4_sim(t1, t2, ctx)
        if sim
        else automata.build_A4(t1, t2, ctx)
    )
    return ctx, automata.intersect(
        [
            automata.build_A1(ctx),
            automata.build_A2(t1, ctx),
            automata.build_A3(t2, ctx),
            a4,
        ]
    )


def _run_pipeline(t1, t2, sigA, sigQ, sim):
    ctx, product = build_pipeline(t1, t2, sigA, sigQ, sim=sim)
    res = automata.is_empty(product)
    stats = dict(res.stats)
    stats["labels"] = len(ctx.labels)
    stats["states"] = len(product.rules)
    return res.empty, res.certificate, stats


def _decide_queries(
    p: Problem, mode: str, sim: bool, precheck: dict
) -> Decision:
    """The decision all query modes share, given their prechecks: CQs,
    or with ``sim`` rooted tree queries, whose A4 condition is a
    simulation instead of a homomorphism."""
    if not precheck["ri"]:
        return Decision(mode, False, precheck)
    if _raw_subset(p.t2_raw, p.t1_raw):
        # certain answers are monotone in the TBox, so a syntactic
        # superset on the first side settles the question
        return Decision(mode, True, precheck, stats={"subset": True})
    entails, cert, stats = _run_pipeline(p.t1, p.t2, p.sigA, p.sigQ, sim)
    return Decision(mode, entails, precheck, certificate=cert, stats=stats)


def decide_cq_entailment(p: Problem) -> Decision:
    ri = check_ri(p.t1, p.t2, p.sigA, p.sigQ)
    return _decide_queries(p, "cq", False, {"ri": ri})


def decide_1tcq_entailment(p: Problem) -> Decision:
    ri = check_ri(p.t1, p.t2, p.sigA, p.sigQ)
    return _decide_queries(p, "1tcq", True, {"ri": ri})


# ---------------------------------------------------------------------------
# universality and inconsistency entailment

def decide_universal(t1: NormalTBox, sigA: Signature, sigQ: Signature) -> bool:
    """Every query-signature CQ holds with every answer over every
    ABox-signature ABox.  Reduces to: no roles in the query signature,
    and every single-assertion ABox entails every query concept at every
    individual."""
    if sigQ.roles:
        return False
    qconcepts = sorted(sigQ.concepts)
    if not qconcepts:
        return True
    singles = []
    for c in sorted(sigA.concepts):
        singles.append(ABox(concept_assertions={(c, "a")}))
    for r in sorted(sigA.roles):
        singles.append(ABox(role_assertions={(r, "a", "b")}))
    for abox in singles:
        state = reasoner.chase(t1, abox)
        if not state.consistent:
            continue
        for b in qconcepts:
            for a in sorted(abox.individuals()):
                if b not in state.tp[a]:
                    return False
    return True


def _fresh_concept(*tboxes) -> str:
    used = set()
    for t in tboxes:
        used |= t.concept_names()
    name = "_Unsat"
    while name in used:
        name += "_"
    return name


def _bot_free(t: NormalTBox, fresh: str) -> NormalTBox:
    """Replace unsatisfiability by membership in a fresh concept that
    spreads over every role of the TBox, so that ABox inconsistency
    becomes a certain answer to the fresh concept."""
    cis = []
    for ci in t.cis:
        if isinstance(ci, SubBot):
            cis.append(ConjSub(ci.sub, ci.sub, fresh))
        else:
            cis.append(ci)
    names = sorted({r.name for r in t.roles()})
    for n in names:
        cis.append(SubAll(fresh, Role(n), fresh))
        cis.append(SubAll(fresh, Role(n, True), fresh))
    return NormalTBox(cis=cis, ris=list(t.ris), fas=set(t.fas), fresh=dict(t.fresh))


def decide_incons_entailment(t1: NormalTBox, t2: NormalTBox, sigA: Signature):
    """Every ABox-signature ABox inconsistent with the second TBox is
    inconsistent with the first.  Returns (entails, certificate, stats)
    of the bot-free pipeline, as ``_run_pipeline`` does; with no
    pipeline run, the certificate is None and the stats are empty."""
    cert, stats = None, {}
    # without a bot axiom the bot-free second TBox never derives the
    # fresh concept, so only the forks below can be inconsistent
    if any(isinstance(ci, SubBot) for ci in t2.cis):
        fresh = _fresh_concept(t1, t2)
        sigF = Signature(concepts=frozenset([fresh]))
        entails, cert, stats = _run_pipeline(
            _bot_free(t1, fresh), _bot_free(t2, fresh), sigA, sigF, False
        )
        if not entails:
            return False, cert, stats
    # two-successor functionality forks are invisible to the reduction
    for n in sorted(sigA.roles):
        forks = (
            ABox(role_assertions={(n, "a", "b"), (n, "a", "c")}),
            ABox(role_assertions={(n, "b", "a"), (n, "c", "a")}),
        )
        for abox in forks:
            if (
                not reasoner.chase(t2, abox).consistent
                and reasoner.chase(t1, abox).consistent
            ):
                return False, cert, stats
    return True, cert, stats


def _with_incons(p: Problem, d: Decision) -> Decision:
    """Strengthen an entailing decision of a mode that also compares
    inconsistent ABoxes: it holds only if every ABox inconsistent with
    the second TBox is inconsistent with the first.  A syntactic subset
    settles that as it settled the query entailment.  The bot-free
    pipeline's stats go under ``incons_pipeline``, and its certificate,
    when it refutes, becomes the decision's."""
    if not d.entails:
        return d
    if d.stats.get("subset", False):
        return replace(d, stats={**d.stats, "incons": True})
    incons, cert, pipeline = decide_incons_entailment(p.t1, p.t2, p.sigA)
    stats = {**d.stats, "incons": incons}
    if pipeline:
        stats["incons_pipeline"] = pipeline
    return replace(d, entails=incons, certificate=cert, stats=stats)


def decide_cq_entailment_incons(p: Problem) -> Decision:
    if decide_universal(p.t1, p.sigA, p.sigQ):
        return Decision("cq-incons", True, {"ri": None}, stats={"universal": True})
    return _with_incons(p, replace(decide_cq_entailment(p), mode="cq-incons"))


# ---------------------------------------------------------------------------
# deductive entailment, conservative extensions, inseparability

def decide_deductive(p: Problem) -> Decision:
    """Axiom-level entailment over a single signature: every concept or
    role inclusion and functionality assertion over the signature that
    follows from the second TBox follows from the first."""
    if p.sigA != p.sigQ:
        raise PreconditionError("deductive mode uses one shared signature")
    if not is_elhifbot(p.t1_raw) or not is_elhifbot(p.t2_raw):
        raise ProfileError(
            "deductive entailment is only supported for TBoxes whose "
            "printed axioms avoid value restrictions and conjunctions on "
            "the right of existentials"
        )
    sig = p.sigA
    precheck = {"ri": check_ri(p.t1, p.t2, sig, sig), "profile": True}
    if not precheck["ri"]:
        return Decision("deductive", False, precheck)
    idx1 = index_for(p.t1)
    idx2 = index_for(p.t2)
    for n in sorted(sig.roles):
        for r in (Role(n), Role(n, True)):
            if idx2.functional_superroles(r) and not idx1.functional_superroles(r):
                return Decision(
                    "deductive", False, precheck,
                    stats={"functionality": str(r)},
                )
    return _with_incons(p, _decide_queries(p, "deductive", True, precheck))


def _raw_subset(t1: TBox, t2: TBox) -> bool:
    return (
        all(any(ci == cj for cj in t2.cis) for ci in t1.cis)
        and all(any(ri == rj for rj in t2.ris) for ri in t1.ris)
        and t1.fas <= t2.fas
    )


def conservative_extension(p: Problem) -> Decision:
    if not _raw_subset(p.t1_raw, p.t2_raw):
        raise PreconditionError(
            "conservative extension mode requires the first TBox to be a "
            "syntactic subset of the second"
        )
    return replace(decide_cq_entailment(p), mode="conservative")


def inseparable(p: Problem) -> Decision:
    d = decide_cq_entailment(p)
    if not d.entails:
        direction = "forward"
    else:
        d = decide_cq_entailment(p.swapped())
        direction = "both" if d.entails else "backward"
    return replace(
        d, mode="inseparable", stats={**d.stats, "direction": direction}
    )


# ---------------------------------------------------------------------------
# brute-force witness oracle

def _canonical_abox_key(abox: ABox) -> str:
    """Isomorphism-invariant serialization of a tree-shaped ABox."""
    kids = {}
    parent = {}
    for r, a, b in abox.role_assertions:
        # generation guarantees one role assertion per non-root, touching
        # its parent; orient by individual naming (parents come first)
        lo, hi = (a, b) if a < b else (b, a)
        parent[hi] = lo
        kids.setdefault(lo, []).append((r, a, b))
    conc = {}
    for c, a in abox.concept_assertions:
        conc.setdefault(a, []).append(c)
    roots = [a for a in abox.individuals() if a not in parent]

    def ser(node):
        own = ",".join(sorted(conc.get(node, [])))
        subs = []
        for r, a, b in kids.get(node, []):
            child = b if a == node else a
            direction = "f" if a == node else "b"
            subs.append(f"{r}{direction}[{ser(child)}]")
        return f"({own}|{'|'.join(sorted(subs))})"

    return "&".join(sorted(ser(r) for r in roots))


def enumerate_tree_aboxes(sigA: Signature, max_ind: int):
    """Canonical connected tree-shaped ABoxes over the signature with at
    most max_ind individuals, one per isomorphism class."""
    concepts = sorted(sigA.concepts)
    roles = sorted(sigA.roles)
    conc_opts = [
        frozenset(c)
        for k in range(len(concepts) + 1)
        for c in itertools.combinations(concepts, k)
    ]
    edge_opts = [(r, d) for r in roles for d in ("f", "b")]
    seen = set()
    for n in range(1, max_ind + 1):
        names = [f"a{i}" for i in range(n)]
        if n == 1:
            parent_arrays = [()]
        else:
            parent_arrays = itertools.product(*(range(i) for i in range(1, n)))
        for parents in parent_arrays:
            edge_choices = itertools.product(edge_opts, repeat=n - 1)
            for edges in edge_choices:
                role_asserts = set()
                for i, (p, (r, d)) in enumerate(zip(parents, edges), start=1):
                    if d == "f":
                        role_asserts.add((r, names[p], names[i]))
                    else:
                        role_asserts.add((r, names[i], names[p]))
                for concs in itertools.product(conc_opts, repeat=n):
                    concept_asserts = {
                        (c, names[i]) for i in range(n) for c in concs[i]
                    }
                    if not concept_asserts and not role_asserts:
                        continue
                    abox = ABox(concept_asserts, set(role_asserts))
                    key = _canonical_abox_key(abox)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield abox


def _sigma_reduct(interp: models.Interpretation, sig: Signature):
    out = models.Interpretation()
    for e in interp.elements:
        out.add_element(
            e, {c for c in interp.labels.get(e, ()) if c in sig.concepts}
        )
    out.individuals = set(interp.individuals)
    out.edges = {(a, r, b) for a, r, b in interp.edges if r in sig.roles}
    return out


def _queries_from_sub(sub: models.Interpretation, individuals, sigQ, mode):
    """Candidate queries read off one connected substructure of the
    materialized second-TBox model: each element becomes a variable."""
    elems = sorted(sub.elements, key=models.stable_key)
    var = {e: f"x{i}" for i, e in enumerate(elems)}
    concept_atoms = {
        (c, var[e]) for e in elems for c in sub.labels.get(e, ())
    }
    role_atoms = {(r, var[a], var[b]) for a, r, b in sub.edges}
    if not concept_atoms and not role_atoms:
        return
    if mode != "1tcq":
        yield CQ((), set(concept_atoms), set(role_atoms)), ()
    for e in elems:
        if e in individuals:
            q = CQ((var[e],), set(concept_atoms), set(role_atoms))
            if mode == "1tcq" and not cq_is_1tcq(q):
                continue
            yield q, (e,)


def oracle_witness_search(
    t1: NormalTBox,
    t2: NormalTBox,
    sigA: Signature,
    sigQ: Signature,
    max_ind: int,
    max_vars: int,
    mode: str = "cq",
) -> Witness | None:
    """Enumerate small tree-shaped ABoxes and small connected queries
    read off the second TBox's materialized model; return the first
    replayable witness.  Sound, incomplete: ``None`` means no witness
    within the bounds, after an exhaustive search of them.  A time
    limit is the caller's, and interrupts the search with an exception
    (the command line raises ``ResourceLimitError``).  Each ABox is
    chased once per TBox.  A candidate's answer holds under the second
    TBox by construction (the identity map is a match), so each
    candidate is asked once, of the first TBox's model, and
    ``verify_witness`` replays the one returned."""
    for abox in enumerate_tree_aboxes(sigA, max_ind):
        m1 = models.UniversalModel(t1, abox)
        if not m1.consistent:
            continue
        m2 = models.UniversalModel(t2, abox)
        if not m2.consistent:
            continue
        window = _sigma_reduct(m2.window(max_vars), sigQ)
        tried = set()
        subs = []
        for top in sorted(window.elements, key=models.stable_key):
            subs.extend(
                models.enumerate_connected_substructures(window, top, max_vars)
            )
        for sub in subs:
            for q, ans in _queries_from_sub(sub, window.individuals, sigQ, mode):
                key = (cq_to_text(q), ans)
                if key in tried:
                    continue
                tried.add(key)
                if ans in certain_answers(m1, q):
                    continue
                w = Witness(abox, q, ans)
                if verify_witness(t1, t2, w):
                    return w
    return None
