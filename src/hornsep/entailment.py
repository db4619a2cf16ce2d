"""End-to-end signature-relative entailment decisions.

Given two TBoxes, an ABox signature and a query signature, the
functions here decide whether every certain answer under the second
TBox is a certain answer under the first, over all ABoxes in the ABox
signature that are consistent with both TBoxes.  Variants cover plain
conjunctive queries, rooted tree queries with one answer variable
(which characterize axiom-level entailment), the relaxation that also
quantifies over inconsistent ABoxes, conservative extensions, and
mutual inseparability.

Every decision runs its checks in one order, and the first that
settles the problem ends it:

1. in ``cq-incons``, universality (``decide_universal``, "entails");
2. role inclusions (``check_ri``): a one-edge witness of T2 ⊨ R ⊑ S
   and T1 ⊭ R ⊑ S, with ``"ri": false`` in the precheck;
3. ``tbox_entails``: T1 ⊨ T2 is "entails" in every mode;
4. the witness-first search: tree ABoxes of at most
   ``SEARCH_BOUNDS[0]`` individuals and queries of at most
   ``SEARCH_BOUNDS[1]`` variables, of the kind the mode's pipeline
   refutes (CQs, or rooted tree queries for ``1tcq`` and
   ``deductive``), and in ``cq-incons`` and ``deductive`` also ABoxes
   consistent with T1 and inconsistent with T2.  It stops after
   ``SEARCH_CAP`` ABoxes and questions, and ``Decision.stats`` records
   ``{"asked": n, "capped": bool}`` under ``search``, with
   ``"settled_by": "witness_search"`` when it finds a witness;
5. in ``cq-incons`` and ``deductive``, the forks (``_fork_witness``),
   which the search's two individuals cannot hold;
6. the automata pipeline (label context, four-way intersection,
   emptiness), and for ``cq-incons`` and ``deductive`` the bot-free
   pipeline that compares inconsistent ABoxes, with ``"settled_by":
   "pipeline"``.

Steps 2, 4 and 5 say "does not entail" only with a witness that
``verify_witness`` replayed, and name themselves in ``"settled_by"``.
The search is the per-ABox loop of ``oracle_witness_search``, the
unbounded brute-force route the ``oracle`` command runs.  Both are
sound for non-entailment and deliberately incomplete; the test suite
keeps them and the pipeline honest against each other.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

from . import automata, models, reasoner
from .reasoner import BOT, index_for, is_certain_answer
from .syntax import (
    ABox,
    And,
    Bot,
    CQ,
    ConjSub,
    Exists,
    Forall,
    HornsepError,
    Name,
    NormalTBox,
    ProfileError,
    Role,
    Signature,
    SubAll,
    SubBot,
    TBox,
    Top,
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
    """Two normalized TBoxes and the two signatures; each TBox keeps the
    axioms as written in ``source``."""

    t1: NormalTBox
    t2: NormalTBox
    sigA: Signature
    sigQ: Signature

    def swapped(self) -> "Problem":
        return Problem(self.t2, self.t1, self.sigA, self.sigQ)


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
    return Problem(t1, t2, sigA, sigQ)


@dataclass
class Witness:
    """A concrete refutation of entailment: the query has the given
    answer over the ABox under the second TBox but not under the first.
    An inconsistency witness has no query (and no answer): the ABox is
    consistent with the first TBox and inconsistent with the second."""

    abox: ABox
    query: CQ | None
    answer: tuple = ()

    def to_json_obj(self):
        return {
            "abox": sorted(
                [f"{a}({x})" for a, x in self.abox.concept_assertions]
                + [f"{r}({x},{y})" for r, x, y in self.abox.role_assertions]
            ),
            "query": None if self.query is None else cq_to_text(self.query),
            "answer": list(self.answer),
        }


def verify_witness(t1: NormalTBox, t2: NormalTBox, w: Witness) -> bool:
    """Replay a witness on universal models of its own, built afresh."""
    m1 = models.UniversalModel(t1, w.abox)
    if not m1.consistent:
        return False
    m2 = models.UniversalModel(t2, w.abox)
    if w.query is None:
        return not m2.consistent
    if not m2.consistent:
        return False
    if not is_certain_answer(m2, w.query, w.answer):
        return False
    return not is_certain_answer(m1, w.query, w.answer)


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
) -> Witness | None:
    """The witness of a role inclusion from an ABox role R into a query
    role S that separates the TBoxes, or None: the ABox R(a0, a1), the
    query ``q(x0, x1) <- S(x0, x1)`` and the answer (a0, a1).  Horn-ALCHIF
    derives role assertions between individuals only through role
    inclusions, so a pair separates exactly when this one edge does; an
    edge inconsistent with either TBox leaves every ABox with an R-edge
    out of the comparison.  ``role_subsumes`` filters the pairs first."""
    idx1 = index_for(t1)
    idx2 = index_for(t2)
    for r in sorted(sigA.role_objects()):
        for s in sorted(sigQ.role_objects()):
            if idx2.role_subsumes(r, s) and not idx1.role_subsumes(r, s):
                q = CQ(("x0", "x1"))
                _tree_query(Exists(s, Top()), "x0", q)
                w = Witness(_successors(r), q, ("a0", "a1"))
                if verify_witness(t1, t2, w):
                    return w
    return None


def tbox_entails(t1: NormalTBox, t2: NormalTBox) -> bool:
    """A sound, incomplete test of T1 ⊨ T2: True only when the first
    TBox entails every axiom of the second as written (``t2.source``).

    An axiom the first TBox holds verbatim is entailed.  Otherwise the
    left side becomes a tree ABox, chased under T1, and the right side
    is read off that universal model (``_holds``).  Role inclusions go
    through ``role_subsumes``.  ``func(R)`` holds exactly when R's fork
    R(a0, a1), R(a0, a2) is inconsistent with T1 under standard names,
    since a model with two R-successors of one element unravels into a
    model of the fork.  Any other shape answers False, "unknown".  The
    chases run on a private copy of T1, so that the names they bring in
    do not reach the index the pipeline reads."""
    raw = t2.source
    if raw is None or raw.concept_names() & set(t1.fresh):
        return False
    t1 = replace(t1)
    idx = index_for(t1)
    if not all(idx.role_subsumes(r, s) for r, s in raw.ris):
        return False
    if any(reasoner.chase(t1, _successors(f, f)).consistent for f in raw.fas):
        return False
    held = set(t1.source.cis) if t1.source is not None else set()
    fresh = _fresh_concept(t1, raw)
    for left, right in raw.cis:
        if (left, right) in held:
            continue
        abox = ABox()
        if not _assert_tree(left, "a0", abox):
            continue  # a left side holding bot is empty in every model
        if abox.is_empty():
            # top: one individual, in a name no TBox uses
            abox.concept_assertions.add((fresh, "a0"))
        if not _holds(t1, abox, "a0", right):
            return False
    return True


def _new_successor(abox: ABox, a: str, role: Role) -> str:
    """Assert a role edge from a to a new individual, and return it."""
    b = f"a{len(abox.role_assertions) + 1}"
    abox.role_assertions.add(
        (role.name, b, a) if role.inverted else (role.name, a, b)
    )
    return b


def _successors(*roles: Role) -> ABox:
    """One edge out of a0 per role, each to a new individual: a0 ... an.
    The same role twice is its fork."""
    abox = ABox()
    for role in roles:
        _new_successor(abox, "a0", role)
    return abox


def _assert_tree(c, a: str, abox: ABox) -> bool:
    """Add the tree ABox of a left side at individual a: names are
    concept assertions, ``and`` asserts both sides at a, ``some R D``
    asserts D at a new R-successor, and top asserts nothing.  False
    when c holds bot, which makes it empty."""
    if isinstance(c, Bot):
        return False
    if isinstance(c, Name):
        abox.concept_assertions.add((c.name, a))
    elif isinstance(c, And):
        return _assert_tree(c.left, a, abox) and _assert_tree(c.right, a, abox)
    elif isinstance(c, Exists):
        return _assert_tree(c.arg, _new_successor(abox, a, c.role), abox)
    return True


def _holds(t1: NormalTBox, abox: ABox, a: str, c) -> bool:
    """T1 and the tree ABox entail c at individual a, as far as the
    check can tell.  A fork of a functional role is not an
    inconsistency here: an interpretation may identify the two
    individuals, so the answer is "unknown"."""
    m = models.UniversalModel(t1, abox)
    if not m.consistent:
        return any(BOT in tp for tp in m.state.tp.values())
    return _holds_in(m, a, c)


def _holds_in(m: models.UniversalModel, a: str, c) -> bool:
    if isinstance(c, Top):
        return True
    if isinstance(c, And):
        return _holds_in(m, a, c.left) and _holds_in(m, a, c.right)
    if isinstance(c, Forall):
        abox = ABox(set(m.abox.concept_assertions), set(m.abox.role_assertions))
        b = _new_successor(abox, a, c.role)
        return _holds(m.tbox, abox, b, c.arg)
    q = CQ(("x0",))
    return _tree_query(c, "x0", q) and is_certain_answer(m, q, (a,))


def _tree_query(c, z: str, q: CQ) -> bool:
    """Add the atoms of c at variable z of the tree CQ q: False for bot
    (the model is consistent) and for ``only`` below ``some``."""
    if isinstance(c, Top):
        return True
    if isinstance(c, Name):
        q.concept_atoms.add((c.name, z))
        return True
    if isinstance(c, And):
        return _tree_query(c.left, z, q) and _tree_query(c.right, z, q)
    if isinstance(c, Exists):
        w = f"x{len(q.role_atoms) + 1}"
        r = c.role
        q.role_atoms.add((r.name, w, z) if r.inverted else (r.name, z, w))
        return _tree_query(c.arg, w, q)
    return False


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


#: the witness-first search's bounds: ABox individuals, query variables
SEARCH_BOUNDS = (2, 2)
#: the ABoxes and membership questions the search asks at most before
#: it leaves the problem to the pipeline; a count, so that where the
#: search stops does not depend on the machine's speed
SEARCH_CAP = 20_000


def _decide_queries(
    p: Problem, mode: str, sim: bool, incons: bool = False, **precheck
) -> Decision:
    """The decision all query modes share: CQs, or with ``sim`` rooted
    tree queries, whose A4 condition is a simulation instead of a
    homomorphism; with ``incons``, it also compares the ABoxes
    inconsistent with the second TBox.  The checks run in the order of
    the module docstring; ``precheck`` holds the mode's own, which
    passed."""
    w = check_ri(p.t1, p.t2, p.sigA, p.sigQ)
    precheck = {"ri": w is None, **precheck}
    if w is not None:
        return Decision(mode, False, precheck, witness=w,
                        stats={"settled_by": "role_inclusion"})
    if tbox_entails(p.t1, p.t2):
        # certain answers and inconsistency are monotone in the TBox, so
        # T1 ⊨ T2 settles the question
        stats = {"subset": True}
        if incons:
            stats["incons"] = True
        return Decision(mode, True, precheck, stats=stats)
    w, asked, capped = _scan_witnesses(
        p.t1, p.t2, p.sigA, p.sigQ, *SEARCH_BOUNDS,
        mode="1tcq" if sim else "cq", incons=incons, cap=SEARCH_CAP,
    )
    stats = {"search": {"asked": asked, "capped": capped},
             "settled_by": "witness_search"}
    if w is None and incons:
        w = _fork_witness(p.t1, p.t2, p.sigA)
        stats["settled_by"] = "fork"
    if w is not None:
        if w.query is None:
            stats["incons"] = False
        return Decision(mode, False, precheck, witness=w, stats=stats)
    entails, cert, pipeline = _run_pipeline(p.t1, p.t2, p.sigA, p.sigQ, sim)
    stats = {**pipeline, **stats, "settled_by": "pipeline"}
    if incons and entails:
        # it holds only if every ABox inconsistent with T2 is
        # inconsistent with T1; no fork separated, so the bot-free
        # pipeline decides
        entails, cert, pipeline = decide_incons_entailment(p.t1, p.t2, p.sigA)
        stats["incons"] = entails
        if pipeline:
            stats["incons_pipeline"] = pipeline
    return Decision(mode, entails, precheck, certificate=cert, stats=stats)


def decide_cq_entailment(p: Problem) -> Decision:
    return _decide_queries(p, "cq", False)


def decide_1tcq_entailment(p: Problem) -> Decision:
    return _decide_queries(p, "1tcq", True)


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
    singles = [ABox({(c, "a")}) for c in sorted(sigA.concepts)]
    singles += [ABox(role_assertions={(r, "a", "b")})
                for r in sorted(sigA.roles)]
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
    used = set().union(*(t.concept_names() for t in tboxes))
    name = "_Unsat"
    while name in used:
        name += "_"
    return name


def _bot_free(t: NormalTBox, fresh: str) -> NormalTBox:
    """Replace unsatisfiability by membership in a fresh concept that
    spreads over every role of the TBox, so that ABox inconsistency
    becomes a certain answer to the fresh concept."""
    cis = [ConjSub(ci.sub, ci.sub, fresh) if isinstance(ci, SubBot) else ci
           for ci in t.cis]
    for n in sorted({r.name for r in t.roles()}):
        cis.append(SubAll(fresh, Role(n), fresh))
        cis.append(SubAll(fresh, Role(n, True), fresh))
    return NormalTBox(cis=cis, ris=list(t.ris), fas=set(t.fas), fresh=dict(t.fresh))


def decide_incons_entailment(t1: NormalTBox, t2: NormalTBox, sigA: Signature):
    """Every ABox-signature ABox that the second TBox makes inconsistent
    by deriving bot is inconsistent with the first.  Returns (entails,
    certificate, stats) of the bot-free pipeline, as ``_run_pipeline``
    does, or (True, None, {}) without a bot axiom in T2.  It misses
    functionality: an ABox a fork makes inconsistent holds a fork that
    is on its own, which ``_fork_witness``, asked first, finds."""
    if not any(isinstance(ci, SubBot) for ci in t2.cis):
        return True, None, {}
    fresh = _fresh_concept(t1, t2)
    sigF = Signature(concepts=frozenset([fresh]))
    return _run_pipeline(
        _bot_free(t1, fresh), _bot_free(t2, fresh), sigA, sigF, False
    )


def _fork_witness(t1: NormalTBox, t2: NormalTBox, sigA: Signature):
    """The first fork R1(a0, a1), R2(a0, a2) over the ABox signature's
    roles that is consistent with the first TBox and inconsistent with
    the second, as a replayed inconsistency witness, or None.  R's own
    fork is inconsistent exactly when the TBox entails ``func(R)``."""
    roles = sorted(sigA.role_objects())
    for r1, r2 in itertools.combinations_with_replacement(roles, 2):
        w = Witness(_successors(r1, r2), None)
        if verify_witness(t1, t2, w):
            return w
    return None


def decide_cq_entailment_incons(p: Problem) -> Decision:
    if decide_universal(p.t1, p.sigA, p.sigQ):
        return Decision("cq-incons", True, {"ri": None}, stats={"universal": True})
    return _decide_queries(p, "cq-incons", False, incons=True)


# ---------------------------------------------------------------------------
# deductive entailment, conservative extensions, inseparability

def decide_deductive(p: Problem) -> Decision:
    """Axiom-level entailment over a single signature: every concept or
    role inclusion and functionality assertion over the signature that
    follows from the second TBox follows from the first: ``1tcq``
    entailment that also compares inconsistent ABoxes.  A separating
    R ⊑ S is ``check_ri``'s witness, a separating ``func(R)`` R's fork
    (``_fork_witness``), and a separating C ⊑ D a tree ABox with a rooted
    tree query, or with none for D = bot."""
    if p.sigA != p.sigQ:
        raise PreconditionError("deductive mode uses one shared signature")
    if not is_elhifbot(p.t1.source) or not is_elhifbot(p.t2.source):
        raise ProfileError(
            "deductive entailment is only supported for TBoxes whose "
            "printed axioms avoid value restrictions and conjunctions on "
            "the right of existentials"
        )
    return _decide_queries(p, "deductive", True, incons=True, profile=True)


def _raw_subset(t1: TBox, t2: TBox) -> bool:
    return (
        all(any(ci == cj for cj in t2.cis) for ci in t1.cis)
        and all(any(ri == rj for rj in t2.ris) for ri in t1.ris)
        and t1.fas <= t2.fas
    )


def conservative_extension(p: Problem) -> Decision:
    if not _raw_subset(p.t1.source, p.t2.source):
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
    """Isomorphism-invariant serialization of a tree-shaped ABox whose
    individuals are named as ``enumerate_tree_aboxes`` names them."""
    kids = {}
    parent = {}
    for r, a, b in abox.role_assertions:
        # generation guarantees one role assertion per non-root, touching
        # its parent; orient by the generated index (parents come first):
        # a shorter name has the smaller index, so "a2" comes before "a10"
        lo, hi = (a, b) if (len(a), a) < (len(b), b) else (b, a)
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


def _queries_from_sub(sub: models.Interpretation, individuals, mode):
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
    within the bounds, after an exhaustive search of them, or that
    ``tbox_entails`` proved T1 ⊨ T2, so no witness exists at any bound.
    A time limit is the caller's, and interrupts the search with an
    exception (the command line raises ``ResourceLimitError``)."""
    if tbox_entails(t1, t2):
        return None
    return _scan_witnesses(t1, t2, sigA, sigQ, max_ind, max_vars, mode)[0]


def _scan_witnesses(t1, t2, sigA, sigQ, max_ind, max_vars, mode,
                    incons=False, cap=None):
    """The per-ABox loop of both witness searches.  Each ABox of
    ``enumerate_tree_aboxes`` is chased once per TBox.  One consistent
    with T1 and inconsistent with T2 is, with ``incons``, a witness of
    its own.  A candidate query's answer holds under the second TBox by
    construction (the identity map is a match), so each candidate is
    one membership question (``is_certain_answer``) asked of the first
    TBox's model, and ``verify_witness`` replays the one returned.
    Candidates come in an order fixed by ``stable_key``: the roots of
    the window, and below each its connected substructures, enumerated
    as the questions are asked.

    Returns (witness or None, asked, capped): ``asked`` counts the
    ABoxes chased and the questions asked, and the scan stops, capped,
    before it would ask more than ``cap`` of them."""
    asked = 0
    for abox in enumerate_tree_aboxes(sigA, max_ind):
        if asked == cap:
            return None, asked, True
        asked += 1
        m1 = models.UniversalModel(t1, abox)
        if not m1.consistent:
            continue
        m2 = models.UniversalModel(t2, abox)
        if not m2.consistent:
            if incons:
                w = Witness(abox, None)
                if verify_witness(t1, t2, w):
                    return w, asked, False
            continue
        window = _sigma_reduct(m2.window(max_vars), sigQ)
        tried = set()
        for top in window.neighbor_index().order:
            for sub in models.enumerate_connected_substructures(
                    window, top, max_vars):
                for q, ans in _queries_from_sub(
                        sub, window.individuals, mode):
                    key = (cq_to_text(q), ans)
                    if key in tried:
                        continue
                    tried.add(key)
                    if asked == cap:
                        return None, asked, True
                    asked += 1
                    if is_certain_answer(m1, q, ans):
                        continue
                    w = Witness(abox, q, ans)
                    if verify_witness(t1, t2, w):
                        return w, asked, False
    return None, asked, False
