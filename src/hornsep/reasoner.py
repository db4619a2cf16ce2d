"""Consequence reasoning for normal-form TBoxes.

Everything here is driven by a consequence-based saturation over
"contexts" (finite sets of concept names).  For a context M the
saturation computes

* ``cl(M)``  - the concept names A with T |= (and M) sub A, and
* ``ex(M)``  - pairs (R, N) recording T |= (and M) sub some (all of R) (and N),
  i.e. the entailed existence of a single successor reachable via every
  role in R and satisfying every name in N.

Role conjunctions appear because functionality merges existentials:
if r1 and r2 are both subroles of a functional f, the r1- and
r2-successors coincide.  The calculus below saturates contexts under the
normal-form axioms, merges existentials through functional superroles,
carries concepts along the edges to and from successors, and propagates
inconsistency upward.

Two rules act along an edge: a value restriction carries its filler
across an edge below its role, and an existential glues its witness onto
a neighbour reached along a role that shares a functional superrole with
the existential's.  ``ConsequenceIndex.pushes`` owns both, tabled per
role; the saturation, the chase and A3 read it.

The ABox-level operations run a chase over the individuals using the
same machinery for the per-individual types plus the edge rules along
asserted edges.  One chase gives every individual's concept names and
decides consistency; certain answers are evaluated over the universal
model built from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .syntax import (
    ABox,
    CQ,
    ConjSub,
    HornsepError,
    NormalTBox,
    Role,
    SubAll,
    SubBot,
    SubEx,
    TopSub,
    role_inclusion_closure,
)

#: pseudo concept name standing for the bottom concept in queries
BOT = "⊥"


class InconsistentABoxError(HornsepError):
    pass


class ConsequenceIndex:
    """Saturated rule set for one NormalTBox; built lazily, then read-only
    except for registering new contexts and tabling children on demand.

    ``register`` applies the rules only to the contexts a new seed can
    change, and that is exact.  Every rule is monotone, and the rules of
    a context read only its own sets, the closures of its successor
    contexts and ``concept_universe``.  An old context is at its
    fixpoint, and so are its successors, which are old too: applying a
    context registers its successors, so a new seed is never one of
    them.  So only the new context and the successors it creates need
    the rules, and one sweep over them without a change reaches the
    fixpoint.  The exception is the universe: when a seed brings in a
    name outside it, every context holding ``BOT`` reads it through
    ``cl |= concept_universe`` and is applied again.  A context with a
    ``BOT`` successor holds ``BOT`` itself, so no other old context
    reads a closure that changes.

    ``pushes`` tables the edge rules per role, and ``superroles`` and
    ``functional_superroles`` the role hierarchy they read.

    ``children`` tables the anonymous successors of a type once per
    incoming role.  That is exact for a consistent type only: its
    context and the successor contexts it reads are at their fixpoint
    and never read the universe, so its entry never changes.  A type
    holding ``BOT`` reads the growing universe and is derived afresh on
    every call."""

    def __init__(self, tbox: NormalTBox):
        self.tbox = tbox
        self.concept_universe = set(tbox.concept_names())
        self.roles = tbox.roles()

        self.tops = [ci for ci in tbox.cis if isinstance(ci, TopSub)]
        self.bots = [ci for ci in tbox.cis if isinstance(ci, SubBot)]
        self.conjs = [ci for ci in tbox.cis if isinstance(ci, ConjSub)]
        self.exs = [ci for ci in tbox.cis if isinstance(ci, SubEx)]
        self.alls = [ci for ci in tbox.cis if isinstance(ci, SubAll)]

        self._role_pairs = role_inclusion_closure(tbox.ris)
        self.functional = set(tbox.fas)
        # role -> its superroles, functional superroles and edge pushes
        self._superroles: dict = {}
        self._functional_superroles: dict = {}
        self._pushes: dict = {}

        # context -> derived names (may include BOT); context -> tuples (R, N)
        self.cl: dict = {}
        self.ex: dict = {}
        # (type, incoming role) -> its anonymous children, see ``children``
        self._children: dict = {}

    # -- roles -------------------------------------------------------------

    def role_subsumes(self, r: Role, s: Role) -> bool:
        return r == s or (r, s) in self._role_pairs

    def superroles(self, r: Role) -> frozenset:
        sup = self._superroles.get(r)
        if sup is None:
            sup = frozenset({r} | {s for (a, s) in self._role_pairs if a == r})
            self._superroles[r] = sup
        return sup

    def functional_superroles(self, r: Role) -> frozenset:
        fs = self._functional_superroles.get(r)
        if fs is None:
            fs = self._functional_superroles[r] = (
                self.superroles(r) & self.functional)
        return fs

    def pushes(self, r: Role) -> tuple:
        """The edge rules along r: (A, B, glued) for each concept B that
        an r-edge carries to its target from a source holding A.  With
        glued None, ``A sub only R B`` for R above r; otherwise
        ``A sub some R B`` with glued = R, where R and r share a
        functional superrole, so the edge's target is A's R-witness."""
        out = self._pushes.get(r)
        if out is None:
            up, fs = self.superroles(r), self.functional_superroles(r)
            out = self._pushes[r] = tuple(
                [(ci.sub, ci.sup, None) for ci in self.alls if ci.role in up]
                + [(ci.sub, ci.sup, ci.role) for ci in self.exs
                   if fs & self.functional_superroles(ci.role)])
        return out

    # -- saturation --------------------------------------------------------

    def register(self, seed) -> frozenset:
        m = frozenset(seed)
        if m not in self.cl:
            todo = [m]
            if not m <= self.concept_universe:
                self.concept_universe |= m
                # contexts holding BOT read it: cl |= concept_universe
                todo += [k for k, cl in self.cl.items() if BOT in cl]
            self.cl[m] = set(m)
            self.ex[m] = set()
            self._saturate(todo)
        return m

    def _saturate(self, todo):
        # ``_apply`` appends the successor contexts it creates to todo,
        # and the loop takes them in the same sweep
        changed = True
        while changed:
            changed = False
            for m in todo:
                if self._apply(m, todo):
                    changed = True

    def _apply(self, m: frozenset, todo) -> bool:
        cl = self.cl[m]
        ex = self.ex[m]
        before = (len(cl), len(ex))

        for ci in self.tops:
            cl.add(ci.sup)
        for ci in self.conjs:
            if ci.sub1 in cl and ci.sub2 in cl:
                cl.add(ci.sup)
        for ci in self.bots:
            if ci.sub in cl:
                cl.add(BOT)
        for ci in self.exs:
            if ci.sub in cl:
                ex.add((frozenset([ci.role]), frozenset([ci.sup])))

        # merge existentials whose roles share a functional superrole
        for (r1, n1), (r2, n2) in itertools.combinations(list(ex), 2):
            shared = any(
                self.functional_superroles(a) & self.functional_superroles(b)
                for a in r1
                for b in r2
            )
            if shared:
                ex.add((r1 | r2, n1 | n2))

        # value restrictions carried down into successor tuples; glued
        # existentials reach them through the merge above
        for rr, nn in list(ex):
            for r in rr:
                for a, b, glued in self.pushes(r):
                    if glued is None and a in cl:
                        ex.add((rr, nn | {b}))

        for rr, nn in list(ex):
            if nn not in self.cl:
                self.cl[nn] = set(nn)
                self.ex[nn] = set()
                todo.append(nn)
            cl_n = self.cl[nn]
            # the edges back from the successor: a glued existential of
            # the successor has m as its witness, along every role in R
            for r in rr:
                for a, b, glued in self.pushes(r.inverse()):
                    if a in cl_n:
                        cl.add(b)
                        if glued is not None:
                            ex.add((rr | {glued.inverse()}, nn))
            if BOT in cl_n:
                cl.add(BOT)

        if BOT in cl:
            cl |= self.concept_universe

        return (len(cl), len(ex)) != before

    # -- queries -----------------------------------------------------------

    def closure(self, seed) -> frozenset:
        m = self.register(seed)
        return frozenset(self.cl[m])

    def type_of(self, seed) -> frozenset:
        return frozenset(self.closure(seed) - {BOT})

    def consistent(self, seed) -> bool:
        return BOT not in self.closure(seed)

    def children(self, seed, rin=None) -> tuple:
        """The children (r, superroles of r, t') of an anonymous element
        of type seed entered via rin (None at a root): per role r, ordered
        by ``str``, the maximal t' with T |= (and seed) sub some r.(and t'),
        ordered by ``sorted``; none along a functional r whose inverse is
        rin, so no child returns at once along a functional role."""
        key = (frozenset(seed), rin)
        kids = self._children.get(key)
        if kids is None:
            kids = self._derive_children(*key)
            if BOT not in self.cl[key[0]]:
                self._children[key] = kids
        return kids

    def _derive_children(self, m: frozenset, rin) -> tuple:
        succs = [(rr, self.type_of(nn)) for rr, nn in self.ex[self.register(m)]]
        return tuple(
            (r, self.superroles(r), t2)
            for r in sorted(self.roles, key=str)
            if not (r in self.functional and rin == r.inverse())
            for t2 in sorted(maximal(
                t for rr, t in succs
                if any(self.role_subsumes(r0, r) for r0 in rr)), key=sorted)
        )


def index_for(tbox: NormalTBox) -> ConsequenceIndex:
    idx = getattr(tbox, "_consequence_index", None)
    if idx is None:
        idx = ConsequenceIndex(tbox)
        tbox._consequence_index = idx
    return idx


def maximal(sets) -> set:
    sets = set(sets)
    return {
        s for s in sets if not any(s < other for other in sets)
    }


# ---------------------------------------------------------------------------
# ABox chase


@dataclass
class ChaseState:
    tp: dict = field(default_factory=dict)  # individual -> set of names
    edges: dict = field(default_factory=dict)  # (a, b) -> roles, see _edge_roles
    consistent: bool = True


def _edge_roles(idx: ConsequenceIndex, abox: ABox) -> dict:
    """(a, b) -> set of roles entailed to connect a to b, from assertions
    closed under role inclusions: s(a, b) gives (a, b) the superroles of
    s and (b, a) those of inv(s), which are their inverses."""
    out: dict = {}
    for s, a, b in abox.role_assertions:
        out.setdefault((a, b), set()).update(idx.superroles(Role(s)))
        out.setdefault((b, a), set()).update(idx.superroles(Role(s, True)))
    return out


def chase(tbox: NormalTBox, abox: ABox) -> ChaseState:
    idx = index_for(tbox)
    state = ChaseState()
    inds = sorted(abox.individuals())
    for a in inds:
        state.tp[a] = {c for c, x in abox.concept_assertions if x == a}
    edges = state.edges = _edge_roles(idx, abox)

    changed = True
    while changed:
        changed = False
        for a in inds:
            closed = set(idx.closure(state.tp[a]))
            if closed - state.tp[a]:
                state.tp[a] |= closed
                changed = True
        # the edge rules along each asserted edge, from b to a
        for (b, a), roles in edges.items():
            for r in roles:
                for c, d, _glued in idx.pushes(r):
                    if c in state.tp[b] and d not in state.tp[a]:
                        state.tp[a].add(d)
                        changed = True

    for a in inds:
        if BOT in state.tp[a]:
            state.consistent = False
    # functionality fork check over asserted edges (standard names: b != c)
    for f in idx.functional:
        targets: dict = {}
        for (a, b), roles in edges.items():
            if f in roles:
                targets.setdefault(a, set()).add(b)
        if any(len(bs) > 1 for bs in targets.values()):
            state.consistent = False
    return state


# ---------------------------------------------------------------------------
# certain answers


def match_cq(q: CQ, interp, answer=None):
    """Yield the answer tuple of every match of q in a finite
    interpretation (``models.Interpretation``), one per match, by
    backtracking: a caller that needs one match stops at the first.
    With ``answer`` given, the answer variables are pinned to it, so a
    repeated answer variable must get the same element, and an answer
    of the wrong length or naming a non-individual has no match.
    Variables are bound in sorted order.  A variable's concept atoms
    filter its domain up front, and each role atom is checked once,
    when its later variable is bound."""
    pin = {}
    if answer is not None:
        if len(answer) != len(q.answer_vars):
            return
        for v, d in zip(q.answer_vars, answer):
            if pin.setdefault(v, d) != d:
                return
    variables = sorted(q.variables())
    if not variables:
        yield ()
        return
    pos = {v: i for i, v in enumerate(variables)}
    concepts = {v: set() for v in variables}
    for cname, z in q.concept_atoms:
        concepts[z].add(cname)
    labels = interp.labels
    domains = []
    for v in variables:
        # answer variables range over named individuals only
        pool = interp.individuals if v in q.answer_vars else interp.elements
        if v in pin:
            pool = [pin[v]] if pin[v] in pool else []
        domains.append([d for d in pool if concepts[v] <= labels[d]])
        if not domains[-1]:
            return
    ratoms = [[] for _ in variables]
    for rname, z, w in sorted(q.role_atoms):
        ratoms[max(pos[z], pos[w])].append((pos[z], rname, pos[w]))
    out = [pos[v] for v in q.answer_vars]
    edges = interp.edges
    last = len(variables) - 1
    # choices[i] iterates the untried values of variable i
    assign = [None] * len(variables)
    choices = [iter(domains[0])]
    while choices:
        i = len(choices) - 1
        for d in choices[i]:
            assign[i] = d
            for z, r, w in ratoms[i]:
                if (assign[z], r, assign[w]) not in edges:
                    break
            else:
                break  # every role atom holds: d is bound
        else:
            choices.pop()
            continue
        if i == last:
            yield tuple(assign[k] for k in out)
        else:
            choices.append(iter(domains[i + 1]))


def query_components(q: CQ) -> list:
    """Split a CQ into its connected components (shared variables connect
    atoms), each as its own CQ with the inherited answer variables."""
    var_of_atom = []
    atoms = [("c", a) for a in q.concept_atoms] + [("r", a) for a in q.role_atoms]
    parent = {v: v for v in q.variables()}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        parent[find(a)] = find(b)

    for kind, atom in atoms:
        if kind == "r":
            union(atom[1], atom[2])
    groups: dict = {}
    for kind, atom in atoms:
        v = atom[1]
        groups.setdefault(find(v), []).append((kind, atom))
    out = []
    for root, atomlist in sorted(groups.items()):
        cvars = set()
        comp = CQ()
        for kind, atom in atomlist:
            if kind == "c":
                comp.concept_atoms.add(atom)
                cvars.add(atom[1])
            else:
                comp.role_atoms.add(atom)
                cvars.update((atom[1], atom[2]))
        comp.answer_vars = tuple(v for v in q.answer_vars if v in cvars)
        out.append(comp)
    return out


def _split(model, q: CQ):
    """The window q is evaluated in, the components of q with answer
    variables joined into one CQ, and the Boolean components."""
    if not model.consistent:
        raise InconsistentABoxError("ABox is inconsistent with the TBox")
    window = model.window(max(1, len(q.variables())))
    answer_part = CQ(q.answer_vars)
    booleans = []
    for comp in query_components(q):
        if comp.answer_vars:
            answer_part.concept_atoms |= comp.concept_atoms
            answer_part.role_atoms |= comp.role_atoms
        else:
            booleans.append(comp)
    return window, answer_part, booleans


def _boolean_holds(model, window, comp: CQ) -> bool:
    from . import models  # deferred: models builds on this module

    return next(match_cq(comp, window), None) is not None or (
        models.anonymous_component_match(model, comp)
    )


def certain_answers(model, q: CQ) -> set:
    """The certain answers of q over the universal model (a
    ``models.UniversalModel``, whose windows and anonymous classes are
    built once and shared by every query asked of it), as a set of
    tuples of individuals.

    A match of a connected m-variable component either touches the ABox
    part, in which case it lies within m role steps of an individual, or
    it sits inside a single anonymous subtree, in which case its
    shallowest element determines a reachable (incoming role, type) class
    and the rest lies at most m steps below it.  Both cases are finite
    and searched exhaustively, so the evaluation is exact.  Components
    with answer variables bind those to individuals, so they touch the
    ABox part and are matched together in the window, as one CQ.  To ask
    about one tuple, ``is_certain_answer`` is the cheaper question.
    """
    window, answer_part, booleans = _split(model, q)
    if not all(_boolean_holds(model, window, c) for c in booleans):
        return set()
    return set(match_cq(answer_part, window))


def is_certain_answer(model, q: CQ, answer: tuple) -> bool:
    """``answer in certain_answers(model, q)``, decided as a membership
    question: the answer variables are pinned to ``answer`` and every
    search stops at its first match.  This is the homomorphism test of
    Chandra and Merlin with the answer variables fixed."""
    window, answer_part, booleans = _split(model, q)
    return next(match_cq(answer_part, window, answer), None) is not None and (
        all(_boolean_holds(model, window, c) for c in booleans)
    )
