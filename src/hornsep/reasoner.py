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
pushes value restrictions down into successor tuples and back up through
inverse roles, and propagates inconsistency upward.

The ABox-level operations run a chase over the individuals using the
same machinery for the per-individual types plus the edge-sensitive
derivation rules.  One chase gives every individual's concept names and
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
)

#: pseudo concept name standing for the bottom concept in queries
BOT = "⊥"


class InconsistentABoxError(HornsepError):
    pass


class ConsequenceIndex:
    """Saturated rule set for one NormalTBox; built lazily, then read-only
    except for registering new contexts on demand.

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
    reads a closure that changes."""

    def __init__(self, tbox: NormalTBox):
        self.tbox = tbox
        self.concept_universe = set(tbox.concept_names())
        self.roles = tbox.roles()

        self.tops = [ci for ci in tbox.cis if isinstance(ci, TopSub)]
        self.bots = [ci for ci in tbox.cis if isinstance(ci, SubBot)]
        self.conjs = [ci for ci in tbox.cis if isinstance(ci, ConjSub)]
        self.exs = [ci for ci in tbox.cis if isinstance(ci, SubEx)]
        self.alls = [ci for ci in tbox.cis if isinstance(ci, SubAll)]

        self._role_pairs = self._close_roles(tbox)
        self._superroles: dict = {}
        self.functional = set(tbox.fas)

        # context -> derived names (may include BOT); context -> tuples (R, N)
        self.cl: dict = {}
        self.ex: dict = {}

    # -- roles -------------------------------------------------------------

    @staticmethod
    def _close_roles(tbox: NormalTBox) -> set:
        universe = tbox.roles()
        pairs = {(r, r) for r in universe}
        for r, s in tbox.ris:
            pairs.add((r, s))
            pairs.add((r.inverse(), s.inverse()))
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(list(pairs), list(pairs)):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
        return pairs

    def role_subsumes(self, r: Role, s: Role) -> bool:
        return r == s or (r, s) in self._role_pairs

    def superroles(self, r: Role) -> frozenset:
        sup = self._superroles.get(r)
        if sup is None:
            sup = frozenset({r} | {s for (a, s) in self._role_pairs if a == r})
            self._superroles[r] = sup
        return sup

    def functional_superroles(self, r: Role) -> set:
        return {f for f in self.functional if self.role_subsumes(r, f)}

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

        # push value restrictions into successor tuples
        for rr, nn in list(ex):
            for ci in self.alls:
                if ci.sub in cl and any(
                    self.role_subsumes(r, ci.role) for r in rr
                ):
                    ex.add((rr, nn | {ci.sup}))

        for rr, nn in list(ex):
            if nn not in self.cl:
                self.cl[nn] = set(nn)
                self.ex[nn] = set()
                todo.append(nn)
            cl_n = self.cl[nn]
            # value restrictions seen from the successor side
            for ci in self.alls:
                if ci.sub in cl_n and any(
                    self.role_subsumes(r.inverse(), ci.role) for r in rr
                ):
                    cl.add(ci.sup)
            # the successor's own existential may be forced back onto m:
            # if some r in R has functional r^- and the successor entails
            # some s.B with s below that functional role, the witness is m
            for ci in self.exs:
                if ci.sub not in cl_n:
                    continue
                for r in rr:
                    back_funcs = self.functional_superroles(r.inverse())
                    if any(
                        self.role_subsumes(ci.role, f) for f in back_funcs
                    ):
                        cl.add(ci.sup)
                        ex.add((rr | {ci.role.inverse()}, nn))
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

    def successor_tuples(self, seed) -> set:
        m = self.register(seed)
        return set(self.ex[m])


def index_for(tbox: NormalTBox) -> ConsequenceIndex:
    idx = getattr(tbox, "_consequence_index", None)
    if idx is None:
        idx = ConsequenceIndex(tbox)
        tbox._consequence_index = idx
    return idx


def _maximal(sets) -> set:
    sets = set(sets)
    return {
        s for s in sets if not any(s < other for other in sets)
    }


def succ_rel(tbox: NormalTBox, t, r: Role) -> set:
    """The maximal types t' with T |= (and t) sub some r.(and t')."""
    idx = index_for(tbox)
    candidates = set()
    for rr, nn in idx.successor_tuples(t):
        if any(idx.role_subsumes(r0, r) for r0 in rr):
            candidates.add(idx.type_of(nn))
    return _maximal(candidates)


# ---------------------------------------------------------------------------
# ABox chase


@dataclass
class ChaseState:
    tp: dict = field(default_factory=dict)  # individual -> set of names
    edges: dict = field(default_factory=dict)  # (a, b) -> roles, see _edge_roles
    consistent: bool = True
    fork: tuple = None  # offending (func role, a, b, c) when a fork is found


def _edge_roles(idx: ConsequenceIndex, abox: ABox) -> dict:
    """(a, b) -> set of roles entailed to connect a to b, from assertions
    closed under role inclusions (both reading directions)."""
    out: dict = {}
    for s, a, b in abox.role_assertions:
        for role in idx.superroles(Role(s)):
            out.setdefault((a, b), set()).add(role)
            out.setdefault((b, a), set()).add(role.inverse())
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
        for (b, a), roles in edges.items():
            # value restrictions travel along asserted edges
            for ci in idx.alls:
                if ci.sub in state.tp[b] and any(
                    idx.role_subsumes(r, ci.role) for r in roles
                ):
                    if ci.sup not in state.tp[a]:
                        state.tp[a].add(ci.sup)
                        changed = True
            # a functional existential is satisfied by the asserted edge,
            # so its filler concept lands on the named successor
            for ci in idx.exs:
                if ci.sub not in state.tp[b]:
                    continue
                for f in idx.functional:
                    if idx.role_subsumes(ci.role, f) and any(
                        idx.role_subsumes(r, f) for r in roles
                    ):
                        if ci.sup not in state.tp[a]:
                            state.tp[a].add(ci.sup)
                            changed = True

    for a in inds:
        if BOT in state.tp[a]:
            state.consistent = False
    # functionality fork check over asserted edges (standard names: b != c)
    for f in idx.functional:
        targets: dict = {}
        for (a, b), roles in edges.items():
            if any(idx.role_subsumes(r, f) for r in roles):
                targets.setdefault(a, set()).add(b)
        for a, bs in targets.items():
            if len(bs) > 1:
                state.consistent = False
                b, c = sorted(bs)[:2]
                state.fork = (f, a, b, c)
    return state


def abox_succ(model, a, r: Role) -> set:
    """Maximal successor types of individual a along r in the universal
    model (a ``models.UniversalModel``), honoring the functionality
    proviso (no anonymous r-successor when func(r) holds and a named
    r-successor is entailed)."""
    idx = index_for(model.tbox)
    state = model.state
    if not state.consistent:
        raise InconsistentABoxError("ABox is inconsistent with the TBox")
    named = {
        b
        for (x, b), roles in state.edges.items()
        if x == a and any(idx.role_subsumes(s, r) for s in roles)
    }
    if r in idx.functional and named:
        return set()
    candidates = set(succ_rel(model.tbox, frozenset(state.tp[a]) - {BOT}, r))
    for b in named:
        candidates.add(frozenset(state.tp[b]) - {BOT})
    return _maximal(candidates)


# ---------------------------------------------------------------------------
# certain answers


def match_cq(q: CQ, interp):
    """All matches of q in a finite interpretation (models.Interpretation),
    returned as a set of answer tuples.  Variables are bound in sorted
    order.  A variable's concept atoms filter its domain up front, and
    each role atom is checked once, when its later variable is bound."""
    variables = sorted(q.variables())
    pos = {v: i for i, v in enumerate(variables)}
    concepts = {v: set() for v in variables}
    for cname, z in q.concept_atoms:
        concepts[z].add(cname)
    labels = interp.labels
    domains = []
    for v in variables:
        # answer variables range over named individuals only
        if v in q.answer_vars:
            pool = interp.individuals
        else:
            pool = interp.elements
        domains.append([d for d in pool if concepts[v] <= labels[d]])
    ratoms = [[] for _ in variables]
    for rname, z, w in sorted(q.role_atoms):
        ratoms[max(pos[z], pos[w])].append((z, rname, w))
    edges = interp.edges

    results = set()

    def extend(i, assign):
        if i == len(variables):
            results.add(tuple(assign[v] for v in q.answer_vars))
            return
        v = variables[i]
        for d in domains[i]:
            assign[v] = d
            for z, r, w in ratoms[i]:
                if (assign[z], r, assign[w]) not in edges:
                    break
            else:
                extend(i + 1, assign)
        assign.pop(v, None)  # v stays unbound when its domain is empty

    extend(0, {})
    return results


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


def certain_answers(model, q: CQ) -> set:
    """Evaluate the query over the universal model (a
    ``models.UniversalModel``, whose windows and anonymous classes are
    built once and shared by every query asked of it).

    A match of a connected m-variable component either touches the ABox
    part, in which case it lies within m role steps of an individual, or
    it sits inside a single anonymous subtree, in which case its
    shallowest element determines a reachable (incoming role, type) class
    and the rest lies at most m steps below it.  Both cases are finite
    and searched exhaustively, so the evaluation is exact.  Components
    with answer variables bind those to individuals, so they touch the
    ABox part and are matched together in the window, as one CQ.
    """
    from . import models  # deferred: models builds on this module

    if not model.consistent:
        raise InconsistentABoxError("ABox is inconsistent with the TBox")
    window = model.window(max(1, len(q.variables())))

    answer_part = CQ(q.answer_vars)
    for comp in query_components(q):
        if comp.answer_vars:
            answer_part.concept_atoms |= comp.concept_atoms
            answer_part.role_atoms |= comp.role_atoms
        elif not match_cq(comp, window) and not models.anonymous_component_match(
            model, comp
        ):
            return set()
    return match_cq(answer_part, window)
