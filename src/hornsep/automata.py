"""Two-way alternating tree automata over triple-labeled trees.

The entailment check reduces to emptiness of an intersection of four
automata running on trees whose labels are triples (L0, L1, L2): L0
spells out a tree-shaped ABox, L1 a model of the first TBox over the
same tree, and L2 the concept/role memberships the second TBox derives
for the ABox part.  ``build_A1`` .. ``build_A4`` (and the simulation
variant ``build_A4_sim``) produce the individual automata over a shared
``LabelContext``; ``intersect`` conjoins them; ``is_empty`` searches for
a finite accepted tree and returns it as a replayable certificate;
``run_on_regular_tree`` decides membership of an explicitly given
regular tree by solving a parity game.

Transitions are positive Boolean formulas over atoms that keep a state
in place, send it to the parent (strictly: ``up_must``; vacuously at the
root: ``up_may``), to some child, or to all but a bounded number of
children.  All automata built here use priorities 0 and 1 only: a run is
accepting when every path settles into priority-0 states.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass, field

from . import models, mosaics, reasoner
from .models import stable_key
from .reasoner import BOT, index_for
from .syntax import HornsepError, NormalTBox, ResourceLimitError, Signature
from .syntax import SubAll, SubEx, TopSub


class UnsupportedAutomatonError(HornsepError):
    """The automaton falls outside the supported fragment (priorities
    beyond {0,1}, or counting constants the search does not handle)."""


# ---------------------------------------------------------------------------
# positive formulas

TRUE = ("true",)
FALSE = ("false",)

_ATOM_TAGS = ("here", "up!", "up?", "dx", "dab")


def here(q):
    return ("here", q)


def up_must(q):
    return ("up!", q)


def up_may(q):
    return ("up?", q)


def down_ex(q, n: int = 1):
    return ("dx", n, q)


def down_allbut(q, n: int = 0):
    return ("dab", n, q)


def f_and(*parts):
    flat = []
    for p in parts:
        if p == TRUE:
            continue
        if p == FALSE:
            return FALSE
        if p[0] == "and":
            flat.extend(p[1])
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return ("and", tuple(flat))


def f_or(*parts):
    flat = []
    for p in parts:
        if p == FALSE:
            continue
        if p == TRUE:
            return TRUE
        if p[0] == "or":
            flat.extend(p[1])
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return ("or", tuple(flat))


def is_atom(f) -> bool:
    return f[0] in _ATOM_TAGS


def formula_atoms(f):
    if f in (TRUE, FALSE):
        return
    if is_atom(f):
        yield f
        return
    for p in f[1]:
        yield from formula_atoms(p)


def _minimize_sets(sets):
    # a set's proper subsets are smaller, so size alone orders the scan
    out = []
    for s in sorted(set(sets), key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def sat_assignments(f):
    """Inclusion-minimal sets of atoms whose truth makes f true."""
    if f == TRUE:
        return [frozenset()]
    if f == FALSE:
        return []
    if is_atom(f):
        return [frozenset([f])]
    if f[0] == "or":
        acc = []
        for p in f[1]:
            acc.extend(sat_assignments(p))
        return _minimize_sets(acc)
    acc = [frozenset()]
    for p in f[1]:
        sub = sat_assignments(p)
        acc = _minimize_sets(a | b for a in acc for b in sub)
        if len(acc) > MAX_ASSIGNMENTS:
            raise ResourceLimitError(
                f"transition formula has more than {MAX_ASSIGNMENTS} minimal "
                f"satisfying assignments"
            )
    return acc


def formula_to_text(f) -> str:
    if f == TRUE:
        return "true"
    if f == FALSE:
        return "false"
    if is_atom(f):
        tag = f[0]
        if tag == "here":
            return f"(here {state_name(f[1])})"
        if tag == "up!":
            return f"(up! {state_name(f[1])})"
        if tag == "up?":
            return f"(up? {state_name(f[1])})"
        if tag == "dx":
            return f"(some {f[1]} {state_name(f[2])})"
        return f"(allbut {f[1]} {state_name(f[2])})"
    parts = " ".join(formula_to_text(p) for p in f[1])
    return f"({f[0]} {parts})"


# ---------------------------------------------------------------------------
# labels

def state_name(q) -> str:
    if isinstance(q, tuple):
        return ".".join(stable_key(p) for p in q)
    return stable_key(q)


@dataclass(frozen=True)
class Label:
    """One tree-node label: concept and role symbol sets of the three
    layers.  Role symbols are Role objects; a role R in r0, r1 or r2
    asserts the edge R(parent, node), from the parent to this node, so
    inv(R) there asserts R(node, parent).  A2 reads r1 this way (an
    existential ``some r`` is met by the parent when inv(r) is in r1), A3
    reads r0 this way, and A4 reads r1 this way."""

    c0: frozenset = frozenset()
    r0: frozenset = frozenset()
    c1: frozenset = frozenset()
    r1: frozenset = frozenset()
    c2: frozenset = frozenset()
    r2: frozenset = frozenset()

    def l0_empty(self) -> bool:
        return not self.c0 and not self.r0

    def l1_empty(self) -> bool:
        return not self.c1 and not self.r1

    def __str__(self):
        return (
            f"(L0={stable_key(self.c0 | self.r0)} "
            f"L1={stable_key(self.c1 | self.r1)} "
            f"L2={stable_key(self.c2 | self.r2)})"
        )


def label_to_json(label) -> object:
    if isinstance(label, Label):
        return {
            "c0": sorted(label.c0),
            "r0": sorted(map(str, label.r0)),
            "c1": sorted(label.c1),
            "r1": sorted(map(str, label.r1)),
            "c2": sorted(label.c2),
            "r2": sorted(map(str, label.r2)),
        }
    return repr(label)


#: cap on the symbolic alphabet enumeration
MAX_LABELS = 120_000


def _independent_sets(tbox: NormalTBox, universe):
    """Yield (S, cl(S), the names S's one-smaller subsets derive) for each
    consistent S in the universe that is independent: no member lies in
    the closure of the others.  Each consistent closed set is the closure
    of such an S, and each minimal set deriving a name is one.  Subsets of
    an independent set are independent, so growing the sets one name at a
    time, by size and then in name order, reaches all of them."""
    idx = index_for(tbox)
    names = sorted(universe)
    level, grow = {}, [()]
    while grow:
        level, prev = {}, level
        for t in grow:
            subs = [prev.get(t[:i] + t[i + 1:]) for i in range(len(t))]
            if any(c is None or x in c for x, c in zip(t, subs)):
                continue
            cl = idx.closure(t)
            if BOT not in cl:
                level[t] = cl
                yield frozenset(t), cl, frozenset().union(*subs)
        grow = [s + (y,) for s in level for y in names if not s or y > s[-1]]


def _closed_sets(tbox: NormalTBox, universe, limit: int) -> list:
    """The consistent closed subsets of the universe in (size, names)
    order; more than limit of them push the labels past ``MAX_LABELS``."""
    out = set()
    for _s, cl, _below in _independent_sets(tbox, universe):
        out.add(cl)
        if len(out) > limit:
            raise ResourceLimitError(
                f"label alphabet estimate exceeds cap {MAX_LABELS}"
            )
    return sorted(out, key=lambda s: (len(s), sorted(s)))


@dataclass
class LabelContext:
    sigQ: Signature
    theta0_roles: frozenset
    theta1_concepts: frozenset
    theta2_concepts: frozenset
    labels: list = field(default_factory=list)
    root_labels: list = field(default_factory=list)


def build_label_context(
    tbox1: NormalTBox, tbox2: NormalTBox, sigA: Signature, sigQ: Signature
) -> LabelContext:
    """Enumerate the concrete labels the emptiness search ranges over.

    The enumeration alone enforces the label-local constraints; A1-A3 do
    not check them again.  L0 is drawn from ΣA with at most one role.
    c1 is empty or consistent and T1-closed (so, if not empty, it holds
    T1's ``top sub`` names), r1 is closed under T1's role inclusions,
    and L0 ⊆ L1.  ABox nodes have a consistent T2-closed c2 ⊇ c0, and as
    r2 the closure of r0 under T2's role inclusions; other nodes have an
    empty L2.  If T1 has a ``top sub`` axiom, labels whose L1 has roles
    but no concepts are left out: A2's initial state runs at every node
    (the root's initial conjunction holds it, and it sends itself to
    every child) and rejects them.  Each model layer's closed sets stop
    as soon as they alone push the estimate past ``MAX_LABELS``, the one
    alphabet bound.
    """
    idx1, idx2 = index_for(tbox1), index_for(tbox2)
    th0c = frozenset(sigA.concepts)
    th0r = frozenset(sigA.role_objects())
    th1c = frozenset(tbox1.concept_names()) | th0c
    th1r = frozenset(tbox1.roles()) | th0r
    th2c = frozenset(tbox2.concept_names()) | th0c
    tops = any(isinstance(ci, TopSub) for ci in tbox1.cis)

    # the role sets closed under T1's role inclusions: unions of the
    # roles' superrole sets, built without visiting the other subsets
    r1_options = {frozenset()}
    for r in th1r:
        r1_options |= {s | idx1.superroles(r) for s in r1_options}
    l0_options = []
    for k in range(len(th0c) + 1):
        for cc in itertools.combinations(sorted(th0c), k):
            l0_options.append((frozenset(cc), frozenset()))
            for rr in sorted(th0r):
                l0_options.append((frozenset(cc), frozenset([rr])))

    share = MAX_LABELS // (len(l0_options) * len(r1_options))
    c1_options = [frozenset()] + [
        s for s in _closed_sets(tbox1, th1c, share) if s
    ]
    c2_closed = _closed_sets(tbox2, th2c, share // len(c1_options))

    est = len(l0_options) * len(c1_options) * len(r1_options) * max(
        1, len(c2_closed)
    )
    if est > MAX_LABELS:
        raise ResourceLimitError(
            f"label alphabet estimate {est} exceeds cap {MAX_LABELS}"
        )

    labels = []
    for c0, r0 in l0_options:
        if c0 or r0:
            r2 = frozenset().union(*map(idx2.superroles, r0))
            c2_opts = [t for t in c2_closed if c0 <= t]
            if not c2_opts:
                continue  # asserted concepts already inconsistent under T2
        else:
            r2 = frozenset()
            c2_opts = [frozenset()]
        for c1 in c1_options:
            if not c0 <= c1:
                continue
            for r1 in r1_options:
                if not r0 <= r1 or tops and r1 and not c1:
                    continue
                for c2 in c2_opts:
                    labels.append(Label(c0, r0, c1, r1, c2, r2))
    # in the order of each layer's names as sorted strings, layer by
    # layer, rendering each distinct set once
    parts = operator.attrgetter("c0", "r0", "c1", "r1", "c2", "r2")
    names = {s: tuple(sorted(map(str, s)))
             for s in {s for l in labels for s in parts(l)}}
    labels.sort(key=lambda l: tuple(map(names.__getitem__, parts(l))))
    root_labels = [
        l for l in labels if l.c0 and not l.r0 and not l.r1
    ]
    return LabelContext(sigQ, th0r, th1c, th2c, labels, root_labels)


# ---------------------------------------------------------------------------
# automata

@dataclass
class StateRule:
    """Transition rule of one state: ``project`` maps a label to the
    finite guard key the transition depends on; ``build`` produces the
    formula for a concrete label.  Both may read only the label layers
    in ``reads``, a sorted tuple: 0 is c0 and r0 (and r2, computed from
    r0), 1 is c1 and r1, 2 is c2; all three by default, as for labels
    that are not ``Label`` objects.  ``TwoWayAutomaton.classes`` projects
    one label per group of labels equal on those layers, and builds one
    formula per guard key; the test suite checks every label's own key
    and formula against them on the fixture, chain and criterion-6
    products.  If a state's transition conjoins those of other states,
    ``parts`` names them, and ``classes`` builds its rows from theirs; such
    a rule has no per-label definition, and its ``project`` and ``build``
    are None."""

    project: object
    build: object
    reads: tuple = (0, 1, 2)
    parts: tuple = ()


def _test(project, holds, yes=TRUE, no=FALSE, reads=(0, 1, 2)) -> StateRule:
    """Rule of a state that tests the label and spawns nothing else:
    ``yes`` on labels whose guard key satisfies ``holds``, ``no`` on the
    rest."""
    return StateRule(project, lambda l: yes if holds(project(l)) else no,
                     reads)


class TwoWayAutomaton:
    def __init__(
        self,
        name: str,
        initial,
        priorities: dict,
        rules: dict,
        labels: list,
        root_labels=None,
    ):
        self.name = name
        self.initial = initial
        self.priorities = dict(priorities)
        self.rules = rules
        self.labels = list(labels)
        self.root_labels = list(root_labels if root_labels is not None else labels)
        self._classes, self._groups = {}, {}

    @functools.cached_property
    def position(self) -> dict:
        """Each label's place in the alphabet, ``labels``; the root labels
        are among them."""
        return {label: i for i, label in enumerate(self.labels)}

    @functools.cached_property
    def layers(self) -> list:
        """Per layer (see ``StateRule.reads``), each position's number for
        the label's value in that layer."""
        values = [((l.c0, l.r0), (l.c1, l.r1), l.c2) for l in self.position]
        ids = {}
        return [[ids.setdefault(v, len(ids)) for v in layer]
                for layer in zip(*values)]

    def groups(self, reads):
        """The positions grouped by their labels' values in the layers
        ``reads``: each position's group, and each group's first label.
        With all three layers, every position is its own group."""
        hit = self._groups.get(reads)
        if hit is None:
            values = (range(len(self.position)) if reads == (0, 1, 2)
                      else zip(*(self.layers[k] for k in reads))
                      if reads else itertools.repeat(()))
            ids, of, firsts = {}, [], []
            for label, value in zip(self.position, values):
                g = ids.setdefault(value, len(ids))
                if g == len(firsts):
                    firsts.append(label)
                of.append(g)
            hit = self._groups[reads] = of, firsts
        return hit

    def priority(self, q) -> int:
        return self.priorities.get(q, 0)

    def max_priority(self) -> int:
        return max(self.priorities.values(), default=0)

    def classes(self, q):
        """q's guard classes: the rows (guard key, formula) in the order
        the labels first reach them, and the row of each label, listed by
        its ``position``.  Each of the ``groups`` of q's ``reads`` shares
        the row of its first label, the only one projected.  A rule with
        ``parts`` projects none: a position's row stands for the parts'
        rows there, keyed by the tuple of their keys, with the ``f_and``
        of their formulas, as projecting each label would give."""
        hit = self._classes.get(q)
        if hit is None:
            rule, rows, row_of, at = self.rules[q], [], {}, []
            if rule.parts:
                tables = [self.classes(p) for p in rule.parts]
                for ids in zip(*(of for _rows, of in tables)):
                    row = row_of.get(ids)
                    if row is None:
                        row = row_of[ids] = len(rows)
                        keys, fs = zip(*(t[0][k] for t, k in zip(tables, ids)))
                        rows.append((keys, f_and(*fs)))
                    at.append(row)
                hit = rows, at
            else:
                group, firsts = self.groups(rule.reads)
                for label in firsts:
                    key = rule.project(label)
                    row = row_of.get(key)
                    if row is None:
                        row = row_of[key] = len(rows)
                        rows.append((key, rule.build(label)))
                    at.append(row)
                hit = rows, [at[g] for g in group]
            self._classes[q] = hit
        return hit

    def delta(self, q, label):
        rows, of = self.classes(q)
        return rows[of[self.position[label]]][1]

    def dump(self) -> str:
        lines = [
            f"automaton {self.name} kind=2ata_c "
            f"states={len(self.rules)} initial={state_name(self.initial)}"
        ]
        for q in sorted(self.rules, key=state_name):
            lines.append(f"state {state_name(q)} priority={self.priority(q)}")
            rows = sorted(
                (stable_key(key), formula_to_text(f))
                for key, f in self.classes(q)[0]
            )
            for guard, body in rows:
                lines.append(f"  guard {guard} :: {body}")
        return "\n".join(lines) + "\n"


def _rename_formula(f, tag):
    if f in (TRUE, FALSE):
        return f
    if is_atom(f):
        if f[0] in ("here", "up!", "up?"):
            return (f[0], (tag, f[1]))
        return (f[0], f[1], (tag, f[2]))
    return (f[0], tuple(_rename_formula(p, tag) for p in f[1]))


def intersect(automata: list) -> TwoWayAutomaton:
    """Product by disjoint union plus a fresh initial state whose
    transition conjoins the components' initial transitions.  The state
    is defined by its ``parts`` alone, which name those initial states:
    ``classes`` builds its rows from theirs."""
    base = automata[0]
    for a in automata[1:]:
        if a.labels is not base.labels and a.labels != base.labels:
            raise HornsepError("intersection requires a shared alphabet")
    rules, priorities = {}, {}
    for i, a in enumerate(automata):
        for q, rule in a.rules.items():
            rules[(i, q)] = StateRule(
                rule.project,
                lambda lab, r=rule, t=i: _rename_formula(r.build(lab), t),
                rule.reads)
            priorities[(i, q)] = a.priority(q)
    init = ("x",)
    rules[init] = StateRule(
        None, None, parts=tuple((i, a.initial) for i, a in enumerate(automata)))
    name = "(" + "&".join(a.name for a in automata) + ")"
    return TwoWayAutomaton(name, init, priorities, rules, base.labels,
                           base.root_labels)


# ---------------------------------------------------------------------------
# A1: L0 spells out a finite tree-shaped ABox rooted at the tree root

def build_A1(ctx: LabelContext) -> TwoWayAutomaton:
    """L0 is drawn from ΣA by the label enumeration; A1 checks its shape:
    the root asserts concepts and no edge, every other ABox node one
    edge, and no ABox node lies below an off-ABox one."""

    def init_build(l):
        if not l.c0 or l.r0:
            return FALSE
        return down_allbut(("1", "nd"))

    def nd_build(l):
        if l.l0_empty():
            return down_allbut(("1", "off"))
        if len(l.r0) != 1:
            return FALSE
        return down_allbut(("1", "nd"))

    def off_build(l):
        return down_allbut(("1", "off")) if l.l0_empty() else FALSE

    def l0_key(l):
        return tuple(sorted(l.c0)), tuple(sorted(map(str, l.r0)))

    rules = {
        ("1", "init"): StateRule(l0_key, init_build, (0,)),
        ("1", "nd"): StateRule(l0_key, nd_build, (0,)),
        ("1", "off"): StateRule(lambda l: l.l0_empty(), off_build, (0,)),
    }
    return TwoWayAutomaton(
        "A1", ("1", "init"), {("1", "nd"): 1}, rules, ctx.labels,
        ctx.root_labels,
    )


# ---------------------------------------------------------------------------
# A2: the L1 layer is a model of T1 containing the asserted ABox

def build_A2(tbox1: NormalTBox, ctx: LabelContext) -> TwoWayAutomaton:
    """The label enumeration makes each L1 a closed, consistent superset
    of L0; A2 checks the axioms that span edges: existential, value and
    functionality axioms."""
    idx1 = index_for(tbox1)
    exs = sorted(
        {(ci.sub, ci.role, ci.sup) for ci in tbox1.cis if isinstance(ci, SubEx)}
    )
    alls = sorted(
        {(ci.sub, ci.role, ci.sup) for ci in tbox1.cis if isinstance(ci, SubAll)}
    )
    funcs = sorted(idx1.functional)

    def q0_build(l):
        parts = [down_allbut(("2", "q0"))]
        for a, r, b in exs:
            if a in l.c1:
                witness_up = (
                    up_must(("2", "c1", b)) if r.inverse() in l.r1 else FALSE
                )
                parts.append(
                    f_or(down_ex(("2", "dn", r, b)), witness_up)
                )
        for a, r, b in alls:
            # checked from the successor side: a node reachable by an
            # r-edge from an element carrying a must itself carry b
            if b in l.c1:
                continue
            if r in l.r1:
                parts.append(up_may(("2", "nc1", a)))
            parts.append(down_allbut(("2", "na", r.inverse(), a)))
        for fr in funcs:
            t = ("2", "nr1", fr)
            if fr.inverse() in l.r1:
                parts.append(down_allbut(t, 0))
            else:
                parts.append(down_allbut(t, 1))
        return f_and(*parts)

    rules = {
        ("2", "q0"): StateRule(
            lambda l: (tuple(sorted(l.c1)), tuple(sorted(map(str, l.r1)))),
            q0_build, (1,),
        )
    }
    for b in sorted(ctx.theta1_concepts):
        has_b = lambda l, b=b: b in l.c1
        rules[("2", "c1", b)] = _test(has_b, bool, reads=(1,))
        rules[("2", "nc1", b)] = _test(has_b, bool, FALSE, TRUE, (1,))
    for _a, r, b in exs:
        rules[("2", "dn", r, b)] = _test(
            lambda l, r=r, b=b: (r in l.r1, b in l.c1), all, reads=(1,)
        )
    for a, r, _b in alls:
        u = r.inverse()
        rules[("2", "na", u, a)] = _test(
            lambda l, u=u, a=a: (u in l.r1, a in l.c1), all, FALSE, TRUE, (1,)
        )
    for fr in funcs:
        rules[("2", "nr1", fr)] = _test(
            lambda l, fr=fr: fr in l.r1, bool, FALSE, TRUE, (1,)
        )
    return TwoWayAutomaton(
        "A2", ("2", "q0"), {}, rules, ctx.labels, ctx.root_labels
    )


# ---------------------------------------------------------------------------
# A3: L2 records exactly what T2 derives over the asserted ABox, and the
# ABox is consistent with T2

def _minimal_derivations(tbox2: NormalTBox, universe) -> dict:
    """For each name a, the minimal consistent S without a that derive a
    under T2, in (size, names) order: no one-smaller subset derives a."""
    dsets = {a: [] for a in universe}
    for s, cl, below in _independent_sets(tbox2, universe):
        for a in cl - below - s:
            dsets[a].append(s)
    return dsets


def build_A3(tbox2: NormalTBox, ctx: LabelContext) -> TwoWayAutomaton:
    """The label enumeration makes each ABox node's c2 consistent and
    closed, and its r2 the closure of r0; A3 checks that c2 is what T2
    derives over the whole ABox, and T2's functionality axioms."""
    idx2 = index_for(tbox2)
    th2c = sorted(ctx.theta2_concepts)
    th0r = sorted(ctx.theta0_roles)
    dsets = _minimal_derivations(tbox2, th2c)

    # (premise concept, asserted edge role) pairs that can push a
    # concept onto an edge target, read off ``pushes``
    pairs = {a: set() for a in th2c}
    for s in th0r:
        for sub, sup, _glued in idx2.pushes(s):
            if sup in pairs:
                pairs[sup].add((sub, s))
    pairs = {a: sorted(ps) for a, ps in pairs.items()}

    funcs = sorted(idx2.functional)

    def qa(a):
        return ("3", "qA", a)

    def qna(a):
        return ("3", "qnA", a)

    rules = {}
    priorities = {}

    def q0_build(l):
        return TRUE if l.l0_empty() else here(("3", "q0p"))

    def q0p_build(l):
        parts = [
            down_allbut(("3", "q0")),
            down_allbut(("3", "q1")),
            here(("3", "q1")),
        ]
        for a in th2c:
            parts.append(here(qa(a)) if a in l.c2 else here(qna(a)))
        return f_and(*parts)

    def q1_build(l):
        if l.l0_empty():
            return TRUE
        return f_and(*[here(("3", "f", fr)) for fr in funcs])

    rules[("3", "q0")] = StateRule(lambda l: l.l0_empty(), q0_build, (0,))
    rules[("3", "q0p")] = StateRule(
        lambda l: (tuple(sorted(l.c2)),), q0p_build, (2,)
    )
    rules[("3", "q1")] = StateRule(lambda l: l.l0_empty(), q1_build, (0,))

    def r0_key(l):
        return tuple(sorted(map(str, l.r0)))

    for fr in funcs:
        def f_build(l, fr=fr):
            par = fr.inverse() in l.r2
            return down_allbut(("3", "nf", fr), 0 if par else 1)

        rules[("3", "f", fr)] = StateRule(r0_key, f_build, (0,))

        def nf_build(l, fr=fr):
            return FALSE if fr in l.r2 else TRUE

        rules[("3", "nf", fr)] = StateRule(r0_key, nf_build, (0,))

    edge_states = set()
    for a in th2c:
        for b, s in pairs[a]:
            edge_states.add((s.inverse(), b))

        def qa_build(l, a=a):
            if l.l0_empty():
                return FALSE
            if a in l.c0:
                return TRUE
            parts = []
            for s in dsets[a]:
                parts.append(f_and(*[here(qa(b)) for b in sorted(s)]))
            for b, s in pairs[a]:
                if s in l.r0:
                    parts.append(up_must(qa(b)))
                parts.append(down_ex(("3", "e", s.inverse(), b)))
            return f_or(*parts)

        def qna_build(l, a=a):
            if l.l0_empty():
                return TRUE
            if a in l.c0:
                return FALSE
            parts = []
            for s in dsets[a]:
                parts.append(f_or(*[here(qna(b)) for b in sorted(s)]))
            for b, s in pairs[a]:
                if s in l.r0:
                    parts.append(up_may(qna(b)))
                parts.append(down_allbut(("3", "ne", s.inverse(), b)))
            return f_and(*parts)

        proj = (lambda a: (
            lambda l: (l.l0_empty(), a in l.c0, tuple(sorted(map(str, l.r0))))
        ))(a)
        rules[qa(a)] = StateRule(proj, qa_build, (0,))
        priorities[qa(a)] = 1
        rules[qna(a)] = StateRule(proj, qna_build, (0,))

    for u, b in sorted(edge_states):
        has_u = lambda l, u=u: u in l.r0
        rules[("3", "e", u, b)] = _test(has_u, bool, here(qa(b)), FALSE, (0,))
        rules[("3", "ne", u, b)] = _test(has_u, bool, here(qna(b)), TRUE, (0,))

    return TwoWayAutomaton(
        "A3", ("3", "q0"), priorities, rules, ctx.labels, ctx.root_labels
    )


# ---------------------------------------------------------------------------
# A4: some query-signature pattern derived under T2 has no image in the
# L1 model (the separating-query condition)

class _T2Space:
    """Type graphs of T2 below every label type, shared across states."""

    def __init__(self, tbox2: NormalTBox, ctx: LabelContext):
        self.qroles = ctx.sigQ.roles
        self.edges = {}  # TGNode -> list[(rho, child TGNode)]
        self.roots = {}  # c2 -> root TGNode
        self.rq = {}  # c2 -> sorted list of TGNodes opening a Q-free subtree
        for lab in ctx.labels:
            if lab.l0_empty() or lab.c2 in self.roots:
                continue
            tg = models.type_graph(tbox2, lab.c2)
            self.roots[lab.c2] = tg.root
            rq_nodes = set()
            for node in tg.nodes:
                outs = []
                for _r, rho, child in tg.out[node]:
                    outs.append((rho, child))
                    if not any(r.name in self.qroles for r in rho):
                        rq_nodes.add(child)
                self.edges.setdefault(node, sorted(
                    outs,
                    key=lambda e: (sorted(map(str, e[0])), stable_key(e[1])),
                ))
            self.rq[lab.c2] = sorted(rq_nodes, key=stable_key)

    def rho_q(self, rho) -> frozenset:
        return frozenset(r for r in rho if r.name in self.qroles)


def build_A4(
    tbox1: NormalTBox,
    tbox2: NormalTBox,
    ctx: LabelContext,
    sim: bool = False,
) -> TwoWayAutomaton:
    """With ``sim``, the single-role variant for rooted tree queries: the
    derived structure is not Q-simulated by the L1 model.  It drops the
    bounded-homomorphism states and splits the edge obligations role by
    role."""
    space = _T2Space(tbox2, ctx)
    tag = "s4" if sim else "4"
    qconcepts, qroles = ctx.sigQ.concepts, ctx.sigQ.roles
    rules = {}
    priorities = {}
    finhom_memo = {}

    def finhom(c1, t2) -> bool:
        key = (c1, t2)
        if key not in finhom_memo:
            try:
                finhom_memo[key] = mosaics.decide_fin_hom(
                    tbox1, c1, tbox2, t2, ctx.sigQ
                )
            except reasoner.InconsistentABoxError:
                finhom_memo[key] = False
        return finhom_memo[key]

    def n2(node):
        return (tag, "n2", node)

    def obligations(rho):
        """(state key part, query roles) of each obligation an edge with
        superroles rho opens: one per query role under ``sim``, one for
        all of them otherwise."""
        if sim:
            return [(r, frozenset([r])) for r in sorted(space.rho_q(rho))]
        rq = space.rho_q(rho)
        return [(rho, rq)] if rq else []

    def q0_build(l):
        if l.l0_empty():
            return FALSE
        parts = [
            down_ex((tag, "q0")),
            here((tag, "q1")),
            here(n2(space.roots[l.c2])),
        ]
        if not sim:
            for node in space.rq[l.c2]:
                parts.append(here(("4", "n3", node)))
        return f_or(*parts)

    rules[(tag, "q0")] = StateRule(
        lambda l: (l.l0_empty(), tuple(sorted(l.c2))), q0_build, (0, 2)
    )
    priorities[(tag, "q0")] = 1

    # a query role L2 puts on the edge to the parent is missing from L1
    rules[(tag, "q1")] = StateRule(
        lambda l: (tuple(sorted(map(str, l.r1))),
                   tuple(sorted(map(str, l.r2)))),
        lambda l: TRUE if any(r.name in qroles and r not in l.r1
                              for r in l.r2) else FALSE, (0, 1),
    )

    for node in sorted(space.edges, key=stable_key):
        tq = frozenset(a for a in node.type if a in qconcepts)

        def n2_build(l, node=node, tq=tq):
            if l.l1_empty():
                return TRUE
            if not tq <= l.c1:
                return TRUE
            return f_or(*(
                here((tag, "n2r", key, child))
                for rho, child in space.edges[node]
                for key, _rq in obligations(rho)
            ))

        rules[n2(node)] = StateRule(
            lambda l, tq=tq: (l.l1_empty(), tq <= l.c1), n2_build, (1,)
        )
        priorities[n2(node)] = 1

        for rho, child in space.edges[node]:
            for key, rq in obligations(rho):
                st = (tag, "n2r", key, child)
                if st in rules:
                    continue

                def n2r_build(l, key=key, rq=rq, child=child):
                    parts = [down_allbut((tag, "n2d", key, child))]
                    if all(r.inverse() in l.r1 for r in rq):
                        parts.append(up_must(n2(child)))
                    return f_and(*parts)

                rules[st] = StateRule(
                    lambda l, rq=rq: all(r.inverse() in l.r1 for r in rq),
                    n2r_build, (1,),
                )

                std = (tag, "n2d", key, child)
                if std not in rules:
                    rules[std] = _test(
                        lambda l, rq=rq: rq <= l.r1, bool,
                        here(n2(child)), TRUE, (1,),
                    )

    if sim:
        return TwoWayAutomaton(
            "A4sim", (tag, "q0"), priorities, rules, ctx.labels,
            ctx.root_labels,
        )

    n3_nodes = sorted(
        {n for nodes in space.rq.values() for n in nodes}, key=stable_key
    )
    for node in n3_nodes:
        st = ("4", "n3", node)

        def n3_build(l, node=node):
            return f_and(
                down_allbut(("4", "n3", node)),
                up_may(("4", "n3", node)),
                here(n2(node)),
                here(("4", "n3b", node.type)),
            )

        rules[st] = StateRule(lambda l: (), n3_build, ())

        bt = ("4", "n3b", node.type)
        if bt not in rules:
            rules[bt] = StateRule(
                lambda l: (l.l0_empty(), tuple(sorted(l.c1))),
                lambda l, t=node.type: (
                    TRUE if l.l0_empty() or not finhom(l.c1, t) else FALSE
                ), (0, 1),
            )

    return TwoWayAutomaton(
        "A4", ("4", "q0"), priorities, rules, ctx.labels, ctx.root_labels
    )


def build_A4_sim(
    tbox1: NormalTBox,
    tbox2: NormalTBox,
    ctx: LabelContext,
) -> TwoWayAutomaton:
    """``build_A4`` with ``sim``: the A4 variant for rooted tree queries."""
    return build_A4(tbox1, tbox2, ctx, sim=True)


# ---------------------------------------------------------------------------
# regular tree representations and membership

@dataclass
class RegularTreeRep:
    """Finite presentation of a (possibly infinite) labeled tree.

    Every node other than the root must occur in exactly one child list;
    a child list may additionally reference an ancestor, which unfolds
    into an infinite branch.  Parent moves of two-way runs are resolved
    against the spanning-tree parent, which is exact only when the
    representation is loop-free.  ``is_empty`` can return certificates
    with back edges; from a back-edge copy, whose parent in the
    unfolding is the node holding the back edge, an up move then reads
    the wrong node, so the game can accept a tree whose unfolding the
    automaton rejects."""

    labels: dict
    children: dict
    root: object

    def parents(self) -> dict:
        out = {}
        seen = {self.root}
        queue = [self.root]
        while queue:
            n = queue.pop(0)
            for c in self.children.get(n, ()):
                if c not in seen:
                    out[c] = n
                    seen.add(c)
                    queue.append(c)
        return out

    def node_count(self) -> int:
        return len(self.labels)

    def to_json(self) -> str:
        data = {
            "root": str(self.root),
            "nodes": [
                {
                    "id": str(n),
                    "label": label_to_json(self.labels[n]),
                    "children": [str(c) for c in self.children.get(n, ())],
                }
                for n in sorted(self.labels, key=str)
            ],
        }
        return json.dumps(data, indent=2, sort_keys=True)


def _subsets_upto(xs, n):
    for k in range(min(n, len(xs)) + 1):
        for combo in itertools.combinations(xs, k):
            yield combo


def _game_moves(aut, rep, parents, pos):
    """(owner, priority, successor positions) of one game position."""
    kind = pos[0]
    if kind == "s":
        _, node, q = pos
        f = aut.delta(q, rep.labels[node])
        return 0, aut.priority(q), [("f", node, f)]
    _, node, f = pos
    if f == TRUE:
        return 1, 0, []
    if f == FALSE:
        return 0, 0, []
    if f[0] == "and":
        return 1, 0, [("f", node, p) for p in f[1]]
    if f[0] == "or":
        return 0, 0, [("f", node, p) for p in f[1]]
    if f[0] == "here":
        return 0, 0, [("s", node, f[1])]
    if f[0] == "up!":
        par = parents.get(node)
        return 0, 0, [] if par is None else [("s", par, f[1])]
    if f[0] == "up?":
        par = parents.get(node)
        return (1, 0, []) if par is None else (0, 0, [("s", par, f[1])])
    ch = rep.children.get(node, ())
    if f[0] == "dx":
        n, q = f[1], f[2]
        if n == 0:
            return 1, 0, []
        opts = [
            ("g", node, combo, q) for combo in itertools.combinations(ch, n)
        ]
        return 0, 0, opts
    if f[0] == "dab":
        n, q = f[1], f[2]
        opts = [
            ("h", node, combo, q) for combo in _subsets_upto(ch, n)
        ]
        return 0, 0, opts
    raise HornsepError(f"unknown formula node {f!r}")  # pragma: no cover


def _expand_choice(rep, pos):
    _, node, combo, q = pos
    if pos[0] == "g":
        return 1, 0, [("s", c, q) for c in combo]
    ch = rep.children.get(node, ())
    return 1, 0, [("s", c, q) for c in ch if c not in combo]


def _solve_cobuchi(info, start) -> bool:
    """Winner of the parity game with priorities {0,1} from start, for
    the player satisfying 'priority 1 only finitely often'.

    Player 0's region w0 grows by attractors of the regions y outside it
    where player 0 can stay on priority 0 forever (or escape into w0).
    A position is forced into a set by ``need`` successors in it: one
    for player 0, all its distinct ones for the opponent.  With the
    predecessor lists built once, the attractors count each position's
    successors still outside w0, and y sheds by worklist the positions
    with fewer than ``need`` left in y or w0, so each outer round takes
    time linear in the arena's moves.
    """
    ids = {p: k for k, p in enumerate(info)}
    succ = [list(dict.fromkeys(ids[m] for m in mv))
            for _o, _pr, mv in info.values()]
    need = [len(s) if o else 1 for s, (o, _pr, _mv)
            in zip(succ, info.values())]
    preds = [[] for _ in succ]
    for k, s in enumerate(succ):
        for m in s:
            preds[m].append(k)
    missing, won = need[:], [False] * len(succ)

    def attract(todo):
        while todo:
            k = todo.pop()
            if not won[k]:
                won[k] = True
                for j in preds[k]:
                    missing[j] -= 1
                    if not missing[j]:
                        todo.append(j)

    # positions where the mover is stuck lose for the mover
    attract([k for k, n in enumerate(need) if not n])
    while True:
        y = [not w and pr == 0
             for w, (_o, pr, _mv) in zip(won, info.values())]
        good = [sum(y[m] or won[m] for m in s) for s in succ]
        todo = [k for k, n in enumerate(need) if y[k] and good[k] < n]
        while todo:
            k = todo.pop()
            if y[k]:
                y[k] = False
                for j in preds[k]:
                    good[j] -= 1
                    if y[j] and good[j] < need[j]:
                        todo.append(j)
        todo = [k for k, inside in enumerate(y) if inside]
        if not todo:
            return won[ids[start]]
        attract(todo)


def run_on_regular_tree(aut: TwoWayAutomaton, rep: RegularTreeRep) -> bool:
    if aut.max_priority() > 1:
        raise UnsupportedAutomatonError(
            "membership games support priorities 0 and 1 only"
        )
    parents = rep.parents()
    start = ("s", rep.root, aut.initial)
    info = {}
    queue = [start]
    while queue:
        pos = queue.pop()
        if pos in info:
            continue
        if pos[0] in ("g", "h"):
            owner, pr, moves = _expand_choice(rep, pos)
        else:
            owner, pr, moves = _game_moves(aut, rep, parents, pos)
        info[pos] = (owner, pr, tuple(moves))
        queue.extend(m for m in moves if m not in info)
    return _solve_cobuchi(info, start)


# ---------------------------------------------------------------------------
# emptiness: budgeted search for a finite accepted tree

def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :]
        yield [[first]] + blocks


@dataclass
class EmptinessResult:
    empty: bool
    certificate: object = None
    stats: dict = field(default_factory=dict)


#: (priority-1 budget, node depth) of the budgeted pass's two stages:
#: depth 6 finds small certificates, None is the fixpoint with no depth
#: bound.  The relaxed pass, which spends no budget, runs them the other
#: way round: its fixpoint settles most products alone, and its depth-6
#: stage runs only after a spurious fixpoint plan, as a cheaper way to a
#: certificate than the budgeted pass.  Budgets beyond 10 blow past the
#: work limit already on small products.
DEFAULT_SCHEDULE = ((4, 6), (10, None))
WORK_LIMIT = 4_000_000
MAX_ASSIGNMENTS = 4000
MAX_DIA = 6

_BIG = 1 << 30
_UP = ("up!", "up?")
_COUNTED = ("dx", "dab")


def _live_fixpoint(cand):
    """The greatest fixpoint of liveness over a here-closure: each state's
    assignments, less those with a ``here`` atom naming a dead state."""
    # reversed, as spawned states mostly come later: fewer passes
    changed = True
    while changed:
        changed = False
        for p, c in reversed(cand.items()):
            keep = tuple(a for a in c if all(
                t[0] != "here" or cand[t[-1]] for t in a))
            if len(keep) < len(c):
                cand[p], changed = keep, True
    return cand


class _DemandSearch:
    """Search for a tree the automaton accepts, finite or closed by back
    edges, with (unless relaxed) a bounded number of priority-1 spawns
    along any justification path; the bound is the budget the caller
    gives the initial copy.

    ``is_empty`` runs one search per pass, in the two stages of
    ``DEFAULT_SCHEDULE``: the budgeted pass in its order, the relaxed
    pass the other way round.  The depth stage caps the node depth (see
    ``_reuse``).  The fixpoint stage computes the least fixpoint of the
    position values in rounds from the root, each position at most once
    per round.  A position met again while still open gives its value of
    the last round, plus a back edge if no copy in it has priority 1.
    Values start from those the search holds (in the budgeted pass, the
    depth stage's), only grow, and are final once they hold the empty
    need-set; rounds repeat until no value read open grew.  A depth stage
    after the fixpoint must start from fresh values (``memo`` emptied),
    as a fixpoint value answers no depth-capped query.

    States are numbered in ``stable_key`` order, so sorting ids visits
    them in that order.  Labels are numbered by their ``position`` in
    the automaton's alphabet, and each state's guard classes come from
    ``TwoWayAutomaton.classes``, so the search never projects a label
    itself.  It keeps its tables (per state the guard classes and what
    one walk over their formulas finds, see ``table``; assignments per
    guard class, viable labels, reach sets) and the results of
    positions (``memo``) and node evaluations (``eval_cache``) for both
    stages.

    A node is processed as a set of state copies, each carrying its
    remaining budget.  Minimal satisfying assignments of each copy's
    transition spawn further copies here, obligations on children, and
    needs addressed to the parent; children are solved recursively (all
    ways of grouping the child obligations into shared children), and
    whatever the chosen children in turn need from this node is absorbed
    as new copies until the configuration closes.  The value of a child
    position is the antichain of minimal need-sets it can realize; a
    back-edge plan covers only back-edge plans, so none hides a finite tree.

    Copies are drawn only from states live on the node's label, the
    greatest fixpoint of "q has an assignment with no ``up!`` at the root
    whose ``here`` atoms name live states" (``live``, over here-closures).
    Each copy of a configuration that closes took such an assignment, so
    dead copies cost no work and the plans stay the same; greatest, as a
    processed copy discharges a here spawn, so a cycle of them is live.
    It reads only the root flag and the guard rows of q's here-closure at
    the label.  The closure at any label lies in q's here-closure over
    all labels, whose states read only some layers; so ``live`` keeps
    q's value per root flag and group of labels equal on those layers
    (``live_group``), and one fixpoint fills it for the whole closure.

    The budget is what keeps justifications of priority-1 states well
    founded: a copy already processed at a node discharges later demands
    for it, which is a coinductive argument, sound for priority 0 but
    not for priority 1 (a state may otherwise end up justified through
    its own pending obligations, e.g. by bouncing between a node and its
    parent).  Hence loop-free plans found under a budget always pass the
    membership game, at the price of missing witnesses that need deeper
    nesting than the budget allows.

    In ``relaxed`` mode no spawn costs budget, so every copy keeps the
    initial one.  The plan set then over-approximates the budgeted one
    for every budget, so a relaxed search that comes up empty is a sound
    emptiness proof, while a relaxed plan is only a candidate until the
    membership game confirms it.
    """

    def __init__(self, aut: TwoWayAutomaton, relaxed):
        self.aut = aut
        self.states = sorted(aut.rules, key=stable_key)
        self.ids = {q: i for i, q in enumerate(self.states)}
        self.priorities = [aut.priority(q) for q in self.states]
        self.prios = [0] * len(self.states) if relaxed else self.priorities
        self.tables = [None] * len(self.states)
        self.assign_cache, self.viable, self._reach_cache = {}, {}, {}
        self.memo, self.eval_cache, self.live = {}, {}, {}
        self.live_rows, self.live_groups = {}, {}
        self.work, self.limit = 0, None
        # the fixpoint stage: its round, the positions done in it, the
        # open ones with the guard class each evaluates, those read open
        self.round, self.done, self.open, self.reread = 0, set(), {}, set()
        # in-progress node evaluations, for tying regular back edges
        self._path = {}
        self._tok_stack = []
        self._tok_counter = itertools.count()

    def root_plans(self, start, depth):
        """One stage of the schedule: each root label's plan, for trees up
        to ``depth`` (None: any), in ``WORK_LIMIT`` more steps."""
        self.limit, self.again, self.round = self.work + WORK_LIMIT, True, 0
        while self.again:
            self.again, self.done, self.reread = False, set(), set()
            self.round += depth is None
            for label in self.aut.root_labels:
                i = self.aut.position[label]
                try:
                    res = self.eval_label(start, i, depth, True)
                except RecursionError:  # a loud cap, like WORK_LIMIT
                    raise ResourceLimitError(
                        "emptiness search nested past the recursion limit"
                    ) from None
                plan = res.get(frozenset())
                if plan is not None:
                    yield plan

    def table(self, q):
        """The guard classes of state id q (``TwoWayAutomaton.classes``),
        then, over any label, the ids of the states its transitions
        mention, the ids its ``here`` atoms name, and whether one counts
        more than one child: all from one walk over the rows."""
        hit = self.tables[q]
        if hit is None:
            rows, of = self.aut.classes(self.states[q])
            ids, mentions, heres, counts = self.ids, set(), set(), False
            for _key, f in rows:
                for a in formula_atoms(f):
                    p = ids[a[-1]]
                    mentions.add(p)
                    if a[0] == "here":
                        heres.add(p)
                    elif a[0] in _COUNTED and a[1] > 1:
                        counts = True
            hit = self.tables[q] = (rows, of, mentions, heres, counts)
        return hit

    def reach(self, states: frozenset) -> tuple:
        """All states that can take part in evaluating a node seeded with
        the given copies: closure under transition mentions (needs
        absorbed from children are mentions of mentions)."""
        hit = self._reach_cache.get(states)
        if hit is None:
            seen = set(states)
            queue = list(states)
            while queue:
                q = queue.pop()
                for p in self.table(q)[2]:
                    if p not in seen:
                        seen.add(p)
                        queue.append(p)
            hit = tuple(sorted(seen))
            self._reach_cache[states] = hit
        return hit

    def joint_key(self, states: tuple, i):
        """The guard class of label position i in each of the given states,
        which ``reach`` has tabled; node evaluation results are identical
        for labels sharing it."""
        tables = self.tables
        return tuple(tables[q][1][i] for q in states)

    def assignments(self, q, row):
        """Minimal satisfying assignments of q's transition in its guard
        class ``row``, each a sorted tuple of atoms over state ids, by
        size and then atoms.  Ids sort like states' ``stable_key``, so
        this is the order of the atoms' ``stable_key``."""
        key = (q, row)
        hit = self.assign_cache.get(key)
        if hit is None:
            ids = self.ids
            hit = self.assign_cache[key] = sorted(
                (tuple(sorted(a[:-1] + (ids[a[-1]],) for a in s))
                 for s in sat_assignments(self.table(q)[0][row][1])),
                key=lambda t: (len(t), t))
        return hit

    def live_group(self, q):
        """The group of each label position under the layers that the
        states of q's here-closure over all labels read."""
        hit = self.live_groups.get(q)
        if hit is None:
            seen, todo, reads = set(), [q], set()
            while todo:
                p = todo.pop()
                if p not in seen:
                    seen.add(p)
                    reads.update(self.aut.rules[self.states[p]].reads)
                    todo.extend(self.table(p)[3])
            hit = self.aut.groups(tuple(sorted(reads)))[0]
            self.live_groups[q] = hit
        return hit

    def live_assignments(self, q, i, is_root):
        """q's live assignments on label position i, in ``assignments``
        order, or none if q is dead there (see the class docstring).  A
        miss walks q's here-closure at i, with each state's candidate
        rows kept in ``live_rows``, and runs one fixpoint over it, whose
        values fill ``live`` for every state of the closure."""
        hit = self.live.get((q, self.live_group(q)[i], is_root))
        if hit is None:
            cand, todo = {}, [q]
            while todo:
                p = todo.pop()
                if p in cand:
                    continue
                rk = (p, self.table(p)[1][i], is_root)
                if rk not in self.live_rows:
                    c = tuple(a for a in self.assignments(p, rk[1]) if not (
                        is_root and any(t[0] == "up!" for t in a)))
                    self.live_rows[rk] = c, tuple(dict.fromkeys(
                        t[-1] for a in c for t in a if t[0] == "here"))
                cand[p], spawned = self.live_rows[rk]
                todo.extend(spawned)
            for p, c in _live_fixpoint(cand).items():
                self.live[p, self.live_group(p)[i], is_root] = c
            hit = cand[q]
        return hit

    def viable_labels(self, q):
        """Positions of the labels on which q's transition is satisfiable."""
        hit = self.viable.get(q)
        if hit is None:
            of = self.table(q)[1]
            live = {r for r in set(of) if self.assignments(q, r)}
            hit = self.viable[q] = frozenset(
                i for i, r in enumerate(of) if r in live)
        return hit

    def _tick(self):
        self.work += 1
        if self.work > self.limit:
            stage = (f"fixpoint round {self.round}" if self.round
                     else "depth-capped stage")
            raise ResourceLimitError(
                f"emptiness search exceeded {WORK_LIMIT} steps "
                f"(states={len(self.states)}, labels={len(self.aut.labels)}, "
                f"{stage})"
            )

    # -- one node -----------------------------------------------------------

    def eval_label(self, copies, i, depth, is_root):
        # copies are (state id, budget) pairs, i is the label's position;
        # a back edge cannot revive a dead copy: its ancestor is dead too.
        # The live assignments looked up here start _close's asg_here.
        asg_here = {}
        for q, _b in copies:
            asg_here[q] = self.live_assignments(q, i, is_root)
            if not asg_here[q]:
                return {}
        states = self.reach(frozenset(q for q, _b in copies))
        # Depth is a resource cap, not part of the accepted-tree semantics,
        # so the depth-capped stage shares results across recursion levels
        # (_reuse); the fixpoint stage, whose values grow, reads none.
        jk = self.joint_key(states, i)
        # An in-progress ancestor evaluation with the same copies and an
        # interchangeable label can absorb this position as a back edge:
        # the resulting regular tree repeats the ancestor's subtree
        # forever.  Sound only when no priority-1 state rides the loop,
        # and the membership game re-checks the finished certificate
        # either way.  Without this the search misses every witness whose
        # canonical models are infinite (for example a TBox demanding an
        # unbounded predecessor chain).  Checked before the caches: a
        # cached empty result from a loop-free context does not rule the
        # back edge out.  The root flag is part of the key: the root's
        # evaluation skips up moves, which a repeat below it cannot.
        ck = (copies, jk, is_root)
        anc = self._path.get(ck)
        prio = self.priorities
        if anc is not None and all(prio[q] == 0 for q, _b in copies):
            return {frozenset(): ("loop", anc)}
        cached = self.eval_cache.get(ck)
        if cached is not None and depth is not None:
            hit = self._reuse(cached, depth, True)
            if hit is not None:
                return hit
        # copies hold one budget per state, so this is the states' order
        pending = sorted(copies)
        tok = next(self._tok_counter)
        prev = self._path.get(ck)
        self._path[ck] = tok
        self._tok_stack.append(tok)
        hit = {}
        try:
            self._close({}, pending, {}, {}, {}, i, depth, is_root, hit,
                        asg_here)
        finally:
            self._tok_stack.pop()
            if prev is None:
                del self._path[ck]
            else:
                self._path[ck] = prev
        # nothing checks that a node meets the needs of its own repeat
        hit = {n: p for n, p in hit.items()
               if not (n and _plan_has_loop(p, tok))}
        if depth is not None:
            self.eval_cache[ck] = (depth, _loop_free(hit))
        return hit

    def _reuse(self, cached, depth, deeper):
        """The result of a cached ``(depth, result)`` entry if it may
        answer a query at remaining ``depth``, else None: one computed at
        least that deep, or with ``deeper`` (node evaluations) any
        nonempty one.  The latter can miss trees near the depth cap,
        which the fixpoint stage finds."""
        cd, res = cached
        return res if cd >= depth or deeper and res else None

    def _close(self, proc, pending, needs, dia, box, i, depth, is_root,
               out, asg_here):
        # Depth-first over the assignment choices of the pending copies,
        # on an explicit stack rather than one recursive call per choice.
        # CPython 3.11 frees and maps an interpreter stack chunk whenever
        # a hot call crosses a chunk boundary; the recursion took tens of
        # thousands of page faults per search, as many as its starting
        # depth happened to put at a boundary.  Choices are pushed in
        # reverse, so they pop in the recursion's order.
        #
        # Different choice orders reach the same configuration again and
        # again: copy a spawning b and then b spawning c closes to the
        # same copies as the other way round.  So each configuration,
        # keyed on its processed copies, the set of its pending copies,
        # its needs and its child obligations, is expanded at its first
        # pop only.  That pop is the one the search always took first,
        # so the plans recorded first, and with them the certificates,
        # stay the same.  Taking the same pending copies in another order
        # can only add obligations: a copy of a state with a larger
        # budget is skipped once a smaller one has been processed.  The
        # keys hold state ids, cheap to hash where the product states
        # are nested tuples.  ``asg_here`` keeps each state's live
        # assignments on this node's label, at position i, for the whole
        # node evaluation: a choice spawning a dead state here, or up!
        # at the root, leads only to configurations that never close.
        prios, live_assignments = self.prios, self.live_assignments
        seen = set()
        stack = [(proc, pending, needs, dia, box)]
        while stack:
            proc, pending, needs, dia, box = stack.pop()
            conf = (
                frozenset(proc.items()), frozenset(pending),
                frozenset(needs.items()), frozenset(dia.items()),
                frozenset(box.items()),
            )
            if conf in seen:
                continue
            seen.add(conf)
            self._tick()
            while pending:
                q, b = pending[-1]
                pending = pending[:-1]
                if proc.get(q, _BIG) <= b:
                    continue
                break
            else:
                self._assemble(proc, needs, dia, box, i, depth, is_root,
                               out, asg_here)
                continue
            proc = dict(proc)
            proc[q] = min(proc.get(q, _BIG), b)
            asgs = asg_here.get(q)
            if asgs is None:
                asgs = asg_here[q] = live_assignments(q, i, is_root)
            for asg in reversed(asgs):
                nd, di, bx = dict(needs), dict(dia), dict(box)
                pe = list(pending)
                ok = True
                for atom in asg:
                    tag, p = atom[0], atom[-1]
                    if tag in _UP and is_root or tag == "dx" and atom[1] == 0:
                        continue
                    nb = b - prios[p]
                    if nb < 0:
                        ok = False
                        break
                    if tag == "here":
                        if proc.get(p, _BIG) > nb:
                            pe.append((p, nb))
                        continue
                    if tag in _UP:
                        target, key = nd, p
                    elif tag == "dx":
                        target, key = di, p
                    else:
                        target, key = bx, (p, atom[1])
                    target[key] = min(target.get(key, _BIG), nb)
                if ok:
                    stack.append((proc, pe, nd, di, bx))

    def _record(self, out, needs, plan):
        n = frozenset(needs.items())

        def covers(weak, strong):
            # a parent covering `strong` also covers `weak`
            return all(
                any(q2 == q and b2 <= b for q2, b2 in strong)
                for q, b in weak
            )

        # A back-edge plan dominates back-edge plans only: the caches drop
        # it, so they must keep the loop-free plans it would cover, and a
        # loop-free plan takes its place for the same needs.
        loop = _plan_has_loop(plan)
        for m, p in out.items():
            if covers(m, n) and (loop or not _plan_has_loop(p)):
                return
        for m, p in list(out.items()):
            if covers(n, m) and (not loop or _plan_has_loop(p)):
                del out[m]
        out[n] = plan

    def _assemble(self, proc, needs, dia, box, i, depth, is_root, out,
                  asg_here):
        self._tick()
        if not dia:
            self._record(out, needs, ("leaf", self.aut.labels[i]))
            return
        if depth == 0:  # None: no depth bound
            return
        below = None if depth is None else depth - 1
        # state ids are unique among the keys, so these compare ids only
        items = sorted(dia.items())
        if len(items) > MAX_DIA:
            raise ResourceLimitError(
                f"a node accumulated {len(items)} child obligations, "
                f"cap is {MAX_DIA}"
            )
        box_items = sorted(box.items())
        for blocks in _set_partitions(items):
            excl_opts = []
            for (p, n), _b in box_items:
                if n == 0:
                    excl_opts.append([None])
                else:
                    excl_opts.append([None] + list(range(len(blocks))))
            for excl in itertools.product(*excl_opts):
                childsets = []
                for j, blk in enumerate(blocks):
                    cs = dict(blk)
                    for idx, ((p, _n), bb) in enumerate(box_items):
                        if excl[idx] == j:
                            continue
                        cs[p] = min(cs.get(p, _BIG), bb)
                    childsets.append(frozenset(cs.items()))
                solved = [self.solve(cs, below) for cs in childsets]
                if any(not s for s in solved):
                    continue
                options = [
                    sorted(s.items(),
                           key=lambda kv: (len(kv[0]), sorted(kv[0])))
                    for s in solved
                ]
                for combo in itertools.product(*options):
                    absorbed = {}
                    for nk, _plan in combo:
                        for p, bb in nk:
                            absorbed[p] = min(absorbed.get(p, _BIG), bb)
                    newpend = [
                        (p, bb)
                        for p, bb in sorted(absorbed.items())
                        if proc.get(p, _BIG) > bb
                    ]
                    if newpend:
                        self._close(proc, newpend, needs, dia, box, i,
                                    depth, is_root, out, asg_here)
                    else:
                        plan = ("node", self.aut.labels[i],
                                [pl for _nk, pl in combo],
                                self._tok_stack[-1])
                        self._record(out, needs, plan)

    # -- positions ----------------------------------------------------------

    def solve(self, copies: frozenset, depth):
        cached = self.memo.get(copies)
        old = cached[1] if cached else {}
        if depth is not None:
            res = cached and self._reuse(cached, depth, False)
            if res is not None:
                return res
        elif frozenset() in old or copies in self.done:
            return old
        elif copies in self.open:
            # the value of the last round, and with no priority-1 copy a
            # back edge to the evaluation in progress
            self.reread.add(copies)
            res = dict(old)
            if all(self.priorities[q] == 0 for q, _b in copies):
                tok = self._path[copies, self.open[copies], False]
                res[frozenset()] = ("loop", tok)
            return res
        viable = frozenset.intersection(
            *(self.viable_labels(q) for q, _b in copies))
        res = {} if depth is not None else dict(old)  # values only grow
        if viable:
            states = self.reach(frozenset(q for q, _b in copies))
            seen_keys = set()
            for i in sorted(viable):
                jk = self.joint_key(states, i)
                if jk in seen_keys:
                    continue
                seen_keys.add(jk)
                self.open[copies] = jk
                for needs, plan in self.eval_label(
                    copies, i, depth, False
                ).items():
                    self._record(res, dict(needs), plan)
                # The empty need-set covers every other one, so once it
                # holds a loop-free plan, _record discards every later
                # result: the remaining labels cannot change res.  A
                # back-edge plan for it may still be swapped for a
                # loop-free one, so the scan goes on in that case.
                done = res.get(frozenset())
                if done is not None and not _plan_has_loop(done):
                    break
        value = _loop_free(res)
        self.open.pop(copies, None)
        if depth is None:
            self.done.add(copies)
            self.again |= copies in self.reread and value.keys() != old.keys()
        self.memo[copies] = (depth, value)
        return res


def _plan_has_loop(plan, tok=None) -> bool:
    """Whether the plan has a back edge (to evaluation ``tok``, if given)."""
    if plan[0] == "loop":
        return tok is None or plan[1] == tok
    return plan[0] == "node" and any(_plan_has_loop(p, tok) for p in plan[2])


def _loop_free(res) -> dict:
    # back edges mean something only on the recursion path that tied them
    return {n: p for n, p in res.items() if not _plan_has_loop(p)}


_NO_TOK = object()


def _plan_to_rep(plan) -> RegularTreeRep:
    labels = {}
    children = {}
    counter = itertools.count()
    # back-edge references resolve to the nearest enclosing node built
    # from the evaluation they were recorded against
    tokmap = {}

    def rec(p):
        tag = p[0]
        if tag == "loop":
            return tokmap[p[1]]
        nid = f"n{next(counter)}"
        labels[nid] = p[1]
        if tag == "leaf":
            children[nid] = []
        elif tag == "node":
            saved = tokmap.get(p[3], _NO_TOK)
            tokmap[p[3]] = nid
            children[nid] = [rec(sub) for sub in p[2]]
            if saved is _NO_TOK:
                del tokmap[p[3]]
            else:
                tokmap[p[3]] = saved
        return nid

    root = rec(plan)
    return RegularTreeRep(labels, children, root)


def is_empty(aut: TwoWayAutomaton) -> EmptinessResult:
    """Search for an accepted tree.

    Two passes, one ``_DemandSearch`` each.  The budget-free relaxed
    search over-approximates the plan space.  It runs the fixpoint stage
    first: if that finds nothing, the language has no finite tree; if
    its plan passes the membership game, that is a genuine witness.
    Only after a spurious plan (a priority-1 state justified through its
    own obligations) does it run the depth-6 stage, on fresh position
    values, whose small trees often pass the game where the fixpoint's
    plan did not; that costs far less than the budgeted pass.  When that
    plan is spurious too, or there is none, the budgeted exact search
    runs the stages of ``DEFAULT_SCHEDULE``, depth 6 and then no depth
    bound.  Its plans are valid unless they close a back edge, and it
    has to grind through far more configurations.  Each stage may take
    ``WORK_LIMIT`` steps.

    ``stats`` holds the ``work`` and the number of ``stages`` summed over
    both passes, ``certificate_nodes`` of the returned certificate, and
    ``spurious_relaxed_plan`` when the budgeted pass ran.

    A nonempty verdict always carries a game-checked certificate.  An
    empty verdict means that no finite tree is accepted at any depth
    (after a spurious relaxed plan: none with at most 10 priority-1
    spawns nested along a path), nor any tree closed by a back edge that
    the search ties.  Every pipeline verdict is also cross-checked
    against brute-force oracles in the test suite.
    """
    if aut.max_priority() > 1:
        raise UnsupportedAutomatonError(
            "emptiness supports priorities 0 and 1 only"
        )
    search = _DemandSearch(aut, True)
    init = search.ids[aut.initial]
    # every state the search can reach, scanned before the liveness cut
    # can skip the assignment holding the count
    if any(search.table(q)[4] for q in search.reach(frozenset([init]))):
        raise UnsupportedAutomatonError(
            "emptiness supports child counts 0 and 1 only"
        )
    stats = {"work": 0, "stages": 0}
    for relaxed in (True, False):
        if not relaxed:
            search = _DemandSearch(aut, False)
        for budget, depth in (DEFAULT_SCHEDULE[::-1] if relaxed
                              else DEFAULT_SCHEDULE):
            # the relaxed pass spends no budget, so its start copy needs
            # none, and its stages ask for the same positions; its depth
            # stage starts from fresh values, not the fixpoint's
            b = 0 if relaxed else budget - aut.priority(aut.initial)
            start = frozenset([(init, b)])
            if relaxed and depth is not None:
                search.memo = {}
            stats["stages"] += 1
            accepted = None
            for plan in search.root_plans(start, depth):
                rep = _plan_to_rep(plan)
                accepted = run_on_regular_tree(aut, rep)
                if accepted or relaxed:
                    break
                if not _plan_has_loop(plan):
                    raise HornsepError(
                        "internal error: emptiness certificate failed "
                        "re-validation"
                    )
                # a rejected back-edge plan is discarded, not treated as
                # an internal inconsistency
            if accepted:
                stats["work"] += search.work
                stats["certificate_nodes"] = rep.node_count()
                return EmptinessResult(False, rep, stats)
            if relaxed and accepted is None and depth is None:
                # no relaxed tree at any depth: exactly empty
                stats["work"] += search.work
                return EmptinessResult(True, None, stats)
        stats["work"] += search.work
        if relaxed:
            stats["spurious_relaxed_plan"] = True
    return EmptinessResult(True, None, stats)
