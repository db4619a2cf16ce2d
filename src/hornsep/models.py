"""Finite pieces and regular presentations of universal models.

The universal model of a TBox and ABox consists of the (completed) ABox
part plus anonymous trees hanging off individuals.  ``UniversalModel``
chases one TBox and ABox once and keeps what is derived from the chase:
the ABox successor types, the finite prefixes (windows) that
``materialize(model, depth)`` builds, and the reachable anonymous
classes; certain answers are evaluated against it.  ``TypeGraph``
presents the anonymous tree below a single type as a finite graph whose
unfolding is the model; all homomorphism questions against universal
models are asked against such graphs.

Every anonymous child, at an individual or below one, is read off one
table, the TBox's ``ConsequenceIndex.children``, filled once per (type,
incoming role) and shared by every model, window, type graph and prefix
of that TBox (at an individual, see ``UniversalModel.children``).
Windows and prefixes grow through one level walk, and their anonymous
elements are path tuples (parent, role, type); the other elements are
individual names (strings) or a prefix's root (start,).

A named successor b of a along r gets no anonymous "twin", an r-child of
a with b's type that no axiom asks for, and certain answers do not move.
A twin's subtree maps onto b and b's anonymous subtree: the twin has b's
type, its edge roles are among the superroles of the asserted edge, and
a child along a functional role lands on b's named successor, as the
functionality proviso already assumes.  The model without twins is a
substructure of the one with them (a child whose type a twin's strictly
contains, which the twins' maximality dropped, maps onto that twin).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from . import reasoner
from .reasoner import BOT, index_for
from .syntax import ABox, NormalTBox, Role


class NeighborIndex(NamedTuple):
    order: list  # the elements, in stable_key order
    near: dict  # element -> its distinct neighbours, in that order


@dataclass
class Interpretation:
    elements: set = field(default_factory=set)
    individuals: set = field(default_factory=set)
    labels: dict = field(default_factory=dict)  # element -> set of concept names
    edges: set = field(default_factory=set)  # (x, role name, y)
    _index: NeighborIndex = field(
        default=None, init=False, repr=False, compare=False)

    def add_element(self, e, labels=()):
        self.elements.add(e)
        self.labels.setdefault(e, set()).update(labels)
        self._index = None

    def add_role_edge(self, x, role: Role, y):
        """Add the edge (x, role, y), stored under the role name."""
        if role.inverted:
            self.edges.add((y, role.name, x))
        else:
            self.edges.add((x, role.name, y))
        self._index = None

    def neighbor_index(self) -> NeighborIndex:
        """The elements in ``stable_key`` order and each element's distinct
        neighbours along edges of either direction in that order; built
        on first use and kept until the next ``add_element`` or
        ``add_role_edge``."""
        if self._index is None:
            order = sorted(self.elements, key=stable_key)
            rank = {e: i for i, e in enumerate(order)}
            near = {e: set() for e in order}
            for a, _r, b in self.edges:
                near[a].add(b)
                near[b].add(a)
            near = {e: sorted(ns, key=rank.__getitem__)
                    for e, ns in near.items()}
            self._index = NeighborIndex(order, near)
        return self._index

    def to_json(self) -> str:
        key = stable_key
        data = {
            "elements": [
                {
                    "id": key(e),
                    "individual": e in self.individuals,
                    "concepts": sorted(self.labels.get(e, ())),
                }
                for e in sorted(self.elements, key=key)
            ],
            "edges": sorted(
                [key(a), r, key(b)] for a, r, b in self.edges
            ),
        }
        return json.dumps(data, indent=2, sort_keys=True)


def stable_key(key) -> str:
    """Hash-seed-independent text of an interpretation element, a state,
    a guard key or a label: the one sort key and rendering behind every
    deterministic order, dump and JSON document of the package."""
    if isinstance(key, tuple):
        return "(" + ",".join(stable_key(p) for p in key) + ")"
    if isinstance(key, (frozenset, set)):
        return "{" + ",".join(sorted(stable_key(p) for p in key)) + "}"
    if isinstance(key, TGNode):
        rin = stable_key(key.rin) if key.rin else "."
        return f"<{stable_key(key.type)}:{rin}>"
    return str(key)


class UniversalModel:
    """The universal model of one TBox and ABox, chased once.

    Holds the chase state (with the asserted edge roles) and, each built
    on first use, the materialized window per depth and the reachable
    anonymous classes.  One object serves every query asked of the same
    TBox and ABox.  The windows are shared, so a caller that changes one
    must copy it first.
    """

    def __init__(self, tbox: NormalTBox, abox: ABox):
        self.tbox = tbox
        self.abox = abox
        self.state = reasoner.chase(tbox, abox)
        self._windows: dict = {}
        self._anon = None

    @property
    def consistent(self) -> bool:
        return self.state.consistent

    def children(self, a) -> list:
        """Individual a's anonymous children: the children table's
        entries (r, superroles of r, t') for its type, in the table's
        order, but none along a functional r on which a has a named
        successor, its only r-successor then (the functionality proviso)."""
        idx = index_for(self.tbox)
        named = set().union(
            *(roles for (x, _b), roles in self.state.edges.items() if x == a))
        return [c for c in idx.children(self.state.tp[a] - {BOT})
                if not (c[0] in idx.functional and c[0] in named)]

    def window(self, depth: int) -> Interpretation:
        if depth not in self._windows:
            self._windows[depth] = materialize(self, depth)
        return self._windows[depth]

    def anon_classes(self) -> TypeGraph:
        if self._anon is None:
            self._anon = reachable_anon_classes(self)
        return self._anon


def materialize(model: UniversalModel, depth: int) -> Interpretation:
    """The ABox part of the universal model plus its anonymous trees cut
    at the given depth, as a new interpretation, built breadth first
    from the individuals."""
    if not model.consistent:
        raise reasoner.InconsistentABoxError(
            "cannot materialize an inconsistent ABox"
        )
    abox, state = model.abox, model.state
    idx = index_for(model.tbox)
    interp = Interpretation()
    for a in abox.individuals():
        interp.add_element(a, set(state.tp[a]) - {BOT})
        interp.individuals.add(a)
    for (a, b), roles in state.edges.items():
        for r in roles:
            interp.add_role_edge(a, r, b)
    level = [(a, None) for a in sorted(abox.individuals())]
    return _unfold_levels(
        interp, level, depth, lambda e, node: model.children(e)
        if node is None else idx.children(node.type, node.rin))


def _unfold_levels(interp, level, depth: int, children) -> Interpretation:
    """Add depth levels of anonymous elements to interp below ``level``, a
    list of (element, TGNode, or None at an individual) pairs.
    ``children(element, node)`` lists each child's generating role r, its
    superroles and its type t, and the child is named (element, str(r), t)."""
    for _ in range(depth):
        below = []
        for parent, node in level:
            for r, rho, t2 in children(parent, node):
                elem = (parent, str(r), t2)
                interp.add_element(elem, t2)
                for s in rho:
                    interp.add_role_edge(parent, s, elem)
                below.append((elem, TGNode(t2, r)))
        level = below
    return interp


# ---------------------------------------------------------------------------
# type graphs


@dataclass(frozen=True)
class TGNode:
    type: frozenset  # concept names
    rin: object  # generating Role, or None at the root


@dataclass
class TypeGraph:
    root: TGNode = None
    nodes: set = field(default_factory=set)
    # node -> list of (generating role, rho = superroles, child node)
    out: dict = field(default_factory=dict)


def _unfold(tbox: NormalTBox, root, starts) -> TypeGraph:
    """The (incoming role, type) classes reachable from the start nodes,
    breadth first, with their children per ``ConsequenceIndex.children``."""
    idx = index_for(tbox)
    tg = TypeGraph(root=root)
    queue = list(starts)
    while queue:
        node = queue.pop(0)
        if node in tg.nodes:
            continue
        tg.nodes.add(node)
        tg.out[node] = [
            (r, rho, TGNode(t2, r))
            for r, rho, t2 in idx.children(node.type, node.rin)
        ]
        queue += [c for _r, _rho, c in tg.out[node] if c not in tg.nodes]
    return tg


def type_graph(tbox: NormalTBox, t0) -> TypeGraph:
    idx = index_for(tbox)
    if not idx.consistent(t0):
        raise reasoner.InconsistentABoxError("type graph of an inconsistent type")
    root = TGNode(idx.type_of(t0), None)
    return _unfold(tbox, root, [root])


def prefix_interpretation(tg: TypeGraph, start: TGNode, depth: int) -> Interpretation:
    """Unfold the subtree below an instance of `start`, named (start,), to
    the given depth."""
    root = (start,)
    interp = Interpretation()
    interp.add_element(root, set(start.type))
    return _unfold_levels(
        interp, [(root, start)], depth,
        lambda _e, node: [(r, rho, c.type) for r, rho, c in tg.out[node]])


def reachable_anon_classes(model: UniversalModel) -> TypeGraph:
    """All (incoming role, type) classes of anonymous elements of the
    universal model, presented as a rootless TypeGraph."""
    starts = [
        TGNode(t, r)
        for a in sorted(model.abox.individuals())
        for r, _rho, t in model.children(a)
    ]
    return _unfold(model.tbox, None, starts)


def anonymous_component_match(model: UniversalModel, comp) -> bool:
    """Does a Boolean query component match entirely inside some anonymous
    subtree of the universal model?  Stops at the first match."""
    tg = model.anon_classes()
    m = max(1, len(comp.variables()))
    for node in tg.nodes:
        prefix = prefix_interpretation(tg, node, m)
        if next(reasoner.match_cq(comp, prefix), None) is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# connected substructures


def enumerate_connected_substructures(
    interp: Interpretation, root, max_size: int
):
    """Connected induced substructures containing `root`, ≤ max_size
    elements, of a weakly tree-shaped interpretation.

    The tree is rooted at `root`, and each element's children are its
    other neighbours in ``stable_key`` order, read off the
    interpretation's ``neighbor_index``.  Only elements fewer than
    max_size - 1 steps from the root can gain a child in a substructure,
    so only those are expanded.  A substructure's edges are those of the
    interpretation with both ends in it."""
    index = interp.neighbor_index()
    children: dict = {}
    seen = {root}
    level = [root]
    for _ in range(max_size - 1):
        below = []
        for x in level:
            kids = children[x] = [y for y in index.near[x] if y not in seen]
            seen.update(kids)
            below += kids
        level = below

    results = []

    def grow(current: frozenset, candidates: tuple):
        results.append(current)
        if len(current) == max_size:
            return
        for i, c in enumerate(candidates):
            grow(
                current | {c},
                candidates[i + 1 :] + tuple(children.get(c, ())),
            )

    grow(frozenset([root]), tuple(children.get(root, ())))

    for subset in results:
        sub = Interpretation()
        for e in subset:
            sub.add_element(e, interp.labels.get(e, ()))
        sub.edges = {
            (a, r, b) for a, r, b in interp.edges if a in subset and b in subset
        }
        yield sub
