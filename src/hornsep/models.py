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

Elements of materialized interpretations are either individual names
(strings) or path tuples (parent, role, type) for anonymous elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import reasoner
from .reasoner import BOT, index_for
from .syntax import ABox, NormalTBox, Role


@dataclass
class Interpretation:
    elements: set = field(default_factory=set)
    individuals: set = field(default_factory=set)
    labels: dict = field(default_factory=dict)  # element -> set of concept names
    edges: set = field(default_factory=set)  # (x, role name, y)

    def add_element(self, e, labels=()):
        self.elements.add(e)
        self.labels.setdefault(e, set()).update(labels)

    def add_role_edge(self, x, role: Role, y):
        """Add the edge (x, role, y), stored under the role name."""
        if role.inverted:
            self.edges.add((y, role.name, x))
        else:
            self.edges.add((x, role.name, y))

    def role_neighbors(self, x):
        """Yield (role, y) for every role (name or inverse) with (x,y) in it."""
        for a, r, b in self.edges:
            if a == x:
                yield Role(r), b
            if b == x:
                yield Role(r, True), a

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


def _anon_children(tbox: NormalTBox, t: frozenset, rin) -> list:
    """Children (gen role, rho, child type) of an anonymous element with
    type t entered via rin (None at a root), per the successor relation and
    the no-immediate-return condition for functional roles."""
    idx = index_for(tbox)
    out = []
    for r in sorted(idx.roles, key=str):
        if r in idx.functional and rin is not None and rin == r.inverse():
            continue
        for t2 in sorted(reasoner.succ_rel(tbox, t, r), key=sorted):
            out.append((r, idx.superroles(r), t2))
    return out


class UniversalModel:
    """The universal model of one TBox and ABox, chased once.

    Holds the chase state (with the asserted edge roles) and, each built
    on first use, the ABox successor types per (individual, role), the
    materialized window per depth and the reachable anonymous classes.
    One object serves every query asked of the same TBox and ABox.  The
    windows are shared, so a caller that changes one must copy it first.
    """

    def __init__(self, tbox: NormalTBox, abox: ABox):
        self.tbox = tbox
        self.abox = abox
        self.state = reasoner.chase(tbox, abox)
        self._succ: dict = {}
        self._windows: dict = {}
        self._anon = None

    @property
    def consistent(self) -> bool:
        return self.state.consistent

    def succ(self, a, r: Role) -> set:
        key = (a, r)
        if key not in self._succ:
            self._succ[key] = reasoner.abox_succ(self, a, r)
        return self._succ[key]

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
    at the given depth."""
    if not model.consistent:
        raise reasoner.InconsistentABoxError(
            "cannot materialize an inconsistent ABox"
        )
    tbox, abox, state = model.tbox, model.abox, model.state
    idx = index_for(tbox)
    interp = Interpretation()
    for a in abox.individuals():
        interp.add_element(a, set(state.tp[a]) - {BOT})
        interp.individuals.add(a)
    for s, a, b in abox.role_assertions:
        for r in idx.superroles(Role(s)):
            interp.add_role_edge(a, r, b)

    # anonymous part, breadth first; frontier entries are
    # (element, type, incoming generating role or None, remaining depth)
    frontier = []
    for a in sorted(abox.individuals()):
        for r in sorted(idx.roles, key=str):
            for t2 in sorted(model.succ(a, r), key=sorted):
                if depth >= 1:
                    frontier.append((a, t2, r, depth - 1))

    while frontier:
        parent, t, gen, budget = frontier.pop(0)
        elem = (parent, str(gen), t)
        interp.add_element(elem, set(t))
        for s in index_for(tbox).superroles(gen):
            interp.add_role_edge(parent, s, elem)
        if budget == 0:
            continue
        for r, _rho, t2 in _anon_children(tbox, t, gen):
            frontier.append((elem, t2, r, budget - 1))
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
    breadth first, with their children per ``_anon_children``."""
    tg = TypeGraph(root=root)
    queue = list(starts)
    while queue:
        node = queue.pop(0)
        if node in tg.nodes:
            continue
        tg.nodes.add(node)
        tg.out[node] = [
            (r, rho, TGNode(t2, r))
            for r, rho, t2 in _anon_children(tbox, node.type, node.rin)
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
    """Unfold the subtree below an instance of `start` to the given depth."""
    interp = Interpretation()
    root = (start,)
    interp.add_element(root, set(start.type))
    frontier = [(root, start, depth)]
    while frontier:
        elem, node, budget = frontier.pop(0)
        if budget == 0:
            continue
        for i, (r, rho, child) in enumerate(tg.out[node]):
            celem = elem + ((i, child),)
            interp.add_element(celem, set(child.type))
            for s in rho:
                interp.add_role_edge(elem, s, celem)
            frontier.append((celem, child, budget - 1))
    return interp


def reachable_anon_classes(model: UniversalModel) -> TypeGraph:
    """All (incoming role, type) classes of anonymous elements of the
    universal model, presented as a rootless TypeGraph."""
    starts = [
        TGNode(t, r)
        for a in sorted(model.abox.individuals())
        for r in sorted(index_for(model.tbox).roles, key=str)
        for t in model.succ(a, r)
    ]
    return _unfold(model.tbox, None, starts)


def anonymous_component_match(model: UniversalModel, comp) -> bool:
    """Does a Boolean query component match entirely inside some anonymous
    subtree of the universal model?"""
    tg = model.anon_classes()
    m = max(1, len(comp.variables()))
    for node in tg.nodes:
        prefix = prefix_interpretation(tg, node, m)
        if reasoner.match_cq(comp, prefix):
            return True
    return False


# ---------------------------------------------------------------------------
# connected substructures


def _tree_order(interp: Interpretation, root):
    """Parent map of a weakly tree-shaped interpretation, rooted at root."""
    parent = {root: None}
    order = [root]
    frontier = [root]
    while frontier:
        x = frontier.pop()
        for _r, y in interp.role_neighbors(x):
            if y not in parent:
                parent[y] = x
                order.append(y)
                frontier.append(y)
    return parent, order


def enumerate_connected_substructures(
    interp: Interpretation, root, max_size: int
):
    """Connected induced substructures containing `root`, ≤ max_size
    elements, of a weakly tree-shaped interpretation."""
    parent, order = _tree_order(interp, root)
    children: dict = {e: [] for e in order}
    for e in order:
        if parent[e] is not None:
            children[parent[e]].append(e)

    results = []

    def grow(current: frozenset, candidates: tuple):
        results.append(current)
        if len(current) == max_size:
            return
        for i, c in enumerate(candidates):
            grow(
                current | {c},
                candidates[i + 1 :] + tuple(children[c]),
            )

    grow(frozenset([root]), tuple(children[root]))

    for subset in results:
        sub = Interpretation()
        for e in subset:
            sub.add_element(e, interp.labels.get(e, ()))
        sub.edges = {
            (a, r, b) for a, r, b in interp.edges if a in subset and b in subset
        }
        yield sub
