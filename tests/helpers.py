"""Brute-force oracles, random generators and printers shared by the
test suite.

Everything here is independent of the implementation strategy it
cross-checks: the model enumerator interprets normal-form axioms
directly over explicit finite structures, and the homomorphism
reference works on unfoldings element by element.  The printers turn
parsed inputs back into the surface syntax for round-trip tests.
"""

import itertools

from hornsep.automata import FALSE, TRUE, RegularTreeRep, is_atom
from hornsep.entailment import make_problem
from hornsep.models import (
    Interpretation,
    TypeGraph,
    enumerate_connected_substructures,
    prefix_interpretation,
    stable_key,
    type_graph,
)
from hornsep.reasoner import BOT, ConsequenceIndex, index_for
from hornsep.syntax import (
    ABox,
    ConjSub,
    NormalTBox,
    Role,
    Signature,
    SubAll,
    SubBot,
    SubEx,
    TBox,
    TopSub,
    _wrap,
    parse_signature,
    parse_tbox,
)


# ---------------------------------------------------------------------------
# finite model enumeration


class FiniteModel:
    __slots__ = ("size", "labels", "edges")

    def __init__(self, size, labels, edges):
        self.size = size
        self.labels = labels  # element -> frozenset of concept names
        self.edges = edges  # role name -> frozenset of (x, y)

    def succ(self, x, role: Role):
        pairs = self.edges.get(role.name, frozenset())
        if role.inverted:
            return [a for a, b in pairs if b == x]
        return [b for a, b in pairs if a == x]

    def pairs(self, role: Role):
        pairs = self.edges.get(role.name, frozenset())
        if role.inverted:
            return {(b, a) for a, b in pairs}
        return set(pairs)


def finite_models(concepts, role_names, max_size):
    """Every interpretation with 1..max_size elements over the names."""
    concepts = sorted(concepts)
    role_names = sorted(role_names)
    label_choices = [
        frozenset(s)
        for k in range(len(concepts) + 1)
        for s in itertools.combinations(concepts, k)
    ]
    for size in range(1, max_size + 1):
        elems = list(range(size))
        all_pairs = [(x, y) for x in elems for y in elems]
        pair_sets = [
            frozenset(s)
            for k in range(len(all_pairs) + 1)
            for s in itertools.combinations(all_pairs, k)
        ]
        for labeling in itertools.product(label_choices, repeat=size):
            labels = dict(zip(elems, labeling))
            for rels in itertools.product(pair_sets, repeat=len(role_names)):
                yield FiniteModel(size, labels, dict(zip(role_names, rels)))


def concept_extension(c, m: FiniteModel) -> set:
    from hornsep.syntax import And, Bot, Exists, Forall, Name, Top

    if isinstance(c, Top):
        return set(range(m.size))
    if isinstance(c, Bot):
        return set()
    if isinstance(c, Name):
        return {x for x in range(m.size) if c.name in m.labels[x]}
    if isinstance(c, And):
        return concept_extension(c.left, m) & concept_extension(c.right, m)
    inner = concept_extension(c.arg, m)
    if isinstance(c, Exists):
        return {
            x
            for x in range(m.size)
            if any(y in inner for y in m.succ(x, c.role))
        }
    if isinstance(c, Forall):
        return {
            x
            for x in range(m.size)
            if all(y in inner for y in m.succ(x, c.role))
        }
    raise TypeError(f"unsupported concept {c!r}")


def model_satisfies_raw(m: FiniteModel, tbox) -> bool:
    """Direct satisfaction of a parsed (unnormalized) TBox."""
    for left, right in tbox.cis:
        if not concept_extension(left, m) <= concept_extension(right, m):
            return False
    for r, s in tbox.ris:
        if not m.pairs(r) <= m.pairs(s):
            return False
    for f in tbox.fas:
        if any(len(m.succ(x, f)) > 1 for x in range(m.size)):
            return False
    return True


def model_satisfies(m: FiniteModel, ntbox) -> bool:
    for ci in ntbox.cis:
        if isinstance(ci, TopSub):
            if any(ci.sup not in m.labels[x] for x in range(m.size)):
                return False
        elif isinstance(ci, SubBot):
            if any(ci.sub in m.labels[x] for x in range(m.size)):
                return False
        elif isinstance(ci, ConjSub):
            for x in range(m.size):
                if (
                    ci.sub1 in m.labels[x]
                    and ci.sub2 in m.labels[x]
                    and ci.sup not in m.labels[x]
                ):
                    return False
        elif isinstance(ci, SubEx):
            for x in range(m.size):
                if ci.sub in m.labels[x] and not any(
                    ci.sup in m.labels[y] for y in m.succ(x, ci.role)
                ):
                    return False
        elif isinstance(ci, SubAll):
            for x in range(m.size):
                if ci.sub in m.labels[x] and any(
                    ci.sup not in m.labels[y] for y in m.succ(x, ci.role)
                ):
                    return False
    for r, s in ntbox.ris:
        if not m.pairs(r) <= m.pairs(s):
            return False
    for f in ntbox.fas:
        for x in range(m.size):
            if len(m.succ(x, f)) > 1:
                return False
    return True


class BruteForceReasoner:
    """Subsumption by exhaustive search over bounded finite models of a
    parsed (unnormalized) TBox; fresh names never enter the picture, so
    this is a route fully independent of the normalizer."""

    def __init__(self, tbox, concepts, role_names, max_size=3):
        self.models = [
            m
            for m in finite_models(concepts, role_names, max_size)
            if model_satisfies_raw(m, tbox)
        ]

    def subsumes(self, t, a: str) -> bool:
        t = frozenset(t)
        for m in self.models:
            for x in range(m.size):
                if t <= m.labels[x] and a not in m.labels[x]:
                    return False
        return True


class FullSweepIndex(ConsequenceIndex):
    """The saturation without a worklist: every registration re-applies
    the rules to every registered context until none changes.  Reference
    for ``ConsequenceIndex.register``, which applies them only to the
    contexts a registration can change."""

    def register(self, seed) -> frozenset:
        m = frozenset(seed)
        if m not in self.cl:
            self.cl[m] = set(m)
            self.ex[m] = set()
            self.concept_universe |= m
            changed = True
            while changed:
                changed = False
                for k in list(self.cl):
                    if self._apply(k, []):
                        changed = True
        return m


def closed_sets_by_subsets(tbox: NormalTBox, universe) -> list:
    """Every consistent closure of a subset of the universe, found by
    closing all 2^n subsets, in (size, names) order.  Reference for the
    closed sets ``automata.build_label_context`` enumerates."""
    idx = index_for(tbox)
    out = set()
    names = sorted(universe)
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            cl = idx.closure(combo)
            if BOT not in cl:
                out.add(frozenset(cl))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def derivation_sets_by_subsets(tbox: NormalTBox, universe, a: str) -> list:
    """Minimal consistent S with a in the closure of S and a not in S,
    found by scanning the subsets of the other names by size and then in
    name order.  Reference for A3's derivation sets."""
    idx = index_for(tbox)
    names = sorted(set(universe) - {a})
    found = []
    for k in range(len(names) + 1):
        for combo in itertools.combinations(names, k):
            s = frozenset(combo)
            if any(t <= s for t in found):
                continue
            cl = idx.closure(s)
            if BOT not in cl and a in cl:
                found.append(s)
    return found


# ---------------------------------------------------------------------------
# bounded homomorphism reference


def _hom_search(src: Interpretation, tgt: Interpretation, sig: Signature):
    """Backtracking search for a sig-homomorphism between finite
    interpretations."""
    elems = sorted(src.elements, key=stable_key)
    conc = sig.concepts
    roles = sig.roles

    def label_ok(x, d):
        return {c for c in src.labels.get(x, ()) if c in conc} <= tgt.labels.get(d, set())

    def edges_ok(assign, x, d):
        for a, r, b in src.edges:
            if r not in roles:
                continue
            if a == x and b in assign and (d, r, assign[b]) not in tgt.edges:
                return False
            if b == x and a in assign and (assign[a], r, d) not in tgt.edges:
                return False
            if a == x and b == x and (d, r, d) not in tgt.edges:
                return False
        return True

    def extend(i, assign):
        if i == len(elems):
            return True
        x = elems[i]
        for d in tgt.elements:
            if label_ok(x, d) and edges_ok(assign, x, d):
                assign[x] = d
                if extend(i + 1, assign):
                    return True
                del assign[x]
        return False

    return extend(0, {})


def hom_into_regular(src: Interpretation, tgt: TypeGraph, sig: Signature) -> bool:
    """Does a sig-homomorphism from the finite weakly tree-shaped src into
    the unfolding of tgt exist?  Every node is tried as the topmost image;
    this is exhaustive because the shallowest image element of any
    homomorphism is unique and everything else lies in its subtree."""
    n = max(1, len(src.elements))
    for node in tgt.nodes:
        prefix = prefix_interpretation(tgt, node, n)
        if _hom_search(src, prefix, sig):
            return True
    return False


def n_bounded_hom_oracle(
    src: TypeGraph, tgt: TypeGraph, sig: Signature, n: int
) -> bool:
    """Brute-force check of src-unfolding →ⁿ_sig tgt-unfolding.

    Every connected ≤n-element substructure of the unfolding repeats node
    classes when taken deep, so trying each node as the substructure's
    shallowest element is exhaustive.
    """
    if n <= 0:
        return True
    for node in src.nodes:
        prefix = prefix_interpretation(src, node, n)
        for sub in enumerate_connected_substructures(prefix, (node,), n):
            if not hom_into_regular(sub, tgt, sig):
                return False
    return True


def con_sigma_view(tg: TypeGraph, sig) -> TypeGraph:
    """The part of a rooted type graph reachable through signature roles,
    with non-signature edges dropped."""

    def keep(rho):
        return any(s.name in sig.roles for s in rho)

    view = TypeGraph(root=tg.root)
    queue = [tg.root]
    while queue:
        node = queue.pop()
        if node in view.nodes:
            continue
        view.nodes.add(node)
        succs = [e for e in tg.out[node] if keep(e[1])]
        view.out[node] = succs
        for _r, _rho, child in succs:
            queue.append(child)
    return view


def fin_hom_reference(tb1, t1, tb2, t2, sig, n: int) -> bool:
    """Does every connected <= n element piece of the signature part of
    the canonical model of (tb2, t2) map into the canonical model of
    (tb1, t1)?  The reference for the mosaic procedure."""
    src = con_sigma_view(type_graph(tb2, frozenset(t2)), sig)
    tgt = type_graph(tb1, frozenset(t1))
    return n_bounded_hom_oracle(src, tgt, sig, n)


# ---------------------------------------------------------------------------
# random inputs


def random_tbox_text(rng, concepts, roles, max_axioms) -> str:
    """Random ELHIF-bot TBox text over the given name pools."""
    lines = []
    kinds = ["cc", "cex", "exc", "conj"] + (["ri"] if roles else [])
    for _ in range(rng.randint(0, max_axioms)):
        kind = rng.choice(kinds)
        c = lambda: rng.choice(concepts)  # noqa: E731
        if kind == "ri":
            r1, r2 = rng.choice(roles), rng.choice(roles)
            tgt = f"inv({r2})" if rng.random() < 0.3 else r2
            lines.append(f"{r1} subr {tgt}")
            continue
        if not roles and kind in ("cex", "exc"):
            kind = "cc"
        if kind == "cc":
            lines.append(f"{c()} sub {c()}")
        elif kind == "conj":
            lines.append(f"{c()} and {c()} sub {c()}")
        else:
            r = rng.choice(roles)
            rr = f"inv({r})" if rng.random() < 0.4 else r
            if kind == "cex":
                lines.append(f"{c()} sub some {rr} {c()}")
            else:
                lines.append(f"some {rr} {c()} sub {c()}")
    return "\n".join(lines)


def criterion6_problem(rng):
    """One random tiny problem of acceptance criterion 6: one or two
    concepts and roles, up to three axioms per TBox, and one signature
    for ABoxes and queries.  Returns the two TBox texts and the problem."""
    concepts = ["A", "B"][: rng.randint(1, 2)]
    roles = ["r", "s"][: rng.randint(1, 2)]
    t1 = random_tbox_text(rng, concepts, roles, 3)
    t2 = random_tbox_text(rng, concepts, roles, 3)
    sig = parse_signature(
        "concepts: " + " ".join(concepts) + "\nroles: " + " ".join(roles)
    )
    return t1, t2, make_problem(parse_tbox(t1), parse_tbox(t2), sig, sig)


def chain_problem(n):
    """The concept chain of length n: T1 is ``C0 sub C1 … sub Cn``, T2
    adds ``C0 sub some r C1``; ABoxes speak of C0 and r, queries of Cn
    and r.  Under T2 a C0 individual has an anonymous r-successor in
    C1..Cn, so "r(x, y), Cn(y)" separates the TBoxes for every n."""
    t1 = "\n".join(f"C{i} sub C{i + 1}" for i in range(n))
    return make_problem(
        parse_tbox(t1),
        parse_tbox(t1 + "\nC0 sub some r C1"),
        parse_signature("concepts: C0\nroles: r"),
        parse_signature(f"concepts: C{n}\nroles: r"),
    )


def random_regular_tree(rng, labels, max_nodes):
    """A random regular tree representation over the given labels: every
    node gets 0-2 children drawn from the node pool, so back edges and
    infinite branches occur naturally."""
    n = rng.randint(1, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    lab = {nid: rng.choice(labels) for nid in ids}
    children = {}
    for nid in ids:
        kids = rng.sample(ids, rng.randint(0, min(2, n)))
        children[nid] = kids
    return RegularTreeRep(lab, children, ids[0])


def small_trees(labels, max_nodes):
    """Every regular tree representation, up to node names and child
    order, with at most ``max_nodes`` nodes over the given labels and at
    most 2 distinct children per node.  A child is a fresh node or a back
    edge to the node itself or one of its ancestors, which unfolds into
    an infinite branch.  Isomorphic copies are not filtered out."""
    for n in range(1, max_nodes + 1):
        ids = [f"n{i}" for i in range(n)]
        for parents in itertools.product(*(range(i) for i in range(1, n))):
            parent = dict(zip(range(1, n), parents))
            kids = [[j for j in parent if parent[j] == i] for i in range(n)]
            if any(len(k) > 2 for k in kids):
                continue
            back_opts = []
            for i in range(n):
                up = [i]
                while up[-1] in parent:
                    up.append(parent[up[-1]])
                room = 2 - len(kids[i])
                back_opts.append([
                    combo
                    for k in range(room + 1)
                    for combo in itertools.combinations(sorted(up), k)
                ])
            for backs in itertools.product(*back_opts):
                children = {
                    ids[i]: [ids[c] for c in kids[i] + list(backs[i])]
                    for i in range(n)
                }
                for labs in itertools.product(labels, repeat=n):
                    yield RegularTreeRep(dict(zip(ids, labs)), children,
                                         ids[0])


# ---------------------------------------------------------------------------
# formulas, shapes and printers


def eval_formula(f, val) -> bool:
    """Evaluate a transition formula under a truth assignment
    ``val: atom -> bool``."""
    if f == TRUE:
        return True
    if f == FALSE:
        return False
    if is_atom(f):
        return bool(val(f))
    if f[0] == "and":
        return all(eval_formula(p, val) for p in f[1])
    return any(eval_formula(p, val) for p in f[1])


def abox_tree_shaped(a: ABox) -> bool:
    edges = set()
    for r, x, y in a.role_assertions:
        if x == y:
            return False
        if (x, y) in edges or (y, x) in edges:
            return False  # multi-edge
        edges.add((x, y))
    und = {frozenset((x, y)) for x, y in edges}
    inds = a.individuals()
    if not inds:
        return True
    if len(und) != len(inds) - 1:
        return False
    # connectivity
    adj: dict = {i: set() for i in inds}
    for e in und:
        x, y = tuple(e)
        adj[x].add(y)
        adj[y].add(x)
    seen = set()
    stack = [next(iter(inds))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == inds


def normal_ci_to_text(ci) -> str:
    if isinstance(ci, TopSub):
        return f"top sub {ci.sup}"
    if isinstance(ci, SubBot):
        return f"{ci.sub} sub bot"
    if isinstance(ci, ConjSub):
        return f"{ci.sub1} and {ci.sub2} sub {ci.sup}"
    if isinstance(ci, SubEx):
        return f"{ci.sub} sub some {ci.role} {ci.sup}"
    if isinstance(ci, SubAll):
        return f"{ci.sub} sub only {ci.role} {ci.sup}"
    raise TypeError(ci)


def normal_tbox_to_text(t: NormalTBox) -> str:
    lines = [normal_ci_to_text(ci) for ci in t.cis]
    lines += [f"{r} subr {s}" for r, s in t.ris]
    lines += [f"func({r})" for r in sorted(t.fas)]
    return "\n".join(lines) + ("\n" if lines else "")


def tbox_to_text(t: TBox) -> str:
    lines = [f"{_wrap(l)} sub {_wrap(r)}" for l, r in t.cis]
    lines += [f"{r} subr {s}" for r, s in t.ris]
    lines += [f"func({r})" for r in sorted(t.fas)]
    return "\n".join(lines) + ("\n" if lines else "")


def abox_to_text(a: ABox) -> str:
    lines = [f"{c}({i})" for c, i in sorted(a.concept_assertions)]
    lines += [f"{r}({x},{y})" for r, x, y in sorted(a.role_assertions)]
    return "\n".join(lines) + ("\n" if lines else "")


def signature_to_text(s: Signature) -> str:
    lines = []
    if s.concepts:
        lines.append("concepts: " + ",".join(sorted(s.concepts)))
    if s.roles:
        lines.append("roles: " + ",".join(sorted(s.roles)))
    return "\n".join(lines) + ("\n" if lines else "")
