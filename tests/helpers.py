"""Brute-force oracles, random generators and printers shared by the
test suite.

Everything here is independent of the implementation strategy it
cross-checks: the model enumerator interprets normal-form axioms
directly over explicit finite structures, and the homomorphism
reference works on unfoldings element by element.  The co-Büchi game
solver that rescans every position, the liveness table computed
afresh per label position and the product's initial rows projected
label by label are the references for the automata code's faster
forms, and the whole-window substructure enumeration is the one for
the witness oracle's bounded form.  The edge rules written as scans
over the axioms (``ScanIndex``, ``chase_by_scan``) are the references
for ``ConsequenceIndex.pushes``.  ``TwinModel`` gives each named
successor an anonymous twin, the reference whose certain answers the
universal model without twins must give.  The printers turn parsed
inputs back into the surface syntax for round-trip tests.
"""

import itertools

from hornsep import entailment
from hornsep.automata import FALSE, TRUE, RegularTreeRep, f_and, is_atom
from hornsep.entailment import make_problem
from hornsep.models import (
    Interpretation,
    TypeGraph,
    UniversalModel,
    enumerate_connected_substructures,
    prefix_interpretation,
    stable_key,
    type_graph,
)
from hornsep.reasoner import BOT, ConsequenceIndex, index_for, maximal
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


# One model list per (names, size), and for each raw axiom the set of
# those models that satisfy it, as an int whose bit i stands for model
# i.  A TBox's models are the AND of its axioms' sets, so an axiom that
# many random TBoxes share is checked on every model once.
_MODELS = {}
_AXIOM_MODELS = {}


def _raw_axioms(tbox):
    """Each axiom of a parsed TBox as a one-axiom TBox."""
    yield from (TBox(cis=[ci]) for ci in tbox.cis)
    yield from (TBox(ris=[ri]) for ri in tbox.ris)
    yield from (TBox(fas={f}) for f in sorted(tbox.fas))


def satisfying_models(tbox, concepts, role_names, max_size):
    """The models of ``finite_models(concepts, role_names, max_size)``, in
    its order, that satisfy the parsed TBox (``model_satisfies_raw``)."""
    key = (tuple(sorted(concepts)), tuple(sorted(role_names)), max_size)
    if key not in _MODELS:
        _MODELS[key] = list(finite_models(*key))
    models = _MODELS[key]
    bits = (1 << len(models)) - 1
    for axiom in _raw_axioms(tbox):
        akey = (key, tuple(axiom.cis), tuple(axiom.ris), tuple(axiom.fas))
        if akey not in _AXIOM_MODELS:
            held = "".join("1" if model_satisfies_raw(m, axiom) else "0"
                           for m in reversed(models))
            _AXIOM_MODELS[akey] = int(held, 2)
        bits &= _AXIOM_MODELS[akey]
    held = bin(bits)[2:].zfill(len(models))[::-1]
    return [m for m, b in zip(models, held) if b == "1"]


class BruteForceReasoner:
    """Subsumption by exhaustive search over bounded finite models of a
    parsed (unnormalized) TBox; fresh names never enter the picture, so
    this is a route fully independent of the normalizer."""

    def __init__(self, tbox, concepts, role_names, max_size=3):
        self.models = satisfying_models(tbox, concepts, role_names, max_size)

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


class ScanIndex(ConsequenceIndex):
    """The edge rules as scans over the axioms with ``role_subsumes``:
    ``_apply`` scans the value restrictions and existentials per
    successor tuple, ``functional_superroles`` scans the functional
    roles, and ``pushes`` is A3's scan for its (premise, edge role)
    pairs, with the edge role fixed.  Reference for the tabled
    ``pushes`` that the saturation, the chase and A3 read."""

    def functional_superroles(self, r: Role) -> set:
        return {f for f in self.functional if self.role_subsumes(r, f)}

    def pushes(self, s: Role) -> list:
        out = []
        for ci in self.tbox.cis:
            if isinstance(ci, SubAll) and self.role_subsumes(s, ci.role):
                out.append((ci.sub, ci.sup, None))
            if isinstance(ci, SubEx):
                for f in self.functional:
                    if self.role_subsumes(ci.role, f) and self.role_subsumes(
                            s, f):
                        out.append((ci.sub, ci.sup, ci.role))
        return out

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

        for (r1, n1), (r2, n2) in itertools.combinations(list(ex), 2):
            shared = any(
                self.functional_superroles(a) & self.functional_superroles(b)
                for a in r1
                for b in r2
            )
            if shared:
                ex.add((r1 | r2, n1 | n2))

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
            for ci in self.alls:
                if ci.sub in cl_n and any(
                    self.role_subsumes(r.inverse(), ci.role) for r in rr
                ):
                    cl.add(ci.sup)
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


def chase_by_scan(tbox: NormalTBox, abox: ABox) -> tuple:
    """(types, consistent) of the chase with its edge rules as scans over
    the axioms and the functional roles with ``role_subsumes``, applied
    in place edge by edge, and the fork check likewise.  Reference for
    ``reasoner.chase``, which reads ``pushes`` and the closed edge-role
    sets."""
    idx = index_for(tbox)
    inds = sorted(abox.individuals())
    tp = {a: {c for c, x in abox.concept_assertions if x == a} for a in inds}
    edges: dict = {}
    for s, a, b in abox.role_assertions:
        for role in idx.superroles(Role(s)):
            edges.setdefault((a, b), set()).add(role)
            edges.setdefault((b, a), set()).add(role.inverse())

    changed = True
    while changed:
        changed = False
        for a in inds:
            closed = set(idx.closure(tp[a]))
            if closed - tp[a]:
                tp[a] |= closed
                changed = True
        for (b, a), roles in edges.items():
            for ci in idx.alls:
                if ci.sub in tp[b] and any(
                    idx.role_subsumes(r, ci.role) for r in roles
                ):
                    if ci.sup not in tp[a]:
                        tp[a].add(ci.sup)
                        changed = True
            for ci in idx.exs:
                if ci.sub not in tp[b]:
                    continue
                for f in idx.functional:
                    if idx.role_subsumes(ci.role, f) and any(
                        idx.role_subsumes(r, f) for r in roles
                    ):
                        if ci.sup not in tp[a]:
                            tp[a].add(ci.sup)
                            changed = True

    consistent = not any(BOT in tp[a] for a in inds)
    for f in idx.functional:
        targets: dict = {}
        for (a, b), roles in edges.items():
            if any(idx.role_subsumes(r, f) for r in roles):
                targets.setdefault(a, set()).add(b)
        if any(len(bs) > 1 for bs in targets.values()):
            consistent = False
    return tp, consistent


class TwinModel(UniversalModel):
    """The universal model with anonymous twins of named successors: an
    individual's anonymous r-children take the maximal types among the
    children table's r-entries for its type and the types of its named
    r-successors, per role in ``str`` order, and none along a functional
    r on which it has a named successor.  Reference for
    ``UniversalModel.children``, which reads the table alone."""

    def children(self, a) -> list:
        idx = index_for(self.tbox)
        tp = self.state.tp
        out = []
        for r in sorted(idx.roles, key=str):
            named = {b for (x, b), roles in self.state.edges.items()
                     if x == a and r in roles}
            if r in idx.functional and named:
                continue
            types = {t for r0, _rho, t in idx.children(tp[a] - {BOT})
                     if r0 == r} | {frozenset(tp[b]) - {BOT} for b in named}
            out += [(r, idx.superroles(r), t)
                    for t in sorted(maximal(types), key=sorted)]
        return out


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


def substructures_by_whole_window(interp: Interpretation, root, max_size):
    """The reference for ``models.enumerate_connected_substructures``:
    a depth-first tree order over the whole interpretation, which scans
    every edge for each element's neighbours and visits them sorted by
    ``stable_key``, then the same growth of connected sets from the root,
    each substructure's edges picked from all edges.  Returns a list."""

    def neighbors(x):
        for a, r, b in interp.edges:
            if a == x:
                yield stable_key(b), r, b
            if b == x:
                yield stable_key(a), "-" + r, a

    parent = {root: None}
    order = [root]
    frontier = [root]
    while frontier:
        x = frontier.pop()
        for _k, _r, y in sorted(neighbors(x), key=lambda n: n[:2]):
            if y not in parent:
                parent[y] = x
                order.append(y)
                frontier.append(y)
    children = {e: [] for e in order}
    for e in order:
        if parent[e] is not None:
            children[parent[e]].append(e)

    results = []

    def grow(current: frozenset, candidates: tuple):
        results.append(current)
        if len(current) == max_size:
            return
        for i, c in enumerate(candidates):
            grow(current | {c}, candidates[i + 1:] + tuple(children[c]))

    grow(frozenset([root]), tuple(children[root]))
    subs = []
    for subset in results:
        sub = Interpretation()
        for e in subset:
            sub.add_element(e, interp.labels.get(e, ()))
        sub.edges = {
            (a, r, b) for a, r, b in interp.edges if a in subset and b in subset
        }
        subs.append(sub)
    return subs


def oracle_candidates_by_whole_window(t1, t2, sigA, sigQ, max_ind, max_vars,
                                      mode="cq"):
    """The (query text, answer) candidates that
    ``entailment.oracle_witness_search`` asks of the first TBox's models
    when none of them is a witness, in order, with every window's
    substructures enumerated by ``substructures_by_whole_window``."""
    from hornsep import entailment, models
    from hornsep.syntax import cq_to_text

    out = []
    for abox in entailment.enumerate_tree_aboxes(sigA, max_ind):
        m1 = models.UniversalModel(t1, abox)
        m2 = models.UniversalModel(t2, abox)
        if not (m1.consistent and m2.consistent):
            continue
        window = entailment._sigma_reduct(m2.window(max_vars), sigQ)
        tried = set()
        for top in sorted(window.elements, key=stable_key):
            for sub in substructures_by_whole_window(window, top, max_vars):
                for q, ans in entailment._queries_from_sub(
                    sub, window.individuals, mode
                ):
                    key = (cq_to_text(q), ans)
                    if key not in tried:
                        tried.add(key)
                        out.append(key)
    return out


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


def random_horn_tbox_text(rng, concepts, roles, max_axioms) -> str:
    """Random Horn-ALCHIF-bot TBox text of 1..max_axioms axioms: the kinds
    of ``random_tbox_text`` plus value restrictions, functionality and
    bottom, with an inverse role in any role position, role inclusions
    included.  The kinds the edge rules read (existentials, value
    restrictions, functionality) are twice as likely as the others."""
    kinds = ["cc", "exc", "conj", "ri", "bot"] + ["cex", "only", "func"] * 2
    c = lambda: rng.choice(concepts)  # noqa: E731

    def role():
        r = rng.choice(roles)
        return f"inv({r})" if rng.random() < 0.4 else r

    lines = []
    for _ in range(rng.randint(1, max_axioms)):
        kind = rng.choice(kinds)
        if kind == "cc":
            lines.append(f"{c()} sub {c()}")
        elif kind == "conj":
            lines.append(f"{c()} and {c()} sub {c()}")
        elif kind == "cex":
            lines.append(f"{c()} sub some {role()} {c()}")
        elif kind == "exc":
            lines.append(f"some {role()} {c()} sub {c()}")
        elif kind == "only":
            lines.append(f"{c()} sub only {role()} {c()}")
        elif kind == "ri":
            lines.append(f"{rng.choice(roles)} subr {role()}")
        elif kind == "func":
            lines.append(f"func({role()})")
        else:
            lines.append(f"{c()} sub bot")
    return "\n".join(lines)


def random_abox(rng, concepts, roles, individuals) -> ABox:
    """Random ABox of 0-3 concept and 1-3 role assertions over the names,
    forks and self-loops included."""
    a = ABox()
    for _ in range(rng.randint(0, 3)):
        a.concept_assertions.add((rng.choice(concepts),
                                  rng.choice(individuals)))
    for _ in range(rng.randint(1, 3)):
        a.role_assertions.add((rng.choice(roles), rng.choice(individuals),
                               rng.choice(individuals)))
    return a


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


def decoded_witness(p, cert, sim=False):
    """The witness that a ``cq`` decision (with ``sim``, a ``1tcq`` one)
    finds on the ABox a pipeline certificate spells out, or None: the
    search ``_decide_queries`` runs after the pipeline refutes."""
    return entailment._scan_witnesses(
        p.t1, p.t2, p.sigQ, [entailment.certificate_abox(cert)],
        entailment.TARGETED_BOUNDS[1], "1tcq" if sim else "cq")[0]


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
# game, liveness and guard-table references


def attractor_by_rescans(info, target, player):
    attr = set(target)
    changed = True
    while changed:
        changed = False
        for p, (owner, _pr, moves) in info.items():
            if p in attr or not moves:
                continue
            if owner == player:
                ok = any(m in attr for m in moves)
            else:
                ok = all(m in attr for m in moves)
            if ok:
                attr.add(p)
                changed = True
    return attr


def solve_cobuchi_by_rescans(info, start) -> bool:
    """Winner of the parity game with priorities {0,1} from start, for
    the player satisfying 'priority 1 only finitely often': the reference
    for ``automata._solve_cobuchi``.  ``info`` maps each position to
    (owner, priority, moves).  Every attractor step and every step of
    the priority-0 greatest fixpoint rescans all positions."""
    # positions where the mover is stuck lose for the mover
    t0 = {p for p, (o, _pr, mv) in info.items() if o == 1 and not mv}
    w0 = attractor_by_rescans(info, t0, 0)
    while True:
        # region where player 0 can stay on priority 0 forever (or
        # escape into the already-won region)
        y = {
            p
            for p, (o, pr, mv) in info.items()
            if p not in w0 and pr == 0 and mv
        }
        changed = True
        while changed:
            changed = False
            for p in list(y):
                owner, _pr, moves = info[p]
                good = y | w0
                ok = (
                    any(m in good for m in moves)
                    if owner == 0
                    else all(m in good for m in moves)
                )
                if not ok:
                    y.discard(p)
                    changed = True
        new_w0 = attractor_by_rescans(info, y | w0, 0)
        if new_w0 == w0:
            return start in w0
        w0 = new_w0


def live_assignments_by_position(search, live, q, i, is_root):
    """The reference for ``automata._DemandSearch.live_assignments``: the
    greatest fixpoint of liveness, tabled per label position and root
    flag in ``live`` (one dict per search) and computed afresh for each
    position, over q's here-closure less the states already tabled."""
    tab = live.setdefault((i, is_root), {})
    hit = tab.get(q)
    if hit is None:
        cand, todo = {}, [q]
        while todo:
            p = todo.pop()
            if p in cand or p in tab:
                continue
            cand[p] = c = [
                a for a in search.assignments(p, search.table(p)[1][i])
                if not (is_root and any(t[0] == "up!" for t in a))]
            todo.extend(t[-1] for a in c for t in a if t[0] == "here")
        changed = True
        while changed:
            changed = False
            for p, c in reversed(cand.items()):
                keep = [a for a in c if all(
                    t[0] != "here" or cand.get(t[-1], tab.get(t[-1]))
                    for t in a)]
                if len(keep) < len(c):
                    cand[p], changed = keep, True
        tab.update((p, tuple(c)) for p, c in cand.items())
        hit = tab[q]
    return hit


def initial_classes_by_label(prod):
    """The reference for ``TwoWayAutomaton.classes`` of a product's
    initial state: every label projected through the rules of the
    states it conjoins (``parts``), one row per tuple of their guard keys
    in the order the labels first reach them, and each part's formula
    built once per guard key of that part."""
    starts = [prod.rules[p] for p in prod.rules[prod.initial].parts]
    built, rows, row_of, of = {}, [], {}, []
    for label in prod.position:
        keys = tuple(r.project(label) for r in starts)
        row = row_of.get(keys)
        if row is None:
            for i, key in enumerate(keys):
                if (i, key) not in built:
                    built[i, key] = starts[i].build(label)
            row = row_of[keys] = len(rows)
            rows.append((keys, f_and(*(built[i, key]
                                       for i, key in enumerate(keys)))))
        of.append(row)
    return rows, of


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
