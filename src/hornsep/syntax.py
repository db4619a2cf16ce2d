"""Textual syntax, abstract syntax trees, and the five-shape normal form.

The surface language is deliberately small.  One statement per line,
``#`` starts a comment that runs to the end of the line:

    concepts    top | bot | NAME | C and C | some r C | only r C
    roles       NAME | inv(NAME)
    statements  C sub C  |  r subr s  |  func(r)
    ABox        A(a)  |  r(a,b)
    CQ          q(x1,...,xn) <- atom, atom, ...
    signatures  concepts: A, B    /    roles: r, s

Parentheses around concepts are accepted for grouping.  ``some`` and
``only`` bind a single following concept, so ``some r A and B`` reads as
``(some r A) and B``.
"""

from __future__ import annotations

import hashlib
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union


class HornsepError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HornsepError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, column {col}: {message}" if line else message)
        self.line = line
        self.col = col


class ProfileError(HornsepError):
    """Input falls outside the supported (Horn) grammar or requested profile."""


class ResourceLimitError(HornsepError):
    """A construction or search step exceeded one of its configured caps."""


# ---------------------------------------------------------------------------
# roles and concepts


@dataclass(frozen=True, order=True)
class Role:
    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return f"inv({self.name})" if self.inverted else self.name


class Concept:
    __slots__ = ()


@dataclass(frozen=True)
class Top(Concept):
    def __str__(self):
        return "top"


@dataclass(frozen=True)
class Bot(Concept):
    def __str__(self):
        return "bot"


@dataclass(frozen=True)
class Name(Concept):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class And(Concept):
    left: Concept
    right: Concept

    def __str__(self):
        return f"{_wrap(self.left)} and {_wrap(self.right)}"


@dataclass(frozen=True)
class Exists(Concept):
    role: Role
    arg: Concept

    def __str__(self):
        return f"some {self.role} {_wrap(self.arg)}"


@dataclass(frozen=True)
class Forall(Concept):
    role: Role
    arg: Concept

    def __str__(self):
        return f"only {self.role} {_wrap(self.arg)}"


def _wrap(c: Concept) -> str:
    # parenthesize 'and' arguments so printing round-trips through the parser
    if isinstance(c, And):
        return f"({c})"
    return str(c)


# ---------------------------------------------------------------------------
# TBox / normal form


@dataclass
class TBox:
    cis: list = field(default_factory=list)  # list[(Concept, Concept)]
    ris: list = field(default_factory=list)  # list[(Role, Role)]
    fas: set = field(default_factory=set)  # set[Role]

    def concept_names(self) -> set:
        out = set()
        for l, r in self.cis:
            out |= _concept_names(l) | _concept_names(r)
        return out

    def role_names(self) -> set:
        out = set()
        for l, r in self.cis:
            out |= _role_names(l) | _role_names(r)
        for r, s in self.ris:
            out.add(r.name)
            out.add(s.name)
        for r in self.fas:
            out.add(r.name)
        return out


def _concept_names(c: Concept) -> set:
    if isinstance(c, Name):
        return {c.name}
    if isinstance(c, And):
        return _concept_names(c.left) | _concept_names(c.right)
    if isinstance(c, (Exists, Forall)):
        return _concept_names(c.arg)
    return set()


def _role_names(c: Concept) -> set:
    if isinstance(c, And):
        return _role_names(c.left) | _role_names(c.right)
    if isinstance(c, (Exists, Forall)):
        return {c.role.name} | _role_names(c.arg)
    return set()


# Normal-form concept inclusions.  Exactly the five shapes.


@dataclass(frozen=True, order=True)
class TopSub:  # top sub A
    sup: str


@dataclass(frozen=True, order=True)
class SubBot:  # A sub bot
    sub: str


@dataclass(frozen=True, order=True)
class ConjSub:  # A1 and A2 sub B
    sub1: str
    sub2: str
    sup: str


@dataclass(frozen=True, order=True)
class SubEx:  # A sub some r B
    sub: str
    role: Role
    sup: str


@dataclass(frozen=True, order=True)
class SubAll:  # A sub only r B
    sub: str
    role: Role
    sup: str


NormalCI = Union[TopSub, SubBot, ConjSub, SubEx, SubAll]


@dataclass
class NormalTBox:
    cis: list = field(default_factory=list)  # list[NormalCI], deduplicated
    ris: list = field(default_factory=list)
    fas: set = field(default_factory=set)
    fresh: dict = field(default_factory=dict)  # fresh name -> printed source concept

    def concept_names(self) -> set:
        out = set()
        for ci in self.cis:
            if isinstance(ci, TopSub):
                out.add(ci.sup)
            elif isinstance(ci, SubBot):
                out.add(ci.sub)
            elif isinstance(ci, ConjSub):
                out |= {ci.sub1, ci.sub2, ci.sup}
            else:
                out |= {ci.sub, ci.sup}
        return out

    def role_names(self) -> set:
        out = set()
        for ci in self.cis:
            if isinstance(ci, (SubEx, SubAll)):
                out.add(ci.role.name)
        for r, s in self.ris:
            out.add(r.name)
            out.add(s.name)
        for r in self.fas:
            out.add(r.name)
        return out

    def roles(self) -> set:
        """All roles of the TBox together with their inverses."""
        out = set()
        for n in self.role_names():
            out.add(Role(n))
            out.add(Role(n, True))
        return out


def check_functional_subroles(ris: Iterable, fas: Iterable) -> list:
    """Return the (r, s) pairs where s is asserted functional and r subr s.

    The restriction is advisory; callers emit a warning instead of failing,
    since reasonable inputs (role hierarchies feeding an inverse-functional
    role) trip it.
    """
    closed = set()
    for r, s in ris:
        closed.add((r, s))
        closed.add((r.inverse(), s.inverse()))
    fas = set(fas)
    return sorted((r, s) for r, s in closed if s in fas)


class _Normalizer:
    def __init__(self, tbox: TBox):
        self.source_names = tbox.concept_names()
        self.out: list = []
        self.seen: set = set()
        self.fresh: dict = {}

    def emit(self, ci: NormalCI):
        if ci not in self.seen:
            self.seen.add(ci)
            self.out.append(ci)

    def fresh_name(self, source: Concept) -> str:
        key = str(source)
        digest = hashlib.sha1(key.encode()).hexdigest()
        for k in range(8, len(digest) + 1):
            cand = "X" + digest[:k]
            if cand in self.source_names:
                continue
            if cand in self.fresh and self.fresh[cand] != key:
                continue
            self.fresh[cand] = key
            return cand
        raise AssertionError("unreachable: hash exhausted")

    # -- left-hand sides ---------------------------------------------------

    def left_conjuncts(self, c: Concept) -> Optional[list]:
        """Flatten a left side into concept names, emitting helper axioms.
        Returns None when the inclusion is vacuous (left side bot)."""
        if isinstance(c, And):
            l = self.left_conjuncts(c.left)
            r = self.left_conjuncts(c.right)
            if l is None or r is None:
                return None
            return l + r
        if isinstance(c, Top):
            return []
        if isinstance(c, Bot):
            return None
        if isinstance(c, Name):
            return [c.name]
        if isinstance(c, Exists):
            inner = self.left_conjuncts(c.arg)
            if inner is None:
                return None
            d = self.conj_to_name(inner, c.arg)
            x = self.fresh_name(c)
            # some r D sub X  ==  D sub only inv(r) X
            self.emit(SubAll(d, c.role.inverse(), x))
            return [x]
        raise ProfileError(f"concept not allowed on the left of an inclusion: {c}")

    def conj_to_name(self, names: list, source: Concept) -> str:
        if not names:
            x = self.fresh_name(Top())
            self.emit(TopSub(x))
            return x
        if len(names) == 1:
            return names[0]
        acc = names[0]
        for i, nxt in enumerate(names[1:]):
            x = self.fresh_name(And(Name(acc), Name(nxt)))
            self.emit(ConjSub(acc, nxt, x))
            acc = x
        return acc

    # -- right-hand sides --------------------------------------------------

    def right_name(self, c: Concept) -> str:
        """A name B with B sub C emitted, for use under quantifiers."""
        if isinstance(c, Name):
            return c.name
        x = self.fresh_name(c)
        if isinstance(c, Top):
            return x  # unconstrained fresh name is enough
        self.right_side(x, c)
        return x

    def right_side(self, a: str, c: Concept):
        """Emit axioms for the inclusion a sub C."""
        if isinstance(c, Top):
            return
        if isinstance(c, Bot):
            self.emit(SubBot(a))
            return
        if isinstance(c, Name):
            self.emit(ConjSub(a, a, c.name))
            return
        if isinstance(c, And):
            self.right_side(a, c.left)
            self.right_side(a, c.right)
            return
        if isinstance(c, Exists):
            self.emit(SubEx(a, c.role, self.right_name(c.arg)))
            return
        if isinstance(c, Forall):
            self.emit(SubAll(a, c.role, self.right_name(c.arg)))
            return
        raise ProfileError(f"unsupported concept: {c}")

    def process_ci(self, left: Concept, right: Concept):
        # keep the printed top sub A shape when it is already there
        if isinstance(left, Top) and isinstance(right, Name):
            self.emit(TopSub(right.name))
            return
        names = self.left_conjuncts(left)
        if names is None:
            return
        if len(names) == 2 and isinstance(right, Name):
            self.emit(ConjSub(names[0], names[1], right.name))
            return
        a = self.conj_to_name(names, left)
        self.right_side(a, right)


def normalize(tbox: TBox) -> NormalTBox:
    """Convert to the five-shape normal form.

    The result entails the input over the source signature and every model
    of the input extends to one of the result by interpreting fresh names.
    """
    n = _Normalizer(tbox)
    for left, right in tbox.cis:
        n.process_ci(left, right)
    bad = check_functional_subroles(tbox.ris, tbox.fas)
    for r, s in bad:
        warnings.warn(
            f"functional role {s} has subrole {r}; "
            "results for such TBoxes are conjectural",
            stacklevel=2,
        )
    return NormalTBox(
        cis=n.out,
        ris=list(tbox.ris),
        fas=set(tbox.fas),
        fresh=dict(n.fresh),
    )


def is_eli_concept(c: Concept) -> bool:
    if isinstance(c, (Top, Bot, Name)):
        return True
    if isinstance(c, And):
        return is_eli_concept(c.left) and is_eli_concept(c.right)
    if isinstance(c, Exists):
        return is_eli_concept(c.arg)
    return False


def is_elhifbot(t: TBox) -> bool:
    """True when every CI uses only ELI⊥ concepts on both sides."""
    return all(is_eli_concept(l) and is_eli_concept(r) for l, r in t.cis)


# ---------------------------------------------------------------------------
# ABoxes


@dataclass
class ABox:
    concept_assertions: set = field(default_factory=set)  # {(A, a)}
    role_assertions: set = field(default_factory=set)  # {(r, a, b)} with r a name

    def individuals(self) -> set:
        out = {a for _, a in self.concept_assertions}
        for _, a, b in self.role_assertions:
            out.add(a)
            out.add(b)
        return out

    def is_empty(self) -> bool:
        return not self.concept_assertions and not self.role_assertions


# ---------------------------------------------------------------------------
# conjunctive queries


@dataclass
class CQ:
    answer_vars: tuple = ()
    concept_atoms: set = field(default_factory=set)  # {(A, z)}
    role_atoms: set = field(default_factory=set)  # {(r, z, z')} role names only

    def variables(self) -> set:
        out = set(self.answer_vars)
        out |= {z for _, z in self.concept_atoms}
        for _, z, w in self.role_atoms:
            out.add(z)
            out.add(w)
        return out


def cq_weakly_tree_shaped(q: CQ) -> bool:
    for _, z, w in q.role_atoms:
        if z == w:
            return False
    und = {frozenset((z, w)) for _, z, w in q.role_atoms}
    vs = q.variables()
    if not vs:
        return False
    if len(und) != len(vs) - 1:
        return False
    adj: dict = {v: set() for v in vs}
    for e in und:
        z, w = tuple(e)
        adj[z].add(w)
        adj[w].add(z)
    seen = set()
    stack = [next(iter(vs))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == vs


def cq_tree_shaped(q: CQ) -> bool:
    if not cq_weakly_tree_shaped(q):
        return False
    pairs = set()
    for _, z, w in q.role_atoms:
        key = frozenset((z, w))
        if key in pairs:
            return False
        pairs.add(key)
    return True


def cq_is_1tcq(q: CQ) -> bool:
    return cq_tree_shaped(q) and len(q.answer_vars) == 1


def cq_to_text(q: CQ) -> str:
    atoms = [f"{a}({z})" for a, z in sorted(q.concept_atoms)]
    atoms += [f"{r}({z},{w})" for r, z, w in sorted(q.role_atoms)]
    return f"q({','.join(q.answer_vars)}) <- {', '.join(atoms)}"


# ---------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class Signature:
    concepts: frozenset = frozenset()
    roles: frozenset = frozenset()

    def role_objects(self) -> set:
        out = set()
        for n in self.roles:
            out.add(Role(n))
            out.add(Role(n, True))
        return out

    def __contains__(self, item) -> bool:
        if isinstance(item, Role):
            return item.name in self.roles
        return item in self.concepts or item in self.roles


# ---------------------------------------------------------------------------
# parsing

_KEYWORDS = {"top", "bot", "and", "or", "not", "some", "only", "sub", "subr", "inv", "func"}
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([(),])|(<-)|(\S))")


class _Tokens:
    def __init__(self, text: str, line: int):
        self.line = line
        self.toks: list = []  # (value, col)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                break
            col = m.start(m.lastindex) + 1
            val = m.group(m.lastindex)
            if m.lastindex == 4:
                raise ParseError(f"unexpected character {val!r}", line, col)
            self.toks.append((val, col))
            pos = m.end()
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def col(self) -> int:
        return self.toks[self.i][1] if self.i < len(self.toks) else (
            self.toks[-1][1] + len(self.toks[-1][0]) if self.toks else 1
        )

    def next(self) -> str:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of statement", self.line, self.col())
        v = self.toks[self.i][0]
        self.i += 1
        return v

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.line, self.col())

    def done(self) -> bool:
        return self.i >= len(self.toks)


def _parse_name(ts: _Tokens, what: str) -> str:
    tok = ts.next()
    if tok in _KEYWORDS or not _NAME_RE.fullmatch(tok):
        raise ParseError(f"expected {what}, got {tok!r}", ts.line, ts.col())
    return tok


def _parse_role(ts: _Tokens) -> Role:
    if ts.peek() == "inv":
        ts.next()
        ts.expect("(")
        name = _parse_name(ts, "role name")
        ts.expect(")")
        return Role(name, True)
    return Role(_parse_name(ts, "role name"))


def _parse_concept(ts: _Tokens) -> Concept:
    left = _parse_concept_unary(ts)
    while ts.peek() == "and":
        ts.next()
        left = And(left, _parse_concept_unary(ts))
    return left


def _parse_concept_unary(ts: _Tokens) -> Concept:
    tok = ts.peek()
    if tok == "some":
        ts.next()
        role = _parse_role(ts)
        return Exists(role, _parse_concept_unary(ts))
    if tok == "only":
        ts.next()
        role = _parse_role(ts)
        return Forall(role, _parse_concept_unary(ts))
    if tok == "top":
        ts.next()
        return Top()
    if tok == "bot":
        ts.next()
        return Bot()
    if tok == "(":
        ts.next()
        c = _parse_concept(ts)
        ts.expect(")")
        return c
    return Name(_parse_name(ts, "concept name"))


def _statement_lines(text: str) -> Iterator:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def parse_tbox(text: str) -> TBox:
    t = TBox()
    for lineno, line in _statement_lines(text):
        ts = _Tokens(line, lineno)
        if ts.peek() == "func":
            ts.next()
            ts.expect("(")
            role = _parse_role(ts)
            ts.expect(")")
            if not ts.done():
                raise ParseError("trailing input after func(...)", lineno, ts.col())
            t.fas.add(role)
            continue
        # disambiguate RI vs CI by scanning for the separator keyword
        seps = [v for v, _ in ts.toks if v in ("sub", "subr")]
        if seps == ["subr"]:
            r = _parse_role(ts)
            ts.expect("subr")
            s = _parse_role(ts)
            if not ts.done():
                raise ParseError("trailing input after role inclusion", lineno, ts.col())
            t.ris.append((r, s))
            continue
        left = _parse_concept(ts)
        ts.expect("sub")
        right = _parse_concept(ts)
        if not ts.done():
            raise ParseError("trailing input after concept inclusion", lineno, ts.col())
        t.cis.append((left, right))
    return t


_ASSERTION_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:,\s*([A-Za-z_][A-Za-z0-9_]*)\s*)?\)$"
)


def parse_abox(text: str) -> ABox:
    a = ABox()
    for lineno, line in _statement_lines(text):
        m = _ASSERTION_RE.match(line)
        if not m:
            raise ParseError("expected A(a) or r(a,b)", lineno, 1)
        pred, x, y = m.group(1), m.group(2), m.group(3)
        if pred in _KEYWORDS:
            raise ParseError(f"{pred!r} is a reserved word", lineno, 1)
        if y is None:
            a.concept_assertions.add((pred, x))
        else:
            a.role_assertions.add((pred, x, y))
    return a


def parse_cq(text: str) -> CQ:
    lines = list(_statement_lines(text))
    if len(lines) != 1:
        raise ParseError("a query is a single statement q(...) <- atoms", 1, 1)
    lineno, line = lines[0]
    if "<-" not in line:
        raise ParseError("missing '<-' in query", lineno, 1)
    head, _, body = line.partition("<-")
    hm = re.match(r"\s*[A-Za-z_][A-Za-z0-9_]*\(\s*([^)]*)\)\s*$", head)
    if hm is None:
        raise ParseError("malformed query head", lineno, 1)
    args = [v.strip() for v in hm.group(1).split(",") if v.strip()]
    q = CQ(answer_vars=tuple(args))
    atoms = re.findall(
        r"([A-Za-z_][A-Za-z0-9_]*)\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:,\s*([A-Za-z_][A-Za-z0-9_]*)\s*)?\)",
        body,
    )
    consumed = re.sub(
        r"([A-Za-z_][A-Za-z0-9_]*)\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:,\s*([A-Za-z_][A-Za-z0-9_]*)\s*)?\)",
        "",
        body,
    )
    if consumed.replace(",", "").strip():
        raise ParseError(f"malformed query body near {consumed.strip()!r}", lineno, 1)
    for pred, z, w in atoms:
        if pred == "inv" or pred in _KEYWORDS:
            raise ParseError("inverse roles are not allowed in query atoms", lineno, 1)
        if w:
            q.role_atoms.add((pred, z, w))
        else:
            q.concept_atoms.add((pred, z))
    if not atoms:
        raise ParseError("query has no atoms", lineno, 1)
    occurring = {z for _, z in q.concept_atoms}
    for _, z, w in q.role_atoms:
        occurring.add(z)
        occurring.add(w)
    missing = set(q.answer_vars) - occurring
    if missing:
        raise ParseError(
            f"answer variables {sorted(missing)} do not occur in any atom", lineno, 1
        )
    return q


def parse_signature(text: str) -> Signature:
    concepts: set = set()
    roles: set = set()
    for lineno, line in _statement_lines(text):
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("concepts", "roles"):
            raise ParseError("expected 'concepts: ...' or 'roles: ...'", lineno, 1)
        names = [n for n in re.split(r"[,\s]+", rest.strip()) if n]
        for n in names:
            if not _NAME_RE.fullmatch(n) or n in _KEYWORDS:
                raise ParseError(f"bad name {n!r} in signature", lineno, 1)
        (concepts if key == "concepts" else roles).update(names)
    return Signature(frozenset(concepts), frozenset(roles))
