"""Workload corpora for the hornsep benchmark.

Each workload is a list of cases decided one after another.  Its inputs
come from two seeds:

* the corpus seed fixes the problems themselves.  The random workloads
  use the criterion-6 grammar of the acceptance tests at seed 601, so
  the problems match the ones the acceptance test decides;
* the run seed (``--seed``) renames every concept and role name and
  fixes the order in which the cases are decided.  The renaming keeps
  the relative order of the names, so the problems stay about equally
  hard, while the strings and their hashes change from seed to seed.
  The normalizer's fresh names are hashes of the renamed text, so they
  sort differently per seed, and the work counts move slightly with
  the seed (by about 0.01 % on random-cq).

Drawing a new corpus from each run seed would change the mix of easy
and slow problems, and with it every timing, by far more than any
regression bound.

Run as a script, this module measures one set-up sample in a fresh
interpreter and prints it: ``python3 perfbench/corpus.py WORKLOAD SEED``.
"""

from __future__ import annotations

import hashlib
import random
import re
import string
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CORPUS_SEED = 601  # seed of acceptance criterion 6
RANDOM_CQ_N = 25
ORACLE_N = 200
ORACLE_MAX_IND = 2
ORACLE_MAX_VARS = 3
CHAIN_MAX = 7

# decision procedure of each mode, looked up on the module at call time
# so that the traced run's wrappers are the ones called
MODE_FUNCTIONS = {
    "cq": "decide_cq_entailment",
    "1tcq": "decide_1tcq_entailment",
    "cq-incons": "decide_cq_entailment_incons",
    "deductive": "decide_deductive",
    "conservative": "conservative_extension",
    "inseparable": "inseparable",
}

_KEYWORDS = {
    "top", "bot", "and", "or", "not", "some", "only", "sub", "subr", "inv",
    "func", "concepts", "roles",
}
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_ADVISOR_T1 = "PhDStud sub some advBy Prof\nadv subr inv(advBy)"
# the paper fixtures: (t1, t2, sigma_a, sigma_q)
FIXTURES = {
    "advisor": (
        _ADVISOR_T1,
        _ADVISOR_T1 + "\nfunc(advBy)",
        "concepts: PhDStud\nroles: adv",
        "concepts: Prof\nroles:",
    ),
    "disjointness": (
        "", "A1 and A2 sub bot",
        "concepts: A1 A2\nroles:", "concepts: A1 A2\nroles:",
    ),
    "inverse_chain": (
        "A sub some s B\nB sub some inv(r) B",
        "A sub some s B\nB sub some r B",
        "concepts: A\nroles:", "concepts:\nroles: r",
    ),
    "deductive_bot": (
        "", "A1 and A2 sub bot",
        "concepts: A1 A2 B\nroles:", "concepts: A1 A2 B\nroles:",
    ),
    "deductive_exists": (
        "", "A sub some r B", "concepts: A B\nroles:", "concepts: A B\nroles:",
    ),
}

# Reference verdicts (True: entails), written by hand from PAPER.md and
# acceptance criteria 1-4.  advisor: the functional advisor is pulled
# onto the asserted adviser, so Prof answers differ in every mode.
# disjointness and deductive_bot: queries cannot see a disjointness, but
# inconsistency-aware and deductive entailment can.  inverse_chain: both
# chains give the same r-queries in both directions.  deductive_exists:
# the Boolean query "some B" separates, while no inclusion over {A, B}
# and no rooted one-variable query does.
EXPECTED = {
    "advisor": {"cq": False, "1tcq": False, "cq-incons": False,
                "conservative": False, "inseparable": False},
    "disjointness": {"cq": True, "1tcq": True, "cq-incons": False,
                     "deductive": False, "conservative": True,
                     "inseparable": True},
    "inverse_chain": {"cq": True, "1tcq": True, "cq-incons": True,
                      "inseparable": True},
    "deductive_bot": {"cq": True, "1tcq": True, "cq-incons": False,
                      "deductive": False, "conservative": True,
                      "inseparable": True},
    "deductive_exists": {"cq": False, "1tcq": True, "cq-incons": False,
                         "deductive": True, "conservative": False,
                         "inseparable": False},
}
# modes whose precondition the fixture fails: the mode must refuse it
# (deductive needs one shared signature, conservative a syntactic subset)
REFUSED = [
    ("advisor", "deductive"),
    ("inverse_chain", "deductive"),
    ("inverse_chain", "conservative"),
]


@dataclass
class Case:
    """One problem of a workload.  ``key`` does not depend on the run
    seed; ``expect`` is the reference verdict where one is known."""

    key: str
    texts: tuple
    mode: str
    expect: bool | None = None


@dataclass
class Workload:
    name: str
    seed: int
    cases: list
    refused: list  # cases whose mode must refuse them
    cli_case: str  # key of the case the command line is timed on

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for c in self.cases:
            h.update(repr((c.key, c.mode, c.texts)).encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# order-preserving renaming


def _random_names(rng, count, first_letters, used):
    out = set()
    while len(out) < count:
        name = rng.choice(first_letters) + "".join(
            rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 5))
        )
        if name not in _KEYWORDS and name not in used:
            out.add(name)
    return sorted(out)


def renaming(rng, names) -> dict:
    """Map concept names (upper-case initial) and role names (lower-case
    initial) to random names that sort the same way among themselves.
    Concept names start before "X", so they still sort before the
    normalizer's fresh names, and a role name stays on the same side of
    "inv(" as before, so inverse roles keep their place too."""
    concepts = sorted(n for n in names if n[0].isupper())
    low = sorted(n for n in names if not n[0].isupper() and n < "inv(")
    high = sorted(n for n in names if not n[0].isupper() and n > "inv(")
    used = set(names)
    mapping = {}
    for group, letters in ((concepts, "ABCDEFGHIJKLMNOPQRSTUVW"),
                           (low, "abcdefgh"), (high, "jklmnopqrstuvwxyz")):
        mapping.update(zip(group, _random_names(rng, len(group), letters, used)))
    return mapping


def _rename(text: str, mapping: dict) -> str:
    return _WORD.sub(lambda m: mapping.get(m.group(), m.group()), text)


def _names(texts) -> set:
    return {w for t in texts for w in _WORD.findall(t) if w not in _KEYWORDS}


# ---------------------------------------------------------------------------
# the criterion-6 generator


def random_tbox_text(rng, concepts, roles, max_axioms) -> str:
    """Random ELHIF-bot TBox text over the given name pools, in the
    grammar (and random draw sequence) of acceptance criterion 6."""
    lines = []
    kinds = ["cc", "cex", "exc", "conj"] + (["ri"] if roles else [])
    for _ in range(rng.randint(0, max_axioms)):
        kind = rng.choice(kinds)

        def c():
            return rng.choice(concepts)

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


def criterion6_problems(n: int, mapping: dict) -> list:
    """The first n problems of the criterion-6 corpus, renamed."""
    rng = random.Random(CORPUS_SEED)
    concepts = [mapping["A"], mapping["B"]]
    roles = [mapping["r"], mapping["s"]]
    out = []
    for _ in range(n):
        cs = concepts[: rng.randint(1, 2)]
        rs = roles[: rng.randint(1, 2)]
        t1 = random_tbox_text(rng, cs, rs, 3)
        t2 = random_tbox_text(rng, cs, rs, 3)
        sig = "concepts: " + " ".join(cs) + "\nroles: " + " ".join(rs)
        out.append((t1, t2, sig, sig))
    return out


# ---------------------------------------------------------------------------
# workloads


def _modes(rng) -> tuple:
    mapping = renaming(rng, _names(t for f in FIXTURES.values() for t in f))
    texts = {
        k: tuple(_rename(t, mapping) for t in f) for k, f in FIXTURES.items()
    }
    cases = [
        Case(f"{fx}/{mode}", texts[fx], mode, want)
        for fx, modes in EXPECTED.items()
        for mode, want in modes.items()
    ]
    refused = [Case(f"{fx}/{mode}", texts[fx], mode) for fx, mode in REFUSED]
    return cases, refused, "advisor/cq"


def _chain(rng) -> tuple:
    mapping = renaming(rng, {"C", "r"})
    c, r = mapping["C"], mapping["r"]
    cases = []
    for n in range(1, CHAIN_MAX + 1):
        t1 = "\n".join(f"{c}{i} sub {c}{i + 1}" for i in range(n))
        t2 = f"{t1}\n{c}0 sub some {r} {c}1"
        texts = (t1, t2, f"concepts: {c}0\nroles: {r}",
                 f"concepts: {c}{n}\nroles: {r}")
        # under T2 a C0 individual has an anonymous r-successor in C1..Cn,
        # so "r(x, y), Cn(y)" separates the TBoxes for every n
        cases.append(Case(f"chain/{n}", texts, "cq", False))
    return cases, [], "chain/5"


def _random(rng, n, mode) -> tuple:
    mapping = renaming(rng, {"A", "B", "r", "s"})
    cases = [
        Case(f"c6/{i:03d}", texts, mode)
        for i, texts in enumerate(criterion6_problems(n, mapping))
    ]
    return cases, [], "c6/000"


def build(name: str, seed: int) -> Workload:
    """The workload's cases, renamed and ordered by the run seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "modes":
        parts = _modes(rng)
    elif name == "chain":
        parts = _chain(rng)
    elif name == "random-cq":
        parts = _random(rng, RANDOM_CQ_N, "cq")
    elif name == "oracle":
        parts = _random(rng, ORACLE_N, "oracle")
    else:
        raise ValueError(f"unknown workload {name!r}")
    w = Workload(name, seed, *parts)
    rng.shuffle(w.cases)
    return w


WORKLOADS = ("modes", "chain", "random-cq", "oracle")


def make_problem(texts):
    """Parse and normalize one case into a fresh ``Problem``; a fresh one
    per decision, because the saturation is cached on the NormalTBox."""
    from hornsep import entailment, syntax

    t1, t2, sa, sq = texts
    return entailment.make_problem(
        syntax.parse_tbox(t1), syntax.parse_tbox(t2),
        syntax.parse_signature(sa), syntax.parse_signature(sq),
    )


def set_up(name: str, seed: int):
    """Import hornsep, generate the corpus and parse and normalize it:
    everything a run does before its first decision."""
    import warnings

    # the advisor fixture gives its functional role a subrole on purpose
    warnings.simplefilter("ignore", UserWarning)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hornsep  # noqa: F401

    w = build(name, seed)
    return w, [make_problem(c.texts) for c in w.cases]


if __name__ == "__main__":
    start = time.process_time()
    set_up(sys.argv[1], int(sys.argv[2]))
    print(time.process_time() - start)
