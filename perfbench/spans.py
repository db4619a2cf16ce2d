"""Per-layer spans recorded from outside hornsep.

``Tracer.install`` replaces public functions of the hornsep modules with
wrappers that record one span per call: the layer's name, start, end,
the enclosing span and the case being decided.  A name bound elsewhere
with ``from ... import`` (``index_for``, ``certain_answers`` and others)
is rebound in every hornsep module that holds it, so no call escapes its
span.  Spans are kept in flat arrays and written out at the end; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter

_DECIDE = (
    "decide_cq_entailment", "decide_1tcq_entailment",
    "decide_cq_entailment_incons", "decide_deductive",
    "conservative_extension", "inseparable", "decide_incons_entailment",
    "decide_universal", "check_ri", "build_pipeline",
)
_BUILD = ("build_A1", "build_A2", "build_A3", "build_A4", "build_A4_sim",
          "intersect")

# span name -> the (module, attribute) pairs it covers
LAYERS = {
    "syntax.parse": [("syntax", "parse_tbox"), ("syntax", "parse_signature")],
    "syntax.normalize": [("syntax", "normalize")],
    "reasoner.saturate": [("reasoner", "ConsequenceIndex.register")],
    "reasoner.chase": [("reasoner", "chase")],
    "reasoner.certain_answers": [("reasoner", "certain_answers")],
    "models.materialize": [("models", "materialize")],
    "models.type_graph": [("models", "type_graph")],
    "mosaics.decide_fin_hom": [("mosaics", "decide_fin_hom")],
    "automata.label_context": [("automata", "build_label_context")],
    "automata.build": [("automata", n) for n in _BUILD],
    "automata.is_empty": [("automata", "is_empty")],
    "automata.membership_game": [("automata", "run_on_regular_tree")],
    "entailment.decide": [("entailment", n) for n in _DECIDE],
    "entailment.oracle": [("entailment", "oracle_witness_search")],
    "entailment.verify_witness": [("entailment", "verify_witness")],
}


def _count_context(counts, args, _result):
    idx, seed = args[0], args[1]
    if frozenset(seed) not in idx.cl:
        counts["reasoner.contexts"] += 1


def _count_labels(counts, _args, ctx):
    counts["automata.labels"] += len(ctx.labels)


def _count_states(counts, _args, aut):
    counts["automata.states"] += len(aut.rules)


def _count_emptiness(counts, _args, res):
    counts["automata.work"] += res.stats["work"]
    counts["automata.stages"] += res.stats["stages"]
    counts["automata.certificate_nodes"] += res.stats.get("certificate_nodes", 0)
    counts["automata.spurious"] += bool(res.stats.get("spurious_relaxed_plan"))


def _count_witness(counts, _args, w):
    counts["entailment.witnesses"] += w is not None


# counters read at a span boundary: (before the call, after the call)
COUNTERS = {
    ("reasoner", "ConsequenceIndex.register"): (_count_context, None),
    ("automata", "build_label_context"): (None, _count_labels),
    ("automata", "intersect"): (None, _count_states),
    ("automata", "is_empty"): (None, _count_emptiness),
    ("entailment", "oracle_witness_search"): (None, _count_witness),
}


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("H")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.case_id = -1  # the case being decided, -1 between decisions
        self._stack = [-1]
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: int, fn, before, after):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self.counts, args, None)
            i = len(self.start)
            self.layer.append(layer)
            self.parent.append(stack[-1])
            self.case.append(self.case_id)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hornsep" or n.startswith("hornsep.")]
        for layer, targets in enumerate(LAYERS.values()):
            for mod, attr in targets:
                hooks = COUNTERS.get((mod, attr), (None, None))
                owner = importlib.import_module(f"hornsep.{mod}")
                cls, _, attr = attr.rpartition(".")
                if cls:
                    owner = getattr(owner, cls)
                orig = getattr(owner, attr)
                wrapper = self._wrap(layer, orig, *hooks)
                if cls:
                    self._rebind(owner, attr, orig, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._rebind(m, key, orig, wrapper)

    def _rebind(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to ``layer_metrics`` for the spans and counts
        recorded from now on."""
        return len(self.start), Counter(self.counts)

    def layer_metrics(self, mark: tuple, wall_s: float) -> dict:
        """Per-layer figures of the spans and counts since ``mark``."""
        lo, counts0 = mark
        hi = len(self.start)
        counts = Counter(self.counts)
        counts.subtract(counts0)
        n_layers = len(self.names)
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        incl_s = [0.0] * n_layers
        child = {}
        covered = 0.0
        # a child is recorded after its parent, so one backwards sweep
        # sees every child before its parent
        for i in range(hi - 1, lo - 1, -1):
            layer = self.layer[i]
            dur = self.end[i] - self.start[i]
            calls[layer] += 1
            incl_s[layer] += dur
            self_s[layer] += dur - child.pop(i, 0.0)
            p = self.parent[i]
            if p >= lo:
                child[p] = child.get(p, 0.0) + dur
            elif self.case[i] >= 0:
                covered += dur
        ix = {n: k for k, n in enumerate(self.names)}

        def ratio(a, b):
            return a / b if b else 0.0

        out = {f"{n}.self_s": self_s[k] for n, k in ix.items()}
        for n in ("reasoner.saturate", "reasoner.chase",
                  "reasoner.certain_answers", "models.materialize",
                  "mosaics.decide_fin_hom", "automata.is_empty",
                  "automata.membership_game"):
            out[f"{n}.calls"] = calls[ix[n]]
        answers = calls[ix["reasoner.certain_answers"]]
        empt = calls[ix["automata.is_empty"]]
        out.update({
            "reasoner.contexts": counts["reasoner.contexts"],
            "reasoner.chases_per_answer": ratio(calls[ix["reasoner.chase"]], answers),
            "models.materialize_per_answer": ratio(calls[ix["models.materialize"]], answers),
            "automata.labels": counts["automata.labels"],
            "automata.states": counts["automata.states"],
            "automata.work": counts["automata.work"],
            "automata.stages": counts["automata.stages"],
            "automata.certificate_nodes": counts["automata.certificate_nodes"],
            "automata.work_per_s": ratio(counts["automata.work"], incl_s[ix["automata.is_empty"]]),
            "automata.spurious_ratio": ratio(counts["automata.spurious"], empt),
            "entailment.oracle.witness_ratio": ratio(
                counts["entailment.witnesses"], calls[ix["entailment.oracle"]]),
            "trace.uncovered_share": ratio(max(wall_s - covered, 0.0), wall_s),
        })
        return out

    def write(self, path, header: dict):
        """Spans as flat binary columns, described by a JSON header."""
        cols = ("layer", "parent", "case", "start", "end")
        meta = dict(header, names=self.names, spans=len(self.start),
                    columns=[[c, getattr(self, c).typecode] for c in cols])
        with open(path.with_suffix(".json"), "w") as f:
            json.dump(meta, f, indent=1, sort_keys=True)
        with open(path.with_suffix(".bin"), "wb") as f:
            for c in cols:
                getattr(self, c).tofile(f)


# per-layer figures that are counts: they must repeat exactly
COUNTS = (
    "reasoner.saturate.calls", "reasoner.chase.calls",
    "reasoner.certain_answers.calls", "models.materialize.calls",
    "mosaics.decide_fin_hom.calls", "automata.is_empty.calls",
    "automata.membership_game.calls", "reasoner.contexts",
    "automata.labels", "automata.states", "automata.work", "automata.stages",
    "automata.certificate_nodes",
)


def combine(per_pass: list) -> tuple:
    """Median of each timed figure over the passes; counts and ratios of
    counts from the first pass, with the names of any that differ."""
    first = per_pass[0]
    out, unsteady = {}, []
    for key, value in first.items():
        values = [p[key] for p in per_pass]
        if key in COUNTS or key.endswith(("_per_answer", "_ratio")):
            if any(v != value for v in values):
                unsteady.append(key)
            out[key] = value
        else:
            out[key] = statistics.median(values)
    return out, unsteady
