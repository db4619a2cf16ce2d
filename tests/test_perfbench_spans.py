"""The benchmark's tracer (``perfbench/spans.py``) wraps package
functions by module and attribute name and reads counters off their
results; a traced run fails on the first name that no longer resolves,
and reads 0 for a stats key that was renamed."""

import importlib
import importlib.util
import pathlib
import random
from collections import Counter

from helpers import criterion6_problem
from hornsep.automata import is_empty
from hornsep.entailment import build_pipeline

SPANS = pathlib.Path(__file__).parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve_on_the_package():
    spans = _load_spans()
    targets = {t for ts in spans.LAYERS.values() for t in ts}
    targets |= set(spans.COUNTERS)
    for mod, attr in sorted(targets):
        owner = importlib.import_module(f"hornsep.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod, attr)


def test_emptiness_counters_read_every_stats_key():
    """The tracer reads ``work``, ``stages``, ``certificate_nodes`` and
    ``spurious_relaxed_plan`` off each ``is_empty`` result; seed-601
    criterion-6 draws 190 (empty), 65 (nonempty) and 40 (nonempty after a
    spurious relaxed plan) give one result of each kind."""
    spans = _load_spans()
    rng = random.Random(601)
    draws = [criterion6_problem(rng)[2] for _ in range(191)]
    counts = Counter()
    work = 0
    for i in (190, 65, 40):
        p = draws[i]
        _ctx, prod = build_pipeline(p.t1, p.t2, p.sigA, p.sigQ)
        res = is_empty(prod)
        assert res.empty == (i == 190)
        work += res.stats["work"]
        spans._count_emptiness(counts, (prod,), res)
    assert counts["automata.work"] == work > 0
    assert counts["automata.stages"] == 1 + 1 + 3
    assert counts["automata.certificate_nodes"] == 0 + 2 + 4
    assert counts["automata.spurious"] == 1
