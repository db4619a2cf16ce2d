"""The benchmark's tracer (``perfbench/spans.py``) wraps package
functions by module and attribute name; a traced run fails on the first
name that no longer resolves."""

import importlib
import importlib.util
import pathlib

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
