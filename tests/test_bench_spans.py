"""The benchmark's traced mode (bench/spans.py) wraps perifront functions
by module and name from outside the package; every name it spans must
still resolve, and extract_profile must keep the parameters its sample
count binds by name."""

import importlib
import inspect
import types
from pathlib import Path

import perifront.fronts as fronts

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    """bench/spans.py as a module, executed from its source text (nothing
    is written next to it)."""
    mod = types.ModuleType("bench_spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def spanned(spans):
    """(home module, attribute) -> the object now bound there."""
    out = {}
    for modname, attr, _, _ in spans.TARGETS:
        home = importlib.import_module(f"perifront.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            out[modname, attr] = vars(getattr(home, cls_name))[meth]
        else:
            out[modname, attr] = getattr(home, attr)
    return out


def test_every_span_target_resolves_and_is_restored():
    spans = load_spans()
    before = spanned(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = spanned(spans)
    finally:
        tracer.uninstall()
    for key, orig in before.items():
        assert during[key] is not orig, key
        assert during[key].__wrapped__ is orig, key
    assert spanned(spans) == before


def test_extract_profile_keeps_the_bound_parameters():
    params = inspect.signature(fronts.extract_profile).parameters
    assert {"margin_cells", "t_window"} <= set(params)
