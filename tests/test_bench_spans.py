"""The benchmark's traced mode (bench/spans.py) wraps perifront functions
by module and name from outside the package; every name it spans must
still resolve, and extract_profile must keep the parameters its sample
count binds by name.  The workloads (bench/workloads.py) call perifront
by keyword, so every keyword they pass must still be a parameter."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import perifront
import perifront.cli  # noqa: F401  (the workloads call pf.cli.main)
import perifront.fronts as fronts

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


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


def pf_keyword_calls():
    """(dotted name, keyword, line) of every keyword that
    bench/workloads.py passes to a pf.<name> callable."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        names, node = [], call.func
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "pf" and names:
            for kw in call.keywords:
                if kw.arg is not None:
                    yield ".".join(reversed(names)), kw.arg, call.lineno


def test_workload_keywords_are_parameters():
    checked = set()
    for dotted, key, line in pf_keyword_calls():
        target = perifront
        for name in dotted.split("."):
            target = getattr(target, name)
        params = inspect.signature(target).parameters
        takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
        assert key in params or takes_any, (
            f"bench/workloads.py:{line} passes {key}= to pf.{dotted}, "
            "which has no such parameter")
        checked.add(key)
    assert {"anchor", "t_window", "store_from", "psi_pair",
            "run_h5_heuristic"} <= checked
