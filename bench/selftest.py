"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once at a tiny size, untraced and traced, and asserts
that each metric BENCHMARK.json names is emitted with its unit, then feeds
one perturbed output of the front workload (c_est x 1.05) through the
benchmark loop and asserts that it is counted as a failed operation.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


class Replay:
    """A workload whose iteration returns a fixed output, checked by the
    checks of a real workload."""

    def __init__(self, base, out):
        self.name, self.size = base.name, base.size
        self._base, self._out = base, out

    def iterate(self):
        return dict(self._out)

    def check(self, out):
        return self._base.check(out)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for var in run.CAP_VARS:
        run.os.environ[var] = str(run.NPROC)
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {name: unit for name, (unit, _) in spans.METRICS.items()} \
        == layer_units, "per-layer metrics differ from BENCHMARK.json"

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workloads.DEFAULT_SEED, tmpdir, tiny=True)
            args = argparse.Namespace(workload=name, seed=0, seconds=0.0)
            result = run.timed_run(wl, args)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == e2e_units, f"{name}: end-to-end metrics {got}"
            assert result["attempted"] >= 1
            values, _ = run.trace_iterations(wl)
            missing = set(layer_units) - set(values)
            assert not missing, f"{name}: per-layer metrics missing {missing}"
            assert values["trace.spans"] > 0
            print(f"selftest: {name} emits every metric")

        one_offs = {**run.calibrate(), **run.probe_cli_defaults(tmpdir)}
        for metric in one_offs:
            assert metric in layer_units, metric

        front = workloads.Front(workloads.DEFAULT_SEED, tmpdir)
        good = dict(workloads.REFERENCE["front"],
                    verdicts=dict.fromkeys(("sub", "sub_star", "super",
                                            "super_star", "sandwich_lower",
                                            "sandwich_upper"), True))
        assert front.check(dict(good)) == [], front.check(dict(good))
        bad = dict(good, c_est=good["c_est"] * 1.05)
        args = argparse.Namespace(workload="front", seed=0, seconds=0.0)
        result = run.timed_run(Replay(front, bad), args)
        assert result["attempted"] == 1 and result["failed"] == 1, result
        assert result["correct"] is False
        print("selftest: perturbed c_est x 1.05 counted as failed")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
