"""tests/golden.json: the sha256 manifest of perifront's numbers, with the
Python, numpy and scipy versions it was recorded with.  It has three
sections:

- files: the sha256 of every file that each of the six subcommands writes
  at its defaults (TestDefaults::test_exit_zero_at_defaults);
- acceptance: the detail string of each acceptance criterion's PASS line,
  which report() in tests/test_acceptance.py checks after asserting the
  criterion itself;
- library: the digest of each case in tests/golden_cases.py, checked
  under the case's id by tests/test_fast_paths.py.  An array is hashed by
  its dtype, shape and bytes, a scalar, a report or a parameter dict by
  its type and its JSON with sorted keys.

A check passes when this run has the recorded versions and the value
equals the recorded one.  A change that moves these numbers on purpose,
or an upgrade of numpy or scipy, rewrites the whole manifest with

    PYTHONPATH=src python tests/golden.py

which runs the six subcommands and every case in-process, and
`pytest tests/test_acceptance.py -s` in a subprocess for the PASS lines;
record the manifest diff in CHANGES.md.  This is the trade-off of pinning
by hash: an upgrade that moves a last bit fails the checks where a copy
of the former code, run beside the new one, would not.  The references
that tests still run beside the code are the ones that define what the
code computes (full-lattice sweeps, dense einsums, per-row loops), not
earlier versions of it.
"""

import ast
import functools
import hashlib
import json
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from golden_cases import CASES
from perifront.cli import main as perifront

TESTS = Path(__file__).parent
MANIFEST = TESTS / "golden.json"
COMMANDS = ("dispersion", "simulate", "front", "certify", "competition",
            "hypotheses")
PASS_LINE = re.compile(r"\[PASS\] criterion (\S+): (.*)$", re.MULTILINE)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


@functools.cache
def manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def assert_recorded(section: str, key: str, got) -> None:
    """Assert that this run has the manifest's versions and that got is
    manifest[section][key], naming both version sets if not."""
    want = manifest().get(section, {}).get(key)
    recorded = manifest()["versions"]
    assert recorded == versions() and got == want, (
        f"{section} {key}: this run gives {got!r}, tests/golden.json holds "
        f"{want!r}.  The manifest was recorded with {recorded}, this run "
        f"has {versions()}.  If the change is meant, rewrite the manifest "
        "with PYTHONPATH=src python tests/golden.py and record its diff in "
        "CHANGES.md.")


def digests(outdir: Path) -> dict:
    """sha256 of every file in outdir; resolved-config.json is hashed
    without its "out" entry, which names the directory."""
    out = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "resolved-config.json":
            cfg = json.loads(data)
            del cfg["out"]
            data = json.dumps(cfg, indent=2, sort_keys=True).encode()
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


def digest(value) -> str:
    """sha256 of a case's value: an array by its dtype, shape and bytes,
    bytes as they are, a list or tuple item by item, anything else by its
    type and its JSON with sorted keys (so an np.float64 and a float of
    the same value differ)."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, numpy.ndarray):
            h.update(f"array {v.dtype.str} {v.shape}\n".encode())
            h.update(numpy.ascontiguousarray(v).tobytes())
        elif isinstance(v, bytes):
            h.update(b"bytes %d\n" % len(v) + v)
        elif isinstance(v, (list, tuple)):
            h.update(b"list %d\n" % len(v))
            for item in v:
                feed(item)
        else:
            kind = type(v)
            h.update(f"{kind.__module__}.{kind.__qualname__} ".encode()
                     + json.dumps(v, sort_keys=True).encode() + b"\n")

    feed(value)
    return h.hexdigest()


def check_case(case: str, value=None) -> None:
    """Assert the digest of CASES[case]() (or of value, when the caller
    has computed it) against the manifest."""
    assert_recorded("library", case,
                    digest(CASES[case]() if value is None else value))


def criteria() -> list:
    """The criteria that tests/test_acceptance.py reports, in order."""
    tree = ast.parse((TESTS / "test_acceptance.py").read_text())
    return [str(call.args[0].value) for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "report"
            and isinstance(call.args[0], ast.Constant)]


def acceptance_details() -> dict:
    """criterion -> detail of the PASS lines of a run of the acceptance
    module; every criterion must print one."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(TESTS / "test_acceptance.py"),
         "-s", "-q"], cwd=TESTS.parent, capture_output=True, text=True)
    details = dict(PASS_LINE.findall(proc.stdout))
    missing = [c for c in criteria() if c not in details]
    if missing:
        raise SystemExit(f"no PASS line for criteria {missing}:\n"
                         + proc.stdout[-4000:])
    return details


def main():
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            outdir = Path(tmp) / command
            if perifront([command, "--out", str(outdir)]) != 0:
                raise SystemExit(f"perifront {command} fails at its defaults")
            files[command] = digests(outdir)
    library = {case: digest(fn()) for case, fn in CASES.items()}
    data = {"versions": versions(), "files": files,
            "acceptance": acceptance_details(), "library": library}
    MANIFEST.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
