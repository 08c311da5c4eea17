"""The sha256 manifest of the files that the six perifront subcommands
write at their defaults, with the Python, numpy and scipy versions it was
recorded with.

TestDefaults::test_exit_zero_at_defaults compares each run against
tests/golden.json.  A change that moves these numbers on purpose rewrites
the manifest with

    PYTHONPATH=src python tests/golden.py

and records the manifest diff in CHANGES.md.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy
import scipy

from perifront.cli import main as perifront

MANIFEST = Path(__file__).with_name("golden.json")
COMMANDS = ("dispersion", "simulate", "front", "certify", "competition",
            "hypotheses")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


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


def main():
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            outdir = Path(tmp) / command
            if perifront([command, "--out", str(outdir)]) != 0:
                raise SystemExit(f"perifront {command} fails at its defaults")
            files[command] = digests(outdir)
    MANIFEST.write_text(json.dumps({"versions": versions(), "files": files},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
