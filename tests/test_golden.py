"""The manifest holds exactly what the checks read."""

import numpy as np

import golden
from golden_cases import CASES


def test_manifest_keys_are_the_criteria_and_cases():
    """Every acceptance criterion and every library case has a recorded
    entry, and every recorded entry belongs to one; the subcommands'
    files are checked by TestDefaults."""
    manifest = golden.manifest()
    assert sorted(manifest) == ["acceptance", "files", "library", "versions"]
    assert sorted(manifest["files"]) == sorted(golden.COMMANDS)
    assert sorted(manifest["acceptance"]) == sorted(golden.criteria())
    assert len(golden.criteria()) == len(set(golden.criteria())) == 12
    assert sorted(manifest["library"]) == sorted(CASES)


def test_digest_tells_a_numpy_scalar_from_a_float():
    """A scalar's type is part of its digest, in a list or alone."""
    assert golden.digest(np.float64(0.5)) != golden.digest(0.5)
    assert golden.digest([np.float64(0.5), 1.0]) != golden.digest([0.5, 1.0])
    assert golden.digest(0.5) == golden.digest(0.5)
