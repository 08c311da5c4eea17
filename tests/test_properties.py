"""Property tests: each shared kernel against the inline loop it replaced,
over inputs drawn by hypothesis (derandomized in tests/conftest.py)."""

import io
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import perifront.sim as sim
from perifront.dispersion import bisect

bounds = st.floats(-1e6, 1e6)


@given(threshold=bounds, lo=bounds, hi=bounds,
       steps=st.integers(0, 120),
       rtol=st.one_of(st.sampled_from([0.0, 1e-13, 1e-12]),
                      st.floats(0.0, 0.5)),
       strict=st.booleans())
def test_bisect_matches_inline_loop(threshold, lo, hi, steps, rtol, strict):
    below = ((lambda x: x < threshold) if strict
             else (lambda x: x <= threshold))
    a, b = lo, hi
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if below(mid):
            a = mid
        else:
            b = mid
        if b - a <= rtol * max(1.0, b):
            break
    assert bisect(below, lo, hi, steps, rtol) == (a, b)


@given(values=arrays(np.float64, array_shapes(min_dims=2, max_dims=2,
                                              max_side=9),
                     elements=st.floats(width=64)),
       prefix=st.sampled_from(["", "0.25, "]),
       block=st.integers(1, 4))
@example(values=np.array([[np.nan, np.inf, -np.inf],
                          [-0.0, 5e-324, -2.5e-308]]), prefix="", block=1)
def test_write_rows_bytes_are_fstring_bytes(values, prefix, block):
    """'%.17g' per block writes the bytes of f"{v:.17g}" per value: nan,
    +-inf, -0.0 and subnormals included."""
    fh = io.StringIO()
    with mock.patch.object(sim, "CSV_BLOCK_ROWS", block):
        sim._write_rows(fh, values, prefix)
    want = "".join(prefix + ", ".join(f"{v:.17g}" for v in row) + "\n"
                   for row in values.tolist())
    assert fh.getvalue() == want
