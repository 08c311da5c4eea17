"""Property tests: each shared kernel against the inline loop it replaced
(or, for the cyclic banded solve, a dense solve; for the exact dispersion
slope, difference quotients), over inputs drawn by hypothesis
(derandomized in tests/conftest.py)."""

import io
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import perifront.sim as sim
from perifront.certify import bisect
from perifront.dispersion import Dispersion, bracketed_root
from perifront.grid import (BandedMatrix, PeriodicField, first_derivative,
                            make_cell_grid)
from golden_cases import models_at_64

bounds = st.floats(-1e6, 1e6)


@given(threshold=bounds, lo=bounds, hi=bounds,
       steps=st.integers(0, 120), strict=st.booleans())
def test_bisect_matches_inline_loop(threshold, lo, hi, steps, strict):
    below = ((lambda x: x < threshold) if strict
             else (lambda x: x <= threshold))
    a, b = lo, hi
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if below(mid):
            a = mid
        else:
            b = mid
    assert bisect(below, lo, hi, steps) == (a, b)


@given(a=st.floats(1.01, 7.0), sign=st.sampled_from([1.0, -1.0]))
def test_bracketed_root_of_a_convex_function(a, sign):
    """exp(x) - a on [0, 2], either sign: a float root within 1e-12 of
    log(a), kept inside the bracket."""
    f = lambda x: sign * (np.exp(x) - a)
    x = bracketed_root(f, 0.0, 2.0, f(0.0), f(2.0))
    assert type(x) is float and 0.0 <= x <= 2.0
    assert abs(x - np.log(a)) <= 1e-12


@pytest.mark.parametrize("model", models_at_64(),
                         ids=lambda m: f"{m.name}-m{m.m}")
@settings(max_examples=12)
@given(lam=st.floats(0.0, 2.5))
def test_exact_slope_is_the_difference_quotient_limit(model, lam):
    """kappa_1' from the Perron vectors against central differences of
    kappa_1: their error is O(dlam^2) (the constant measured on the
    built-in models is below 3e-3), and the Richardson extrapolate of two
    steps agrees to 1e-8."""
    disp = Dispersion(model)
    exact = disp.kappa1_prime(lam)
    quotient = lambda h: (disp.kappa(0, lam + h)
                          - disp.kappa(0, lam - h)) / (2.0 * h)
    q1, q2 = quotient(0.05), quotient(0.025)
    assert abs(q1 - exact) <= 1e-2 * 0.05 ** 2
    assert abs(q2 - exact) <= 1e-2 * 0.025 ** 2
    assert abs((4.0 * q2 - q1) / 3.0 - exact) <= 1e-8


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


def _vectors(count, elements):
    """count float64 arrays of one drawn length n in [3, 200]."""
    return st.integers(3, 200).flatmap(lambda n: st.tuples(
        *[arrays(np.float64, n, elements=elements)] * count))


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0])


@given(arrs=_vectors(4, st.floats(width=64)))
@example(arrs=(SPECIALS, -SPECIALS, SPECIALS[::-1], np.roll(SPECIALS, 3)))
def test_matvec_is_the_roll_formula(arrs):
    """The wrap-index gather gives np.roll's neighbours, so every entry,
    nan, +-inf and -0.0 included, has the same bits."""
    sub, main, sup, v = arrs
    with np.errstate(all="ignore"):
        got = BandedMatrix(sub, main, sup).matvec(v)
        want = main * v + sup * np.roll(v, -1) + sub * np.roll(v, 1)
    assert got.tobytes() == want.tobytes()


@given(v=st.integers(16, 200).flatmap(lambda n: arrays(
    np.float64, n, elements=st.floats(-1e300, 1e300))))
@example(v=np.tile([-0.0, 0.0, 1e300, -1e300], 4))
def test_first_derivative_is_the_roll_formula(v):
    """A PeriodicField holds finite values only: drawn over the whole
    finite range below overflow, -0.0 included."""
    grid = make_cell_grid(1.0, len(v))
    got = first_derivative(PeriodicField(grid, v)).values
    want = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * grid.h)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("corners", [True, False])
@given(arrs=_vectors(5, st.floats(-1.0, 1.0)))
def test_banded_factor_solves_dominant_cyclic_systems(corners, arrs):
    """Row-wise diagonally dominant by at least 0.5, either sign on the
    diagonal: the factored solve agrees with the dense LAPACK solve."""
    sub, sup, pad, sign, rhs = arrs
    if not corners:
        sub[0] = sup[-1] = 0.0
    main = np.where(sign < 0.0, -1.0, 1.0) * (
        np.abs(sub) + np.abs(sup) + 0.5 + np.abs(pad))
    A = BandedMatrix(sub, main, sup)
    x = A.factor().solve(rhs)
    want = np.linalg.solve(A.to_dense(), rhs)
    assert np.abs(x - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@given(arrs=_vectors(3, st.floats(-1e6, 1e6)))
def test_transposed_is_the_dense_transpose(arrs):
    A = BandedMatrix(*arrs)
    assert np.array_equal(A.transposed().to_dense(), A.to_dense().T)
