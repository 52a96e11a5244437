"""``repr_text`` against Python's own ``repr``, text for text."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxcert.floatrepr import WIDTH, repr_text


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    rows = repr_text(values)
    assert rows.shape == (len(values), WIDTH) and rows.dtype == np.uint8
    texts = [bytes(row).rstrip(b"\0").decode("ascii") for row in rows]
    assert texts == [repr(v) for v in values.tolist()]
    assert not any(b"\0" in bytes(row).rstrip(b"\0") for row in rows)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_repr_of_any_finite_floats(values):
    assert_reprs(values)


def test_repr_of_random_bit_patterns():
    values = np.random.default_rng(20).integers(0, 2**64, size=200_000,
                                                dtype=np.uint64).view(np.float64)
    assert_reprs(values[np.isfinite(values)])


def test_repr_of_edge_values():
    """Where Java's Double.toString rules differ from repr (5e-324, 1e-323,
    8e-323), the ends of the subnormal and normal ranges, the integers
    around 2**53, the switches between positional and scientific layout,
    every power of two and of ten, the non-finite values, and each negated."""
    edges = [
        0.0, 5e-324, 1e-323, 8e-323,
        2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        float(2**53 - 1), float(2**53), float(2**53 + 1), float(2**53 + 2),
        9999999999999998.0, 1e16,
        1e-4, 1e-5, 0.1, 1 / 3, 123.456, 1e15, 1e22, 1e23,
        float("inf"), float("nan"),
        *(2.0**p for p in range(-1074, 1024)),
        *(float(f"1e{p}") for p in range(-323, 309)),
    ]
    assert_reprs(edges + [-v for v in edges])


def test_memory_is_bounded_by_its_batches():
    """Beyond its output, 24 bytes a value, the kernel holds one batch's
    temporaries, about 1.6 MiB; formatting 100,000 values at once held
    about 38 MiB."""
    values = np.random.default_rng(5).normal(size=100_000)
    repr_text(values[:10])  # the tables are built on first use
    tracemalloc.start()
    try:
        repr_text(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(values) * WIDTH + 2.5 * 2**20
