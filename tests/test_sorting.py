"""The integer helpers of the array engines (``repro.core.sorting``).

``stable_order`` sorts keys through a one-byte radix below 256, a two-byte
one below 65,536 and int64 beyond; ``modulo`` takes power-of-two remainders
as masks.  Both must equal their plain numpy forms bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sorting import modulo, stable_order

#: Bounds on both sides of the one-byte (256) and two-byte (65,536) limits.
_BOUNDS = st.one_of(
    st.integers(min_value=1, max_value=256),
    st.integers(min_value=257, max_value=65_536),
    st.integers(min_value=65_537, max_value=2**40),
    st.sampled_from([255, 256, 257, 65_535, 65_536, 65_537]),
)


@st.composite
def _keys(draw, bound):
    """Up to 300 keys in ``[0, bound)``, often the extremes, so keys that
    agree in their low byte or bytes (0 and 256 below a bound of 257) meet."""
    values = st.one_of(
        st.integers(min_value=0, max_value=bound - 1), st.sampled_from([0, bound - 1, bound // 2])
    )
    return np.array(draw(st.lists(values, max_size=300)), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), bound=_BOUNDS)
def test_stable_order_is_a_stable_argsort(data, bound):
    """Property: without streams, ``stable_order`` is numpy's stable argsort."""
    keys = data.draw(_keys(bound))
    np.testing.assert_array_equal(stable_order(keys, bound), np.argsort(keys, kind="stable"))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    bound=_BOUNDS,
    num_streams=st.one_of(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=257, max_value=70_000),
        st.sampled_from([255, 256, 257]),
    ),
)
def test_stable_order_sorts_by_stream_then_key(data, bound, num_streams):
    """Property: with streams, the order is ``np.lexsort`` by stream, then
    key, then position, at stream counts on both sides of 256."""
    keys = data.draw(_keys(bound))
    ids = st.one_of(
        st.integers(min_value=0, max_value=num_streams - 1),
        st.sampled_from([0, num_streams - 1]),
    )
    streams = np.array(data.draw(st.lists(ids, min_size=keys.size, max_size=keys.size)))
    np.testing.assert_array_equal(
        stable_order(keys, bound, streams.astype(np.int64), num_streams),
        np.lexsort((keys, streams)),
    )


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=50),
    modulus=st.one_of(
        st.integers(min_value=1, max_value=2**40), st.integers(0, 40).map(lambda b: 1 << b)
    ),
)
def test_modulo_equals_numpy_remainder(values, modulus):
    """Property: ``modulo`` equals ``np.remainder`` on int64 values of both
    signs and on uint64 values, at power-of-two moduli and others, and
    writes into ``out`` when given."""
    signed = np.array(values, dtype=np.int64)
    np.testing.assert_array_equal(modulo(signed, modulus), np.remainder(signed, modulus))
    unsigned = signed.view(np.uint64)
    expected = np.remainder(unsigned, np.uint64(modulus))
    out = np.empty_like(unsigned)
    assert modulo(unsigned, modulus, out=out) is out
    assert out.dtype == np.uint64
    np.testing.assert_array_equal(out, expected)
    modulo(unsigned, modulus, out=unsigned)  # in place
    np.testing.assert_array_equal(unsigned, expected)
