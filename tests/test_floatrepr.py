import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from hypmin import floatrepr
from hypmin.cli import JSON_SPECIALS


def assert_spelled_as(values, want, specials):
    """floatrepr.slots(values, specials) holds the texts `want`, each followed by NULs only."""
    text, lengths = floatrepr.slots(values, specials)
    assert text.shape == (len(values), floatrepr.WIDTH)
    assert lengths.tolist() == [len(w) for w in want]
    assert np.array_equal(text != 0, np.arange(floatrepr.WIDTH) < lengths[:, None])
    if text[text != 0].tobytes().decode("ascii") != "".join(want):
        got = [row[:n].tobytes().decode("ascii") for row, n in zip(text, lengths.tolist())]
        assert [(w, g) for w, g in zip(want, got) if w != g] == []


def assert_repr(values):
    values = np.asarray(values)
    # pieces of 2**16 values keep the temporaries small
    for piece in np.array_split(values, -(-len(values) // 2**16)):
        assert_spelled_as(piece, list(map(repr, piece.tolist())), None)


def test_random_bit_patterns():
    rng = np.random.default_rng(20200)
    assert_repr(rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64))


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_floats(values):
    assert_repr(np.array(values, dtype=np.float64))


def test_every_power_of_two_and_of_ten():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), [float(f"1e{e}") for e in range(-323, 309)]])
    assert_repr(np.concatenate([powers, -powers]))


def test_edges_of_the_format():
    edges = [
        5e-324,  # the smallest subnormal, below Schubfach's C_TINY
        1e-323,
        1.5e-323,
        2.225073858507201e-308,  # the largest subnormal
        2.2250738585072014e-308,  # the smallest normal
        1.7976931348623157e308,  # the largest double
        2.0**53 - 1,
        2.0**53,
        2.0**53 + 2,
        float(2**53 + 1),
        0.0,
        -0.0,
        math.nan,
        -math.nan,
        math.inf,
        -math.inf,
    ]
    # the ends of fixed notation, -4 <= E < 16, with their neighbours
    for edge in (1e16, 1e-5, 1e-4, 1e15):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)]
    values = np.array(edges)
    assert_repr(np.concatenate([values, -values]))


def test_only_values_without_digits():
    assert_repr(np.array([0.0, -0.0, math.nan, math.inf, -math.inf]))


def test_int64_cells():
    values = np.array([0, 1, -1, 9, 10, 2**53 + 1, 10**18, 2**63 - 1, -(2**63)], dtype=np.int64)
    assert_repr(values)


def test_json_specials_match_json_dumps():
    values = np.array([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.1, 1e16, -1.5e-7])
    want = [json.dumps(v) for v in values.tolist()]
    assert_spelled_as(values, want, JSON_SPECIALS)
