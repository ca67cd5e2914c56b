import numpy as np
import orjson

from vortexlab import floattext

TINY = np.finfo(np.float64).tiny  # the smallest normal double
EDGES = [
    0.0,
    5e-324,
    TINY,
    np.nextafter(1e-4, 0.0),
    1e-4,
    np.nextafter(1e-4, 1.0),
    np.nextafter(1e16, 0.0),
    1e16,
    np.nextafter(1e16, np.inf),
    np.inf,
    np.nan,
]


def orjson_texts(values):
    """orjson's text for each value of a 1-d float64 array (``null`` for NaN and the infinities)."""
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")


def test_plain_values_are_spelled_by_orjson_as_by_repr():
    rng = np.random.default_rng(22)
    sign = np.where(rng.uniform(size=100_000) < 0.5, -1.0, 1.0)
    values = np.concatenate([EDGES, np.negative(EDGES), sign * 10.0 ** rng.uniform(-30, 30, 100_000)])
    mask = floattext.plain(values)
    assert 0 < mask.sum() < len(values)
    for value, is_plain, text in zip(values.tolist(), mask.tolist(), orjson_texts(values)):
        assert is_plain == (value == 0.0 or 1e-4 <= abs(value) < 1e16), value
        if is_plain:
            assert text == repr(value)
    # the range is as wide as it can be: just past either end the spellings differ
    outside = [np.nextafter(1e-4, 0.0), 1e16, np.inf, np.nan]
    for value, text in zip(outside, orjson_texts(np.array(outside))):
        assert text != repr(float(value))


def test_all_plain_is_the_mask_reduced():
    rng = np.random.default_rng(23)
    for value in EDGES + [-x for x in EDGES]:
        for row in (np.array([value]), rng.uniform(-30.0, 30.0, 12), np.zeros(5)):
            row[rng.integers(len(row))] = value
            assert floattext.all_plain(row) == floattext.plain(row).all()
