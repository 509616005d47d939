"""Geohash decode/encode, haversine distance, and distance bucket table.

Geohash reference values were frozen from an independent decoder implementing
the published interleaved base-32 algorithm, itself validated against the
canonical 'ezs42' -> (42.605, -5.603) example.
"""

import numpy as np
import pytest

from stkd.errors import GeohashParseError, InvalidArgumentError
from stkd.geo import (BUCKET_EDGES_KM, N_DISTANCE_BUCKETS, bucketize_distance,
                      decode_geohash, encode_geohash, geohash6_centroid,
                      is_valid_geohash6, spherical_distance)

# (code, centroid_lat, centroid_lon) from the reference decoder.
GEOHASH_VECTORS = [
    ("s00000", 0.00274658203125, 0.0054931640625),
    ("wt3mb5", 30.56121826171875, 114.2633056640625),
    ("wt3q8y", 30.70953369140625, 114.2962646484375),
    ("u09tvw", 48.85894775390625, 2.3565673828125),
    ("dr5ru7", 40.75653076171875, -73.9874267578125),
    ("9q8yyk", 37.77374267578125, -122.4151611328125),
]

# ((lat1, lon1), (lat2, lon2), km) from the reference haversine, R = 6371 km.
HAVERSINE_VECTORS = [
    ((22.122305080146347, 87.04331613386256),
     (53.13484180182539, 159.2821021597381), 6884.322571407963),
    ((43.18174345318752, 152.03699879955013),
     (-84.77905890894935, -12.375844423882086), 15366.306421396946),
    ((79.80420905969646, 53.630839129292724),
     (72.16208851511209, -139.24585272486803), 3098.670249831488),
]


def test_centroid_matches_reference_decoder():
    for code, lat, lon in GEOHASH_VECTORS:
        got = geohash6_centroid(code)
        assert abs(got[0] - lat) < 1e-12 and abs(got[1] - lon) < 1e-12, code


def test_centroid_lies_inside_decoded_cell():
    for code, _, _ in GEOHASH_VECTORS:
        lat_lo, lat_hi, lon_lo, lon_hi = decode_geohash(code)
        lat, lon = geohash6_centroid(code)
        assert lat_lo < lat < lat_hi and lon_lo < lon < lon_hi


def test_encode_centroid_round_trips():
    for code, _, _ in GEOHASH_VECTORS:
        assert encode_geohash(*geohash6_centroid(code)) == code
    rng = np.random.default_rng(3)
    for _ in range(200):
        lat = float(rng.uniform(-85, 85))
        lon = float(rng.uniform(-180, 180))
        code = encode_geohash(lat, lon)
        assert encode_geohash(*geohash6_centroid(code)) == code


def test_shared_prefix_bounds_centroid_separation():
    # A 5-char geohash cell spans 360/2^13 deg of lon and 180/2^12 of lat.
    lvl5_lon = 360.0 / 2 ** 13
    lvl5_lat = 180.0 / 2 ** 12
    for a, b in [("wt3mb5", "wt3mbh"), ("u09tvw", "u09tvz")]:
        la1, lo1 = geohash6_centroid(a)
        la2, lo2 = geohash6_centroid(b)
        assert abs(la1 - la2) <= lvl5_lat and abs(lo1 - lo2) <= lvl5_lon


def test_parse_error_names_position():
    with pytest.raises(GeohashParseError, match="position 2"):
        geohash6_centroid("wtambc")  # 'a' is not in the geohash alphabet
    with pytest.raises(GeohashParseError):
        geohash6_centroid("wt3m")  # wrong length
    with pytest.raises(GeohashParseError):
        geohash6_centroid("")
    assert is_valid_geohash6("wt3mb5")
    assert not is_valid_geohash6("wtambc")
    assert not is_valid_geohash6("")
    assert not is_valid_geohash6(None)


def test_haversine_identity_and_antipode():
    assert spherical_distance((30.5, 114.3), (30.5, 114.3)) == 0.0
    # half circumference: pi * 6371
    assert abs(spherical_distance((0, 0), (0, 180)) - 20015.086796020572) < 1e-9


def test_haversine_matches_reference_pairs():
    for a, b, km in HAVERSINE_VECTORS:
        assert abs(spherical_distance(a, b) - km) / km < 1e-6


def test_haversine_rejects_out_of_range():
    with pytest.raises(InvalidArgumentError):
        spherical_distance((91, 0), (0, 0))
    with pytest.raises(InvalidArgumentError):
        spherical_distance((0, 0), (0, 181))


def test_bucket_table_shape():
    assert N_DISTANCE_BUCKETS == 16
    assert len(BUCKET_EDGES_KM) == 15
    assert BUCKET_EDGES_KM[0] == 0.25
    assert BUCKET_EDGES_KM[-1] == 4096.0
    for lo, hi in zip(BUCKET_EDGES_KM, BUCKET_EDGES_KM[1:]):
        assert hi == 2 * lo


def test_bucket_assignment_and_half_open_edges():
    assert bucketize_distance(0.0) == 0
    assert bucketize_distance(0.2499) == 0
    # each edge value belongs to the *higher* bucket
    for i, edge in enumerate(BUCKET_EDGES_KM):
        assert bucketize_distance(edge) == i + 1
        assert bucketize_distance(np.nextafter(edge, 0)) == i
    assert bucketize_distance(1e5) == 15
    with pytest.raises(InvalidArgumentError):
        bucketize_distance(-0.1)


def test_bucket_monotonicity_property():
    rng = np.random.default_rng(11)
    km = rng.uniform(0, 1e5, size=2000)
    pairs = km.reshape(1000, 2)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    assert all(bucketize_distance(a) <= bucketize_distance(b)
               for a, b in zip(lo, hi))
