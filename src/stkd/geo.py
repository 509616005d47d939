"""Geospatial primitives: geohash6 cells, great-circle distance, distance buckets.

A geohash6 string names a latitude/longitude cell (~1.2 km x 0.6 km); its
centroid stands in for every location inside it. Distances between region
centroids are discretized into 16 half-open log2-spaced buckets shared by the
sequence features and the graph's distance relations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeohashParseError, InvalidArgumentError

BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"
_CHAR_TO_BITS = {c: i for i, c in enumerate(BASE32)}

EARTH_RADIUS_KM = 6371.0

# Half-open bucket edges in km: bucket 0 is [0, 0.25), each next bucket doubles,
# bucket 15 is [4096, inf). Doubling from 0.25: edges 0.25 * 2^i for i in 0..14.
BUCKET_EDGES_KM = tuple(0.25 * (2.0 ** i) for i in range(15))
N_DISTANCE_BUCKETS = 16
_EDGES = np.asarray(BUCKET_EDGES_KM)


def decode_geohash(code: str) -> tuple[float, float, float, float]:
    """Decode a geohash to its cell bounds (lat_min, lat_max, lon_min, lon_max)."""
    if not isinstance(code, str) or len(code) == 0:
        raise GeohashParseError("geohash must be a non-empty string")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    even = True  # geohash bits alternate starting with longitude
    for pos, ch in enumerate(code):
        bits = _CHAR_TO_BITS.get(ch)
        if bits is None:
            raise GeohashParseError(
                f"invalid geohash character {ch!r} at position {pos} in {code!r}")
        for shift in range(4, -1, -1):
            bit = (bits >> shift) & 1
            if even:
                mid = (lon_lo + lon_hi) / 2.0
                if bit:
                    lon_lo = mid
                else:
                    lon_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2.0
                if bit:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    return lat_lo, lat_hi, lon_lo, lon_hi


def geohash6_centroid(code: str) -> tuple[float, float]:
    """Center (lat, lon) of a 6-character geohash cell."""
    if not isinstance(code, str) or len(code) != 6:
        raise GeohashParseError(f"expected a 6-character geohash, got {code!r}")
    lat_lo, lat_hi, lon_lo, lon_hi = decode_geohash(code)
    return (lat_lo + lat_hi) / 2.0, (lon_lo + lon_hi) / 2.0


def encode_geohash(lat: float, lon: float, precision: int = 6) -> str:
    """Encode a point to the geohash cell containing it."""
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise InvalidArgumentError(f"coordinates out of range: ({lat}, {lon})")
    if precision < 1:
        raise InvalidArgumentError(f"precision must be >= 1, got {precision}")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    even = True
    chars = []
    bits = 0
    nbits = 0
    while len(chars) < precision:
        if even:
            mid = (lon_lo + lon_hi) / 2.0
            if lon >= mid:
                bits = (bits << 1) | 1
                lon_lo = mid
            else:
                bits = bits << 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if lat >= mid:
                bits = (bits << 1) | 1
                lat_lo = mid
            else:
                bits = bits << 1
                lat_hi = mid
        even = not even
        nbits += 1
        if nbits == 5:
            chars.append(BASE32[bits])
            bits = 0
            nbits = 0
    return "".join(chars)


def is_valid_geohash6(code) -> bool:
    """True iff code is a 6-char string over the geohash alphabet."""
    return (isinstance(code, str) and len(code) == 6
            and all(c in _CHAR_TO_BITS for c in code))


def spherical_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Haversine great-circle distance in km between (lat, lon) points."""
    lat1, lon1 = a
    lat2, lon2 = b
    for lat, lon in ((lat1, lon1), (lat2, lon2)):
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise InvalidArgumentError(f"coordinates out of range: ({lat}, {lon})")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def bucketize_distance(km: float) -> int:
    """Map a distance to one of 16 half-open log2-spaced buckets."""
    if km < 0:
        raise InvalidArgumentError(f"distance must be non-negative, got {km}")
    return int(np.searchsorted(_EDGES, km, side="right"))
