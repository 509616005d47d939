"""Purchase-event ingest: JSONL parsing, cleaning, vocabularies.

Input is line-delimited JSON, one purchase per line, with required fields
user_id, takeaway_id, timestamp, user_geohash6, shop_geohash6; any additional
string-valued field is kept as a named categorical attribute (category, brand,
aoi, ...). Events whose geohashes are empty or invalid are dropped, mirroring
the dataset-cleaning rule the models assume.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConsistencyError, DataQualityError
from .geo import is_valid_geohash6

REQUIRED_FIELDS = ("user_id", "takeaway_id", "timestamp",
                   "user_geohash6", "shop_geohash6")


@dataclass
class PurchaseEvent:
    """One takeaway purchase with raw identities and geospatial context."""

    user_id: str
    takeaway_id: str
    timestamp: int
    user_geohash6: str
    shop_geohash6: str
    attributes: dict[str, str] = field(default_factory=dict)


class Vocab:
    """Bijections from external keys to dense ids.

    Takeaways get ids 1..|V| with 0 reserved for padding; users 1..|U|;
    regions (geohash6 cells) 1..|C| with 0 reserved for padding. Attribute
    values are registered per field name.
    """

    def __init__(self):
        self.users: dict[str, int] = {}
        self.takeaways: dict[str, int] = {}
        self.regions: dict[str, int] = {}
        self.attributes: dict[str, dict[str, int]] = {}

    def add_user(self, key: str) -> int:
        return self.users.setdefault(key, len(self.users) + 1)

    def add_takeaway(self, key: str) -> int:
        return self.takeaways.setdefault(key, len(self.takeaways) + 1)

    def add_region(self, code: str) -> int:
        return self.regions.setdefault(code, len(self.regions) + 1)

    def add_attribute(self, field_name: str, value: str) -> int:
        reg = self.attributes.setdefault(field_name, {})
        return reg.setdefault(value, len(reg))

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_takeaways(self) -> int:
        return len(self.takeaways)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def content_hash(self) -> str:
        """Order-independent sha256 over every registered mapping."""
        h = hashlib.sha256()
        for name, table in (("users", self.users), ("takeaways", self.takeaways),
                            ("regions", self.regions)):
            h.update(name.encode())
            for k in sorted(table):
                h.update(f"{k}\x00{table[k]}\x01".encode())
        for fname in sorted(self.attributes):
            h.update(f"attr:{fname}".encode())
            reg = self.attributes[fname]
            for k in sorted(reg):
                h.update(f"{k}\x00{reg[k]}\x01".encode())
        return h.hexdigest()

    def to_dict(self) -> dict:
        return {"users": self.users, "takeaways": self.takeaways,
                "regions": self.regions, "attributes": self.attributes}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocab":
        """Inverse of ``to_dict``; a missing or non-object id map raises
        ConsistencyError."""
        for name in ("users", "takeaways", "regions", "attributes"):
            if not isinstance(d.get(name), dict):
                raise ConsistencyError(
                    f"vocabulary lacks the {name!r} id map")
        v = cls()
        v.users = {str(k): int(i) for k, i in d["users"].items()}
        v.takeaways = {str(k): int(i) for k, i in d["takeaways"].items()}
        v.regions = {str(k): int(i) for k, i in d["regions"].items()}
        v.attributes = {f: {str(k): int(i) for k, i in reg.items()}
                        for f, reg in d["attributes"].items()}
        return v


@dataclass
class IngestReport:
    """Counters describing what happened to the raw lines."""

    n_lines: int = 0
    n_malformed: int = 0
    n_dropped_geohash: int = 0
    n_events: int = 0


def parse_event_line(line: str) -> PurchaseEvent | None:
    """One JSONL line -> PurchaseEvent, or None if structurally malformed."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(rec, dict):
        return None
    for f in REQUIRED_FIELDS:
        if f not in rec:
            return None
    try:
        ts = int(rec["timestamp"])
    except (TypeError, ValueError):
        return None
    if ts <= 0:
        return None
    attrs = {k: str(v) for k, v in rec.items() if k not in REQUIRED_FIELDS}
    return PurchaseEvent(user_id=str(rec["user_id"]),
                         takeaway_id=str(rec["takeaway_id"]),
                         timestamp=ts,
                         user_geohash6=str(rec["user_geohash6"]),
                         shop_geohash6=str(rec["shop_geohash6"]),
                         attributes=attrs)


def ingest_events(source) -> tuple[list[PurchaseEvent], Vocab, IngestReport]:
    """Parse, clean, and index an event stream.

    `source` is a path or an iterable of lines. Returns events sorted per user
    by timestamp (input order breaks ties), a Vocab over the survivors, and
    ingest counters. Raises DataQualityError when more than half of the
    non-empty lines are malformed.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = list(source)

    report = IngestReport()
    events: list[PurchaseEvent] = []
    for line in lines:
        if not line.strip():
            continue
        report.n_lines += 1
        ev = parse_event_line(line)
        if ev is None:
            report.n_malformed += 1
            continue
        if not (is_valid_geohash6(ev.user_geohash6)
                and is_valid_geohash6(ev.shop_geohash6)):
            report.n_dropped_geohash += 1
            continue
        events.append(ev)

    if report.n_lines and report.n_malformed * 2 > report.n_lines:
        raise DataQualityError(
            f"{report.n_malformed} of {report.n_lines} lines malformed "
            f"(> 50%); refusing to continue")

    # Sort per user by timestamp with input order breaking ties: a stable sort
    # keyed on (user id, timestamp) after first grouping users by first
    # appearance keeps both guarantees.
    first_seen: dict[str, int] = {}
    for ev in events:
        first_seen.setdefault(ev.user_id, len(first_seen))
    events.sort(key=lambda e: (first_seen[e.user_id], e.timestamp))

    vocab = Vocab()
    for ev in events:
        vocab.add_user(ev.user_id)
        vocab.add_takeaway(ev.takeaway_id)
        vocab.add_region(ev.user_geohash6)
        vocab.add_region(ev.shop_geohash6)
        for fname, value in sorted(ev.attributes.items()):
            vocab.add_attribute(fname, value)

    report.n_events = len(events)
    return events, vocab, report
