"""Named invocation counters proving which code paths a run exercised."""

from __future__ import annotations


class Counters:
    """A plain bag of monotonically increasing named counts."""

    def __init__(self):
        self._counts: dict[str, int] = {}

    def bump(self, name: str, by: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + by

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self._counts)
