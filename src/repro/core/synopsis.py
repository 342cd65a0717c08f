"""Synopsis and index-file data model (paper §2.1-2.2).

A *synopsis* is a set of aggregated data points, each summarising a group
of similar original data points; the *index file* records which original
points each aggregated point stands for.  The aggregated representation
itself ("payload") is service-specific — a small
:class:`~repro.recommender.matrix.RatingMatrix` of aggregated users for
the recommender, an :class:`~repro.search.index.InvertedIndex` of
aggregated pages for the search engine — and is produced by the service
adapter during step 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["IndexFile", "Synopsis"]


class IndexFile:
    """Mapping between aggregated data points and their original points.

    Invariant (checked by :meth:`validate`): the groups *partition* the
    set of original record ids — every original point belongs to exactly
    one aggregated point.
    """

    def __init__(self, groups):
        self._groups: list[np.ndarray] = [
            np.asarray(sorted(int(r) for r in g), dtype=np.int64) for g in groups
        ]
        self._record_to_group: dict[int, int] = {}
        for g, members in enumerate(self._groups):
            for r in members.tolist():
                if r in self._record_to_group:
                    raise ValueError(f"record {r} assigned to two groups")
                self._record_to_group[r] = g
        self._layout: tuple | None = None   # see _flat

    def __getstate__(self):
        # The flat layout is derived per process: leaving it out keeps a
        # snapshot's pickled bytes those of its groups alone.
        state = dict(self.__dict__)
        del state["_layout"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._layout = None

    def _flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sizes, members, group_at)``, built on first use, read-only.

        ``members`` holds every group's members, group by group, and
        ``group_at[i]`` is the group of ``members[i]``.  Racing builders
        store equal arrays.
        """
        layout = self._layout
        if layout is None:
            sizes = np.array([g.size for g in self._groups], dtype=np.int64)
            members = (np.concatenate(self._groups) if self._groups
                       else np.empty(0, dtype=np.int64))
            group_at = np.repeat(np.arange(sizes.size), sizes)
            for array in (sizes, members, group_at):
                array.flags.writeable = False
            layout = self._layout = (sizes, members, group_at)
        return layout

    # ------------------------------------------------------------------

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    @property
    def n_records(self) -> int:
        return len(self._record_to_group)

    def _group(self, group_id: int) -> np.ndarray:
        if not (0 <= group_id < len(self._groups)):
            raise IndexError(f"group {group_id} out of range")
        return self._groups[group_id]

    def members(self, group_id: int) -> np.ndarray:
        """Original record ids aggregated by ``group_id`` (sorted copy)."""
        return self._group(group_id).copy()

    def members_view(self, group_id: int) -> np.ndarray:
        """:meth:`members` without the copy: a read-only view.

        For hot paths that only read (Algorithm 1 touches every ranked
        group per request); anyone who might write takes :meth:`members`.
        """
        view = self._group(group_id).view()
        view.flags.writeable = False
        return view

    def group_size(self, group_id: int) -> int:
        """Number of original records aggregated by ``group_id``."""
        return self._group(group_id).size

    def group_of(self, record_id: int) -> int:
        """Aggregated point that stands for ``record_id``."""
        g = self._record_to_group.get(int(record_id))
        if g is None:
            raise KeyError(f"record {record_id} not in index file")
        return g

    def group_sizes(self) -> np.ndarray:
        """Every group's size, by group id (read-only, built once)."""
        return self._flat()[0]

    def flat_members(self) -> tuple[np.ndarray, np.ndarray]:
        """``(members, group_at)``: all groups' members laid out group by
        group, ascending within each, and the group at each position
        (read-only, built once)."""
        return self._flat()[1:]

    def all_records(self) -> np.ndarray:
        return np.array(sorted(self._record_to_group), dtype=np.int64)

    def groups(self) -> list[np.ndarray]:
        """All groups (copies), indexable by group id."""
        return [g.copy() for g in self._groups]

    def validate(self, expected_records=None) -> None:
        """Raise ``ValueError`` if the partition invariant is broken."""
        total = sum(g.size for g in self._groups)
        if total != self.n_records:
            raise ValueError("groups overlap")  # pragma: no cover - ctor guards
        if expected_records is not None:
            expected = set(int(r) for r in expected_records)
            if expected != set(self._record_to_group):
                missing = expected - set(self._record_to_group)
                extra = set(self._record_to_group) - expected
                raise ValueError(
                    f"index file does not cover partition: missing={sorted(missing)[:5]} "
                    f"extra={sorted(extra)[:5]}"
                )

    # -- persistence ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps([g.tolist() for g in self._groups])

    @classmethod
    def from_json(cls, text: str) -> "IndexFile":
        return cls(json.loads(text))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexFile):
            return NotImplemented
        return len(self._groups) == len(other._groups) and all(
            np.array_equal(a, b) for a, b in zip(self._groups, other._groups)
        )


@dataclass
class Synopsis:
    """A partition's synopsis: aggregated payload + index file + metadata.

    Attributes
    ----------
    index:
        The :class:`IndexFile` mapping aggregated -> original points.
    payload:
        Service-specific aggregated representation (step-3 output).
    level:
        R-tree level the groups were extracted from.
    n_original:
        Number of original data points summarised.
    meta:
        Free-form build metadata (timings, config echo) for reporting.
    """

    index: IndexFile
    payload: Any
    level: int
    n_original: int
    meta: dict = field(default_factory=dict)

    @property
    def n_aggregated(self) -> int:
        return self.index.n_groups

    @property
    def aggregation_ratio(self) -> float:
        """Average original points per aggregated point (paper reports
        133.01 for the recommender, 42.55 for the search engine)."""
        if self.n_aggregated == 0:
            return 0.0
        return self.n_original / self.n_aggregated
