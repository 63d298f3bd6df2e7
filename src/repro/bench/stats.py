"""Aggregation of run records into the statistics the paper's tables report."""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from .runner import RunRecord

__all__ = [
    "RuntimeStats",
    "runtime_stats",
    "solved_count",
    "group_records",
]


@dataclass(frozen=True)
class RuntimeStats:
    """#solved plus avg/max/stdev of runtimes over the solved instances."""

    solved: int
    total: int
    avg: float
    max: float
    stdev: float

    def as_row(self) -> list[str]:
        """Render as the four Table-1 columns (#solved, avg, max, stdev)."""
        return [
            str(self.solved),
            f"{self.avg:.2f}",
            f"{self.max:.2f}",
            f"{self.stdev:.2f}",
        ]


def solved_count(records: Iterable[RunRecord]) -> int:
    """Number of records whose instance was solved optimally."""
    return sum(1 for record in records if record.solved)


def runtime_stats(records: Sequence[RunRecord]) -> RuntimeStats:
    """Compute the Table-1 statistics over a set of records.

    Runtimes are averaged only over *solved* instances; timed-out instances
    contribute to the totals but not to the runtime statistics — exactly the
    convention stated in Section 5.1 of the paper.
    """
    solved_times = [record.runtime for record in records if record.solved]
    if not solved_times:
        return RuntimeStats(solved=0, total=len(records), avg=0.0, max=0.0, stdev=0.0)
    avg = sum(solved_times) / len(solved_times)
    spread = 0.0
    if len(solved_times) > 1:
        spread = math.sqrt(
            sum((t - avg) ** 2 for t in solved_times) / (len(solved_times) - 1)
        )
    return RuntimeStats(
        solved=len(solved_times),
        total=len(records),
        avg=avg,
        max=max(solved_times),
        stdev=spread,
    )


def group_records(
    records: Iterable[RunRecord],
) -> dict[tuple[str, str], list[RunRecord]]:
    """Group records by (origin, size group) — the row structure of Table 1."""
    grouped: dict[tuple[str, str], list[RunRecord]] = {}
    for record in records:
        grouped.setdefault((record.origin, record.group), []).append(record)
    return grouped
