"""Benchmark records: the schema, the cell key, and the JSON-lines file.

A records file holds one record per line, as compact JSON.  Every
newline-terminated line must be a record (DataError otherwise, naming the
file and line).  Only the bytes after the last newline can be a write cut
short: resuming drops them with a warning when they are not JSON, and keeps
a whole record there, ending it with a newline.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .data import DataError

__all__ = ["BenchmarkRecord", "CELL_KEY_FIELDS", "TIMING_FIELDS", "read_records", "read_for_resume", "appending"]

log = logging.getLogger("ffsel.records")

# Record fields excluded from determinism comparisons by design.
TIMING_FIELDS = ("selection_cpu_seconds", "training_cpu_seconds")

# Record fields that identify the sweep cell a record fills, in key order.
CELL_KEY_FIELDS = ("dataset", "algorithm", "variant", "estimator", "classifier", "k", "alpha", "seed")


@dataclasses.dataclass(frozen=True)
class BenchmarkRecord:
    """One benchmark cell: a selection configuration evaluated by one classifier."""

    dataset: str
    algorithm: str
    variant: str
    estimator: str
    classifier: str
    k: int
    alpha: float | None
    n_selected: int
    cv_mean_accuracy: float
    cv_sd: float
    selection_cpu_seconds: float
    training_cpu_seconds: float
    seed: int
    settings: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.cv_mean_accuracy <= 1.0:
            raise ValueError(f"accuracy out of [0, 1]: {self.cv_mean_accuracy}")
        if self.cv_sd < 0:
            raise ValueError("cv_sd must be >= 0")
        if self.n_selected < 1:
            raise ValueError("n_selected must be >= 1")

    def as_dict(self) -> dict:
        """The fields in order, as `dataclasses.asdict` gives them; only
        `settings` and its lists are copied, since every other value is a
        string, a number or None."""
        row = {name: getattr(self, name) for name in _FIELD_NAMES}
        row["settings"] = {key: list(v) if isinstance(v, list) else v for key, v in self.settings.items()}
        return row

    def comparable_dict(self) -> dict:
        """Record content with timing fields stripped, for determinism checks."""
        row = self.as_dict()
        for f in TIMING_FIELDS:
            row.pop(f)
        return row

    def cell_key(self) -> tuple:
        """Identity of the sweep cell this record fills."""
        return tuple(getattr(self, f) for f in CELL_KEY_FIELDS)


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(BenchmarkRecord))


class _NotJson(DataError):
    """A records line that is not JSON; as the last line, a write cut short."""


def _records_in(path: Path, data: bytes, first_line: int = 1) -> Iterator[BenchmarkRecord]:
    """Records of JSON-lines bytes read from `path`, lines numbered from
    `first_line`; DataError, naming the file and line, on a line that is not
    blank and holds no record.
    """
    for n, raw in enumerate(data.split(b"\n"), first_line):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} line {n} is not UTF-8 text: {exc}") from None
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _NotJson(f"{path} line {n} is not valid JSON: {exc}") from None
        try:
            rec = BenchmarkRecord(**row)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path} line {n} is not a benchmark record: {exc}") from None
        yield rec


def read_records(path: str | Path) -> list[BenchmarkRecord]:
    """Load benchmark records from a JSON-lines file."""
    path = Path(path)
    return list(_records_in(path, path.read_bytes()))


def read_for_resume(path: Path) -> tuple[list[BenchmarkRecord], int]:
    """Records stored in `path` (none when it does not exist), and how many
    of its bytes to keep when appending: all but a torn last line."""
    data = path.read_bytes() if path.exists() else b""
    start = data.rfind(b"\n") + 1
    stored = list(_records_in(path, data[:start]))
    try:
        stored += _records_in(path, data[start:], data.count(b"\n") + 1)
    except _NotJson:
        log.warning("dropping the unfinished last line of %s (interrupted write?)", path)
        return stored, start
    return stored, len(data)


@contextlib.contextmanager
def appending(path: Path, keep: int) -> Iterator[Callable[[Sequence[BenchmarkRecord]], None]]:
    """Cut `path` to its first `keep` bytes, end its last line, and yield a
    function that appends and flushes a batch of records."""
    with path.open("a+b") as sink:
        sink.truncate(keep)
        sink.seek(max(keep - 1, 0))
        if sink.read(1) not in (b"", b"\n"):
            sink.write(b"\n")

        def append(batch: Sequence[BenchmarkRecord]) -> None:
            for rec in batch:
                sink.write(json.dumps(rec.as_dict(), separators=(",", ":")).encode() + b"\n")
            sink.flush()

        yield append
