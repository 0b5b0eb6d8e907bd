"""Count benchmark records and digest them with their timing fields stripped.

    python3 tools/record_digest.py RECORDS.jsonl [RECORDS.jsonl ...]

Prints the number of records and the SHA-256 of their sorted,
newline-joined ``json.dumps(r.comparable_dict(), sort_keys=True)`` rows,
read through ``ffsel.read_records``.  Two sweeps whose records differ only
in timing give the same line, whatever order their cells ran in.  A file
that cannot be read, or that ``read_records`` rejects, prints
``error: <message>`` and exits 2.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ffsel import DataError, read_records  # noqa: E402


def record_digest(paths) -> tuple[int, str]:
    rows = sorted(
        json.dumps(r.comparable_dict(), sort_keys=True) for p in paths for r in read_records(p)
    )
    return len(rows), hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    try:
        count, digest = record_digest(argv)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{count} records sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
