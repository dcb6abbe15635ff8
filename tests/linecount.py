"""Line count of the library: the non-blank, non-comment lines of each module.

Usage (from the root of the checkout):
  python3 tests/linecount.py

Prints one line per module under src/quasicode, its count and then its path,
and a last line with the total.  A comment line is one whose first non-blank
character is '#'; docstrings count as code.  Standard library only; pytest
does not collect it.
"""
from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def count(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip() and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted((SRC / "quasicode").rglob("*.py")):
        total += (n := count(path))
        print(f"{n:6,}  {path.relative_to(SRC)}")
    print(f"{total:6,}  total")


if __name__ == "__main__":
    main()
