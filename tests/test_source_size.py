"""The library's size ceiling: src/orlicz_lab/*.py holds at most 3,600 lines
(ROADMAP.md), so a change that adds lines there has to remove as many."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orlicz_lab"
CEILING = 3600


def test_src_stays_under_its_line_ceiling():
    counts = {p.name: len(p.read_text().splitlines()) for p in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    print(f"src/orlicz_lab/*.py: {total} lines (ceiling {CEILING})")
    assert total <= CEILING, f"src/orlicz_lab/*.py totals {total} lines, above {CEILING}: {counts}"
