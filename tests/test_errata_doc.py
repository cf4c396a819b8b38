"""ERRATA.md's summary table lists the frozen coefficient erratum set."""

from __future__ import annotations

import re
from pathlib import Path

from harmonia import EXPECTED_COEFFICIENT_ERRATA

ERRATA = Path(__file__).resolve().parents[1] / "ERRATA.md"


def _section(title: str) -> str:
    text = ERRATA.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_summary_table_is_the_locked_errata_set():
    # A coefficient with one case is listed as "(single)": its case is "all".
    rows = re.findall(r"^\| B(\d+) +\| (\S+) +\|", _section("Summary"), flags=re.MULTILINE)
    listed = [(int(index), "all" if case == "(single)" else case) for index, case in rows]
    assert len(listed) == len(set(listed))
    assert set(listed) == EXPECTED_COEFFICIENT_ERRATA
