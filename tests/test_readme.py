"""README's "Sweep configs" section matches the config schema it documents."""

from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path

from harmonia import SweepConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_listed_fields_are_the_config_fields():
    listed = re.findall(r"^- `(\w+)`:", _section("Sweep configs"), flags=re.MULTILINE)
    assert listed == [f.name for f in fields(SweepConfig)]


def test_json_example_is_a_valid_config():
    example = re.search(r"```json\n(.*?)```", _section("Sweep configs"), flags=re.DOTALL)
    cfg = SweepConfig.from_dict(json.loads(example.group(1)))
    assert cfg == SweepConfig.from_dict(cfg.to_dict())
