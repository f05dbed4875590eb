"""The package's public names."""

import re
from pathlib import Path

import mskcollide

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves_once():
    names = mskcollide.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mskcollide, name)] == []


def test_exports_are_few_and_documented():
    names = mskcollide.__all__
    assert len(names) <= 29
    text = README.read_text()
    assert [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)] == []
