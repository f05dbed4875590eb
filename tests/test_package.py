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
    assert len(names) <= 22
    text = README.read_text()
    assert [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)] == []


def test_config_fields_documented_in_order():
    # the README's --config paragraph lists every ExperimentConfig field
    text = README.read_text()
    paragraph = text[text.index("`--config FILE`"):].split("\n\n")[0]
    listed = re.findall(r"`(\w+)`", paragraph[paragraph.index("("):paragraph.index(")")])
    assert listed == list(mskcollide.ExperimentConfig.__dataclass_fields__)
