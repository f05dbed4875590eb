"""The package's public names."""

import mskcollide


def test_every_export_resolves_once():
    names = mskcollide.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mskcollide, name)] == []
