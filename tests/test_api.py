"""The package's public surface."""

import coverplan


def test_exported_names_resolve_once():
    """Every name in ``coverplan.__all__`` exists, and none is listed twice."""
    names = coverplan.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(coverplan, name)]
    assert not missing
