"""The package's public names: ``ipower.__all__`` lists each once, and each resolves."""

import ipower


def test_every_public_name_resolves():
    missing = [name for name in ipower.__all__ if not hasattr(ipower, name)]
    assert missing == []


def test_no_public_name_listed_twice():
    assert len(set(ipower.__all__)) == len(ipower.__all__)
