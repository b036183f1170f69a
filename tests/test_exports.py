"""The package's public names: ``ipower.__all__`` lists each once, each resolves,
and the README names no private one."""

import re
from pathlib import Path

import ipower


def test_every_public_name_resolves():
    missing = [name for name in ipower.__all__ if not hasattr(ipower, name)]
    assert missing == []


def test_no_public_name_listed_twice():
    assert len(set(ipower.__all__)) == len(ipower.__all__)


def test_readme_names_no_private_name():
    # A code span such as `_x` or `module._x` would tie the README to internals.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"(`+)(.+?)\1", text, flags=re.DOTALL)
    assert [name for _, span in spans for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)] == []
