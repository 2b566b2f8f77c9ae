"""The pytest settings in pyproject.toml are ones this pytest knows."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_every_ini_key_is_known(pytestconfig):
    # --strict-config does not reject an unknown key under every pytest
    # version; getini does, with ValueError, so a misspelt key fails here.
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    options = tomllib.loads(path.read_text(encoding="utf-8"))["tool"]["pytest"]["ini_options"]
    assert options
    for key in options:
        pytestconfig.getini(key)
