"""The package namespace (``__all__`` and the imports in ``__init__``) and
the data files the wheel ships."""

import types
from pathlib import Path

import pytest

import ghzgen


def test_all_lists_exactly_the_public_names():
    # the import list and __all__ in __init__.py are kept by hand; a name
    # added to one and not the other fails here
    bound = {
        name
        for name, value in vars(ghzgen).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ghzgen.__all__) == sorted(bound)
    assert len(ghzgen.__all__) == len(set(ghzgen.__all__))


def test_every_fixture_file_is_package_data():
    # a data file that no package-data glob names is left out of the wheel
    # and only fails once installed
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["ghzgen"]
    package = root / "src" / "ghzgen"
    files = [p.relative_to(package) for p in (package / "fixtures").rglob("*") if p.is_file()]
    assert files
    missing = [str(p) for p in files if not any(p.match(glob) for glob in globs)]
    assert not missing
