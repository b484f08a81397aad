"""The package namespace: ``__all__`` and the imports in ``__init__``."""

import types

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
