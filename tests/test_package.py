"""Package layout: each public name has one home module."""

import importlib
import pkgutil

import ffsel


def modules_with_all():
    """(module, __all__) of every ffsel module; a module without __all__ fails."""
    for info in pkgutil.iter_modules(ffsel.__path__):
        module = importlib.import_module(f"ffsel.{info.name}")
        yield module, module.__all__


def test_every_listed_name_exists_in_its_module():
    missing = [f"{m.__name__}.{name}" for m, names in modules_with_all() for name in names
               if not hasattr(m, name)]
    assert missing == []


def test_no_name_is_listed_by_two_modules():
    home: dict[str, str] = {}
    for m, names in modules_with_all():
        for name in names:
            assert name not in home, f"{name} listed by {home[name]} and {m.__name__}"
            home[name] = m.__name__
