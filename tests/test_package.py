"""The package namespace re-exports its modules' public names.

Each public name is listed once, in its module's ``__all__``; the
package's ``__all__`` is built from those lists.  ``cli`` and ``program``
are internal and stay out of the package namespace.
"""

import importlib
import pkgutil

import normortho

INTERNAL = ("cli", "program")


def _public_modules():
    for info in pkgutil.iter_modules(normortho.__path__):
        if not info.name.startswith("_") and info.name not in INTERNAL:
            yield importlib.import_module(f"normortho.{info.name}")


def test_all_has_no_duplicates():
    assert len(normortho.__all__) == len(set(normortho.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in normortho.__all__ if not hasattr(normortho, name)]
    assert not missing


def test_all_is_the_union_of_the_modules_all():
    union: set[str] = set()
    for mod in _public_modules():
        for name in mod.__all__:
            assert getattr(normortho, name) is getattr(mod, name), (mod.__name__, name)
        union.update(mod.__all__)
    assert set(normortho.__all__) == union


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from normortho import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(normortho.__all__)


def test_internal_modules_stay_out():
    for name in INTERNAL:
        mod = importlib.import_module(f"normortho.{name}")
        assert not set(mod.__all__) & set(normortho.__all__), name
