"""The package namespace re-exports its modules' public names.

Each public name is listed once, in its module's ``__all__``; the
package's ``__all__`` is built from those lists.  ``cli`` and ``program``
are internal and stay out of the package namespace.
"""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil
import sys

import normortho
from normortho import program

INTERNAL = ("cli", "program")

RECORDS = ("AngleResult", "ProbeReport", "ExtremeEstimate", "OperatorNormEstimate",
           "ConditionReport", "PreserverReport", "IncomparabilityReport", "OrthoVerdict",
           "NormAudit", "LocusPoint", "DerivResult")

SOURCES = sorted(pathlib.Path(normortho.__file__).parent.glob("*.py"))


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


def test_results_are_named_tuples_and_dataclasses_validate():
    # a result record validates nothing, so it is a named tuple; a frozen
    # dataclass is kept only where __post_init__ checks the input
    for name in RECORDS:
        cls = getattr(normortho, name)
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), name
    for name in normortho.__all__:
        obj = getattr(normortho, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            assert hasattr(obj, "__post_init__"), name


def _parsed():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _dunder_all(tree) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _read_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_every_import_is_used():
    unused = []
    for name, tree in _parsed().items():
        used = _read_names(tree) | _dunder_all(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_every_private_top_level_name_is_referenced():
    trees = _parsed()
    referenced = set()
    for tree in trees.values():
        referenced |= _read_names(tree)
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for ident in defined:
                private = ident.startswith("_") and not ident.endswith("__")
                if private and ident not in referenced:
                    dead.append(f"{name}: {ident}")
    assert not dead


def test_program_imports_nothing_that_imports_the_kernels():
    # the compiled twin imports program when it loads; an import from
    # program that led back to kernels would close an import cycle
    tree = _parsed()["program.py"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                imported.update([node.module] if node.module else
                                (alias.name for alias in node.names))
            else:
                imported.add(node.module.split(".")[0])
    package = imported - sys.stdlib_module_names
    assert imported and package <= {"normast", "errors"}, package


def test_locus_point_has_the_row_layout_the_compiled_twin_builds():
    # the compiled twin allocates each row as a tuple and untracks it from
    # the cyclic GC, which holds only for a tuple subclass without a __dict__
    assert issubclass(program.LocusPoint, tuple)
    assert program.LocusPoint.__dictoffset__ == 0
    assert normortho.LocusPoint is normortho.ortho.LocusPoint is program.LocusPoint
    assert normortho.RELATION_TAGS is program.RELATION_TAGS
    assert not {"LocusPoint", "RELATION_TAGS"} & set(program.__all__)
