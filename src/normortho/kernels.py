"""Execution backend selection and program cache.

The compiled extension is preferred when it imported cleanly; setting the
environment variable NORMORTHO_PURE_PYTHON to any non-empty value forces
the pure Python interpreter.  Both backends expose the same Program
interface and the same operation order, so results agree to rounding.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .normast import NormAst
from .program import compile_ast

__all__ = ["backend_name"]

if os.environ.get("NORMORTHO_PURE_PYTHON"):
    from . import _kernels_py as _impl

    _BACKEND = "pure-python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[no-redef]

        _BACKEND = "compiled"
    except ImportError:
        from . import _kernels_py as _impl  # type: ignore[no-redef]

        _BACKEND = "pure-python"


def backend_name() -> str:
    """Which interpreter this process uses: 'compiled' or 'pure-python'."""
    return _BACKEND


@lru_cache(maxsize=512)
def get_program(ast: NormAst):
    """Compiled tape for ast; cached since trees are immutable."""
    return _impl.Program(*compile_ast(ast))
