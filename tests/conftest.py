"""Shared fixtures and helpers for the normortho test suite."""

import importlib.util
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import sysconfig

import hypothesis
import pytest

import normortho.kernels
import normortho.rng
from normortho import L1, LInf, Lp, Max, Scale, Sum, WLp
from normortho import _kernels_py
from normortho.kernels import get_program

hypothesis.settings.register_profile(
    "suite", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("suite")

# Norm expressions exercised by every sampled invariant test: the atomic
# norms, a smooth and a non-smooth lp exponent, a weighted lp, and one of
# each combinator.
FAMILIES = (
    "l1",
    "l2",
    "linf",
    "lp(3)",
    "lp(1.5)",
    "wlp(2; 1, 4)",
    "max(l1, l2)",
    "sum(l1, linf)",
    "scale(0.7, l2)",
)

# Families whose unit sphere has no corner, so numeric enclosures tighten.
SMOOTH_FAMILIES = ("l2", "lp(3)", "lp(1.5)", "wlp(2; 1, 4)", "scale(0.7, l2)")


def gen_ast(rng, dim, depth):
    """Random norm AST with nesting bounded by depth.

    Driven by a SplitMix64 stream so the same seed reproduces the same
    expression tree on every platform.
    """
    if depth <= 0 or rng.random() < 0.55:
        pick = int(rng.random() * 5)
        if pick == 0:
            return L1(dim)
        if pick == 1:
            return Lp(dim, 2.0)
        if pick == 2:
            return LInf(dim)
        if pick == 3:
            return Lp(dim, 1.25 + 3.0 * rng.random())
        p = math.inf if rng.random() < 0.2 else 1.0 + 2.5 * rng.random()
        return WLp(p, tuple(0.25 + 2.0 * rng.random() for _ in range(dim)))
    pick = int(rng.random() * 3)
    if pick == 0:
        return Max(gen_ast(rng, dim, depth - 1), gen_ast(rng, dim, depth - 1))
    if pick == 1:
        return Sum(gen_ast(rng, dim, depth - 1), gen_ast(rng, dim, depth - 1))
    return Scale(0.25 + 2.0 * rng.random(), gen_ast(rng, dim, depth - 1))


_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[a-z]+|[(),;]|\s+")


def mutate(text, rng):
    """Damage a well-formed norm expression so it can no longer parse.

    Three kinds, all provably invalid for this grammar: insert a character
    outside the token alphabet, flip one parenthesis (or append a stray
    closer when there are none), or delete one whole token.  Single-token
    deletion always breaks the fixed arity of some production; deleting a
    lone character could leave a valid string (dropping the 3 in lp(23)),
    so the deletion works on tokens.
    """
    kind = int(rng.random() * 3)
    if kind == 0:
        pos = int(rng.random() * (len(text) + 1))
        return text[:pos] + "@" + text[pos:]
    if kind == 1:
        parens = [i for i, c in enumerate(text) if c in "()"]
        if not parens:
            return text + ")"
        i = parens[int(rng.random() * len(parens))]
        flip = ")" if text[i] == "(" else "("
        return text[:i] + flip + text[i + 1 :]
    tokens = [m for m in _TOKEN_RE.finditer(text) if not m.group().isspace()]
    if not tokens:
        return "@"
    m = tokens[int(rng.random() * len(tokens))]
    return text[: m.start()] + text[m.end() :]


def circle_reference(prog, theta):
    """(cos theta, sin theta) / r with r = prog.value((cos theta, sin theta)),
    from Python's math and prog.value: what prog.circle(theta) must equal."""
    d0 = math.cos(theta)
    d1 = math.sin(theta)
    r = prog.value((d0, d1))
    return (d0 / r, d1 / r)


class ScriptedDraws:
    """A SplitMix64 stand-in that returns scripted vectors and uniforms in
    order, and the given generators as its substreams."""

    def __init__(self, vectors=(), uniforms=(), substreams=None):
        self._vectors = iter(vectors)
        self._uniforms = iter(uniforms)
        self._substreams = substreams or {}

    def vector(self, dim, lo, hi):
        return next(self._vectors)

    def uniform(self, lo, hi):
        return next(self._uniforms)

    def substream(self, index):
        return self._substreams[index]


def hexes(obj):
    """Every float in obj (nested tuples, None, bools and strings allowed)
    as float.hex, so two results compare bit for bit."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, tuple):
        return "(" + ",".join(hexes(x) for x in obj) + ")"
    return repr(obj)


def _missing_toolchain(cc=None, tools=(), machines=None):
    """Why the extension cannot be built here with cc (default: the
    compiler Python was built with) and inspected with tools on one of
    machines (default: any), or None if it can."""
    if not os.path.isfile(os.path.join(sysconfig.get_paths()["include"], "Python.h")):
        return "no Python headers to build the compiled backend"
    cc = cc or (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        return f"no C compiler ({cc}) to build the compiled backend"
    for tool in tools:
        if shutil.which(tool) is None:
            return f"no {tool} to inspect the compiled backend"
    if machines is not None and platform.machine() not in machines:
        return f"checked on {', '.join(machines)} only, not {platform.machine()}"
    return None


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The compiled interpreter module.

    The package's own extension when it imports; otherwise the committed
    _kernels.c built by setup.py into a temporary directory and loaded as
    normortho._kernels (without entering it in sys.modules, so the
    package's own backend selection is untouched).
    """
    try:
        from normortho import _kernels
        return _kernels
    except ImportError:
        pass
    reason = _missing_toolchain()
    if reason is not None:
        pytest.skip(reason)
    out = tmp_path_factory.mktemp("kernels")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out)],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        pytest.fail("building _kernels.c failed:\n" + proc.stdout + proc.stderr)
    path = out / "normortho" / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    spec = importlib.util.spec_from_file_location("normortho._kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def backend(request):
    """Interpreter module named by an indirect parameter: "_kernels_py"
    or "_kernels"."""
    if request.param == "_kernels_py":
        return _kernels_py
    return request.getfixturevalue("compiled_kernels")


@pytest.fixture
def package_backend(backend, monkeypatch):
    """backend, installed as the whole package's for one test: its tape
    interpreter behind get_program and its SplitMix64 in every module
    that bound the selected one."""
    monkeypatch.setattr(normortho.kernels, "_impl", backend)
    selected = normortho.rng.SplitMix64
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "normortho" and getattr(mod, "SplitMix64", None) is selected:
            monkeypatch.setattr(mod, "SplitMix64", backend.SplitMix64)
    get_program.cache_clear()
    yield backend
    get_program.cache_clear()
