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
import types

import hypothesis
import pytest

import normortho.kernels
import normortho.rng
from normortho import L1, LInf, Lp, Max, Scale, Sum, WLp
from normortho import _kernels_py
from normortho.kernels import get_program
from normortho.program import K_L2, K_MAX, K_SCALE, K_SUM, K_WLP1, K_WLPINF, K_WLPP

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

# Deeper trees, a leaf weighted in each, and the max of l2 and a scaled l1
COMPOSITES = (
    "max(sum(l1, lp(3)), scale(1.5, wlp(2; 1, 4)))",
    "sum(max(l2, scale(0.8, linf)), scale(0.5, max(lp(1.5), wlp(inf; 1, 2))))",
    "scale(1.2, sum(lp(4), sum(l2, wlp(1.5; 2, 1))))",
    "max(l2, scale(0.9, l1))",
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


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_reference(f, lo, hi, iters):
    """Golden-section search for the minimum of f on [lo, hi] in plain
    Python, keeping the best point evaluated, as ortho._golden_min ran it
    before the kernel took it over: what Program.line_min must equal."""
    a, b = lo, hi
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def operator_norm_reference(circle, cod, matrix):
    """The planar operator-norm sweep in plain Python, as
    explorer.operator_norm ran it before the kernel took it over: the gain
    cod.value(cod.image(matrix, circle(theta))) on a 1024-point grid, then
    golden_reference with 80 steps around its best point.  What
    cod.operator_norm(circle, matrix) must equal."""
    grid = 1024
    step = 2.0 * math.pi / grid

    def f(theta):
        return cod.value(cod.image(matrix, circle(theta)))

    best_j = 0
    best = -1.0
    for j in range(grid):
        v = f(j * step)
        if v > best:
            best, best_j = v, j
    theta0 = best_j * step
    theta, lowest = golden_reference(lambda t: -f(t), theta0 - step, theta0 + step, 80)
    if -lowest >= best:
        return -lowest, circle(theta)
    return best, circle(theta0)


def tape_reference(ast):
    """The tape (kinds, params, woff, weights, left, right, dim) as
    program.compile_ast emitted it before each Program twin derived woff,
    left and right at load: woff is where a weighted leaf's dim weights
    start in the pool (0 for other nodes), left/right hold child tape
    positions (-1 if unused).  What a loaded Program's columns must equal."""
    kinds, params, woff, weights, left, right = [], [], [], [], [], []

    def emit(kind, param=0.0, wo=0, lc=-1, rc=-1):
        kinds.append(kind)
        params.append(param)
        woff.append(wo)
        left.append(lc)
        right.append(rc)
        return len(kinds) - 1

    def wlp(p, ws):
        wo = len(weights)
        weights.extend(ws)
        if p == 1.0:
            return emit(K_WLP1, wo=wo)
        if math.isinf(p):
            return emit(K_WLPINF, wo=wo)
        return emit(K_WLPP, param=p, wo=wo)

    def walk(node):
        if isinstance(node, L1):
            return wlp(1.0, (1.0,) * node.dim)
        if isinstance(node, LInf):
            return wlp(math.inf, (1.0,) * node.dim)
        if isinstance(node, Lp):
            if node.p == 2.0:
                return emit(K_L2)
            return wlp(node.p, (1.0,) * node.dim)
        if isinstance(node, WLp):
            return wlp(node.p, node.weights)
        if isinstance(node, Max):
            lc = walk(node.left)
            rc = walk(node.right)
            return emit(K_MAX, lc=lc, rc=rc)
        if isinstance(node, Sum):
            lc = walk(node.left)
            rc = walk(node.right)
            return emit(K_SUM, lc=lc, rc=rc)
        lc = walk(node.inner)
        return emit(K_SCALE, param=node.c, lc=lc)

    walk(ast)
    return (tuple(kinds), tuple(params), tuple(woff), tuple(weights), tuple(left),
            tuple(right), ast.dim)


def interpreter_reference(kinds, params, woff, weights, left, right, dim):
    """The tape interpreter the pure twin ran before it generated code per
    tape shape, node by node over the columns tape_reference gives: an
    object whose value(u) and derivs(u, v) are what a Program's must equal."""
    n = len(kinds)

    def value_into(u, vals):
        for i in range(n):
            k = kinds[i]
            if k == K_L2:
                m = 0.0
                for j in range(dim):
                    a = abs(u[j])
                    if a > m:
                        m = a
                if m == 0.0:
                    vals[i] = 0.0
                else:
                    s = 0.0
                    for j in range(dim):
                        r = u[j] / m
                        s += r * r
                    vals[i] = m * math.sqrt(s)
            elif k == K_WLP1:
                wo = woff[i]
                s = 0.0
                for j in range(dim):
                    s += weights[wo + j] * abs(u[j])
                vals[i] = s
            elif k == K_WLPINF:
                wo = woff[i]
                m = 0.0
                for j in range(dim):
                    a = weights[wo + j] * abs(u[j])
                    if a > m:
                        m = a
                vals[i] = m
            elif k == K_WLPP:
                p = params[i]
                wo = woff[i]
                m = 0.0
                for j in range(dim):
                    a = abs(u[j])
                    if a > m:
                        m = a
                if m == 0.0:
                    vals[i] = 0.0
                else:
                    s = 0.0
                    for j in range(dim):
                        s += weights[wo + j] * math.pow(abs(u[j]) / m, p)
                    vals[i] = m * math.pow(s, 1.0 / p)
            elif k == K_MAX:
                a = vals[left[i]]
                b = vals[right[i]]
                vals[i] = a if a >= b else b
            elif k == K_SUM:
                vals[i] = vals[left[i]] + vals[right[i]]
            else:  # K_SCALE
                vals[i] = params[i] * vals[left[i]]
        return vals[n - 1]

    def base(u):
        # N_i(u) of every node, then at n + i dim + j the coefficient
        # w_j pow(|u_j| / N_i(u), p - 1) of each wlp(p) leaf nonzero at u
        vals = [0.0] * (n + n * dim)
        value_into(u, vals)
        for i in range(n):
            val = vals[i]
            if kinds[i] == K_WLPP and val != 0.0:
                pm1 = params[i] - 1.0
                wo = woff[i]
                c = n + i * dim
                for j in range(dim):
                    uj = u[j]
                    if uj != 0.0:
                        vals[c + j] = weights[wo + j] * math.pow(abs(uj) / val, pm1)
        return vals

    def direction(u, vals, v, dps, dms):
        # a leaf that is 0 at u reads vvals, N at v of every node
        vvals = None
        for i in range(n):
            k = kinds[i]
            val = vals[i]
            if (k == K_L2 or k == K_WLPINF or k == K_WLPP) and val == 0.0:
                if vvals is None:
                    vvals = [0.0] * n
                    value_into(v, vvals)
                dps[i] = vvals[i]
                dms[i] = -vvals[i]
            elif k == K_L2:
                s = 0.0
                for j in range(dim):
                    s += u[j] * v[j]
                d = s / val
                dps[i] = d
                dms[i] = d
            elif k == K_WLP1:
                wo = woff[i]
                sp = 0.0
                sa = 0.0
                for j in range(dim):
                    w = weights[wo + j]
                    uj = u[j]
                    if uj > 0.0:
                        sp += w * v[j]
                    elif uj < 0.0:
                        sp -= w * v[j]
                    else:
                        sa += w * abs(v[j])
                dps[i] = sp + sa
                dms[i] = sp - sa
            elif k == K_WLPINF:
                wo = woff[i]
                thr = (1.0 - 1e-12) * val
                dp = -math.inf
                dm = math.inf
                for j in range(dim):
                    w = weights[wo + j]
                    uj = u[j]
                    if w * abs(uj) >= thr:
                        g = w * v[j] if uj > 0.0 else -w * v[j]
                        if g > dp:
                            dp = g
                        if g < dm:
                            dm = g
                dps[i] = dp
                dms[i] = dm
            elif k == K_WLPP:
                c = n + i * dim
                d = 0.0
                for j in range(dim):
                    uj = u[j]
                    if uj > 0.0:
                        d += vals[c + j] * v[j]
                    elif uj < 0.0:
                        d -= vals[c + j] * v[j]
                dps[i] = d
                dms[i] = d
            elif k == K_MAX:
                lc = left[i]
                rc = right[i]
                a = vals[lc]
                b = vals[rc]
                m = a if a >= b else b
                if abs(a - b) <= 1e-12 * m:
                    dps[i] = dps[lc] if dps[lc] >= dps[rc] else dps[rc]
                    dms[i] = dms[lc] if dms[lc] <= dms[rc] else dms[rc]
                elif a > b:
                    dps[i] = dps[lc]
                    dms[i] = dms[lc]
                else:
                    dps[i] = dps[rc]
                    dms[i] = dms[rc]
            elif k == K_SUM:
                dps[i] = dps[left[i]] + dps[right[i]]
                dms[i] = dms[left[i]] + dms[right[i]]
            else:  # K_SCALE
                dps[i] = params[i] * dps[left[i]]
                dms[i] = params[i] * dms[left[i]]

    def derivs(u, v):
        vals = base(u)
        dps = [0.0] * n
        dms = [0.0] * n
        direction(u, vals, v, dps, dms)
        return vals[n - 1], dps[n - 1], dms[n - 1]

    return types.SimpleNamespace(value=lambda u: value_into(u, [0.0] * n), derivs=derivs)


class ProgramProxy:
    """A Program behind __getattr__, as a tracing proxy hands it out: every
    method is the real bound one."""

    __slots__ = ("_prog",)

    def __init__(self, prog):
        self._prog = prog

    def __getattr__(self, name):
        return getattr(self._prog, name)


class CallingProxy(ProgramProxy):
    """A ProgramProxy whose line evaluators are Python functions around the
    real ones, so the kernel's line search calls them back instead of
    running them inline."""

    __slots__ = ()

    def line_evaluator(self, u, v):
        phi = self._prog.line_evaluator(u, v)
        return lambda t: phi(t)


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


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def stale_extension():
    """The line that stops a session whose importable normortho._kernels
    is older than src/normortho/_kernels.c, or None.  Such an extension is
    what the package and compiled_kernels would load, so the suite would
    check the old C against the current twin."""
    spec = importlib.util.find_spec("normortho._kernels")
    source = os.path.join(_ROOT, "src", "normortho", "_kernels.c")
    if (spec is None or not os.path.isfile(source)
            or os.path.getmtime(spec.origin) >= os.path.getmtime(source)):
        return None
    return (f"{spec.origin} is older than {source}: rebuild it with "
            "`python setup.py build_ext --inplace`")


def pytest_sessionstart(session):
    message = stale_extension()
    if message is not None:
        pytest.exit(message, returncode=pytest.ExitCode.USAGE_ERROR)


def _build_kernels_c(tmp_path, *flags):
    """Path of _kernels.c built by gcc with flags into tmp_path."""
    src = os.path.join(_ROOT, "src", "normortho", "_kernels.c")
    out = tmp_path / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        ["gcc", *flags, "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"], src,
         "-o", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The compiled interpreter module.

    The package's own extension when it imports (pytest_sessionstart has
    stopped a session whose extension is older than _kernels.c); otherwise
    the committed _kernels.c built as perfbench/run.py builds it (gcc -O2,
    no -march) into a temporary directory and loaded as normortho._kernels
    (without entering it in sys.modules, so the package's own backend
    selection is untouched).
    """
    try:
        from normortho import _kernels
        return _kernels
    except ImportError:
        pass
    reason = _missing_toolchain("gcc")
    if reason is not None:
        pytest.skip(reason)
    path = _build_kernels_c(tmp_path_factory.mktemp("kernels"), "-O2")
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
