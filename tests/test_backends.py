"""Agreement and selection tests for the two evaluation backends."""

import ast as python_ast
import decimal
import fractions
import functools
import gc
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from normortho import (
    L1, LInf, LocusPoint, Lp, Max, NonSmoothPointError, RELATION_TAGS, Scale, SplitMix64,
    Sum, ZeroVectorError, backend_name, corner_vectors, parse_norm, print_norm,
)
from normortho import _kernels_py, program
from normortho.program import compile_ast

from conftest import (
    COMPOSITES, FAMILIES, _build_kernels_c, _missing_toolchain, circle_reference, gen_ast,
    golden_reference, interpreter_reference, operator_norm_reference, tape_reference,
)

# the planar norms the sweeps run on: every family and seeded random trees
PLANAR = ([pytest.param(parse_norm(f, 2), id=f) for f in FAMILIES]
          + [pytest.param(gen_ast(SplitMix64(seed), 2, 3), id=f"gen_ast-{seed}")
             for seed in range(6)])


@pytest.fixture
def pair(compiled_kernels):
    def make(ast):
        tape = compile_ast(ast)
        return compiled_kernels.Program(*tape), _kernels_py.Program(*tape)
    return make


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _outcome(call, *args):
    """What call(*args) gives, comparable across backends: the float.hex of
    a float or of each float of a tuple, or the exception's type and text."""
    try:
        out = call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):
        return tuple(x.hex() for x in out)
    return out.hex()


def test_kernels_c_builds_without_warnings(tmp_path):
    reason = _missing_toolchain("gcc")
    if reason is not None:
        pytest.skip(reason)
    _build_kernels_c(tmp_path, "-O2", "-Wall", "-Wextra", "-Werror")


@pytest.mark.parametrize("point, shown", [
    ("Attributed", "<class '__main__.Attributed'>"), ("list", "<class 'list'>"), ("None", "None")],
    ids=["dict", "list", "None"])
def test_kernels_load_only_with_a_tuple_locus_point(point, shown, compiled_kernels):
    # each locus row is allocated as a tuple and untracked from the cyclic
    # GC, so the extension loads only if LocusPoint is a tuple subclass
    # without an instance __dict__
    code = (
        "import importlib.util, sys\n"
        "from normortho import program\n"
        "class Attributed(tuple):\n"
        "    pass\n"
        f"program.LocusPoint = {point}\n"
        "spec = importlib.util.spec_from_file_location('normortho._kernels', sys.argv[1])\n"
        "try:\n"
        "    importlib.util.module_from_spec(spec)\n"
        "except TypeError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, compiled_kernels.__file__],
                         capture_output=True, text=True, check=True)
    assert out.stdout == f"LocusPoint must be a tuple subclass without a __dict__, got {shown}\n"


def test_kernels_c_holds_no_fused_multiply_add(tmp_path):
    # The twin rounds every product before adding it.  A target with FMA
    # (here -mfma; aarch64 or -march=native elsewhere) must not fuse them.
    reason = _missing_toolchain("gcc", tools=("objdump",), machines=("x86_64", "AMD64"))
    if reason is not None:
        pytest.skip(reason)
    lib = _build_kernels_c(tmp_path, "-O2", "-mfma")
    asm = subprocess.run(["objdump", "-d", str(lib)], capture_output=True, text=True,
                         check=True).stdout
    assert "<value_of>:" in asm
    assert re.findall(r"\bv(?:fmadd|fmsub|fnmadd|fnmsub)\w*", asm) == []


@pytest.mark.parametrize("stale", [True, False])
def test_stale_extension_stops_the_session(stale, compiled_kernels, tmp_path):
    # a copy of the package whose in-tree extension is older (or newer)
    # than its _kernels.c, beside this suite's conftest and one passing test
    here = os.path.dirname(os.path.abspath(__file__))
    pkg = tmp_path / "src" / "normortho"
    shutil.copytree(os.path.join(here, os.pardir, "src", "normortho"), pkg,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    ext = pkg / os.path.basename(compiled_kernels.__file__)
    shutil.copy(compiled_kernels.__file__, ext)
    source = pkg / "_kernels.c"
    shift = -60 if stale else 60
    os.utime(ext, (os.path.getmtime(source) + shift,) * 2)
    (tmp_path / "tests").mkdir()
    shutil.copy(os.path.join(here, "conftest.py"), tmp_path / "tests")
    (tmp_path / "tests" / "test_one.py").write_text("def test_one():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
    )
    if stale:
        assert proc.returncode == pytest.ExitCode.USAGE_ERROR
        assert proc.stderr.splitlines() == [
            f"Exit: {ext} is older than {source}: rebuild it with "
            "`python setup.py build_ext --inplace`"]
        assert "passed" not in proc.stdout
    else:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 passed" in proc.stdout


def test_backend_name_is_known():
    assert backend_name() in ("compiled", "pure-python")


def test_extension_selected_when_present(compiled_kernels):
    # A fresh process whose import system finds the extension selects it,
    # for the tape interpreter and for SplitMix64.
    code = (
        "import importlib.abc, importlib.util, sys\n"
        "class Finder(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'normortho._kernels':\n"
        "            return importlib.util.spec_from_file_location(name, sys.argv[1])\n"
        "sys.meta_path.insert(0, Finder())\n"
        "import normortho\n"
        "print(normortho.backend_name())\n"
        "print(normortho.SplitMix64.__module__, normortho.rng.SplitMix64 is normortho.SplitMix64)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "NORMORTHO_PURE_PYTHON"}
    out = subprocess.run(
        [sys.executable, "-c", code, compiled_kernels.__file__],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.splitlines() == ["compiled", "normortho._kernels True"]


@pytest.mark.parametrize("family", FAMILIES)
def test_value_and_derivs_agree(family, pair):
    ast = parse_norm(family, 2)
    fast, slow = pair(ast)
    rng = SplitMix64(hash(family) & 0xFFFF)
    for _ in range(200):
        u = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert _rel(fast.value(u), slow.value(u)) <= 1e-12
        if u == (0.0, 0.0):
            continue
        fa = fast.derivs(u, v)
        sl = slow.derivs(u, v)
        for x, y in zip(fa, sl):
            assert _rel(x, y) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_line_evaluators_agree(family, pair):
    ast = parse_norm(family, 2)
    fast, slow = pair(ast)
    rng = SplitMix64(7)
    for _ in range(50):
        u = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        lf = fast.line_evaluator(u, v)
        ls = slow.line_evaluator(u, v)
        for k in range(-8, 9):
            t = 0.37 * k
            assert _rel(lf(t), ls(t)) <= 1e-12


@pytest.mark.parametrize("bad", [(1.0,), (1.0, 2.0, 3.0)])
def test_both_backends_reject_wrong_length(bad, pair):
    ok = (1.0, 2.0)
    for prog in pair(parse_norm("l2", 2)):
        calls = (
            lambda: prog.value(bad),
            lambda: prog.derivs(bad, ok),
            lambda: prog.derivs(ok, bad),
            lambda: prog.line_evaluator(bad, ok),
            lambda: prog.line_evaluator(ok, bad),
        )
        for call in calls:
            with pytest.raises(ValueError, match="expected 2 coordinates"):
                call()


def test_both_backends_reject_non_numeric_coordinate(pair):
    for prog in pair(parse_norm("l2", 2)):
        with pytest.raises(TypeError):
            prog.value((1.0, "x"))
        with pytest.raises(TypeError):
            prog.derivs((1.0, 0.0), (None, 1.0))
        with pytest.raises(TypeError):
            prog.line_evaluator((1.0, 0.0), (0.0, 1.0))("t")


@pytest.mark.parametrize("u, v, want", [
    (("1", "2"), (1.0, 0.0), "must be real number, not str"),
    ((1.0, 0.0), (0.0, None), "must be real number, not NoneType"),
    ((3, 4), (True, 0), (3.5, 4.0)),
])
def test_line_evaluator_reads_coordinates_as_doubles(u, v, want, pair):
    # u and v are read when phi is made, each coordinate as a double
    fast, slow = pair(parse_norm("l2", 2))
    outcomes = []
    for prog in (fast, slow):
        try:
            outcomes.append(prog.line_evaluator(u, v)(0.5).hex())
        except TypeError as exc:
            outcomes.append(str(exc))
    if isinstance(want, tuple):
        want = slow.value(want).hex()
    assert outcomes == [want, want]


def test_long_tape_agrees_bitwise(pair):
    # 299 nodes: more scratch than the compiled kernel keeps on the stack,
    # so its heap path runs, including the lazy pass at v for zero leaves.
    ast = functools.reduce(Sum, [L1(2), Lp(2, 2.0), LInf(2)] * 50)
    fast, slow = pair(ast)
    rng = SplitMix64(11)
    points = [(0.0, 0.0), (1.0, 0.0)]
    points += [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(20)]
    for u in points:
        v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert fast.value(u).hex() == slow.value(u).hex()
        assert [x.hex() for x in fast.derivs(u, v)] == [x.hex() for x in slow.derivs(u, v)]
        lf, ls = fast.line_evaluator(u, v), slow.line_evaluator(u, v)
        for t in (-2.0, -0.37, 0.0, 0.5, 3.0):
            assert lf(t).hex() == ls(t).hex()


def test_env_override_forces_pure_python():
    env = dict(os.environ, NORMORTHO_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "import normortho; print(normortho.backend_name())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure-python"


def test_pure_python_results_reachable_through_api():
    env = dict(os.environ, NORMORTHO_PURE_PYTHON="1")
    code = (
        "from normortho import rho_pm, parse_norm;"
        "print(rho_pm(parse_norm('lp(3)', 2), (1.0, 1.0), (1.0, 0.0), 'plus').value)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    want = 2.0 ** (-1.0 / 3.0)
    assert abs(float(out.stdout.strip()) - want) < 1e-12


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("tape, message", [
    (((), (), (), 2), "kinds and params must have the same length n >= 1"),
    (((0, 0), (0.0,), (), 2), "kinds and params must have the same length n >= 1"),
    (((9,), (0.0,), (), 2), "tape node 0: unknown kind 9"),
    (((-1,), (0.0,), (), 2), "tape node 0: unknown kind -1"),
    (((0, 4), (0.0, 0.0), (), 2), "tape node 1: kind 4 pops 2, the stack holds 1"),
    (((6,), (2.0,), (), 2), "tape node 0: kind 6 pops 1, the stack holds 0"),
    (((0, 0), (0.0, 0.0), (), 2), "tape ends with 2 values on the stack, not 1"),
    (((1,), (0.0,), (1.0,), 2), "the weight pool holds 1, the weighted leaves take 2"),
    (((1,), (0.0,), (1.0, 1.0, 1.0), 2), "the weight pool holds 3, the weighted leaves take 2"),
])
def test_both_backends_reject_malformed_tape(backend, tape, message):
    with pytest.raises(ValueError) as exc:
        backend.Program(*tape)
    assert str(exc.value) == message


# every family and composite, and seeded random trees at dims 2-5
_TAPE_TREES = ([parse_norm(f, 2) for f in FAMILIES + COMPOSITES]
               + [gen_ast(SplitMix64(seed), 2 + seed % 4, 4) for seed in range(240)])


def test_loaded_tape_matches_the_reference_compiler():
    # each twin derives woff, left and right from the post-order tape
    for ast in _TAPE_TREES:
        kinds, params, woff, weights, left, right, dim = tape_reference(ast)
        prog = _kernels_py.Program(*compile_ast(ast))
        assert (prog.kinds, prog.params, prog.weights, prog.dim) == (kinds, params, weights, dim)
        shape = _kernels_py._shape(kinds, dim)
        assert (shape.left, shape.right, shape.woff) == (left, right, woff), print_norm(ast)


def test_loaded_tapes_agree_bitwise_across_backends(pair):
    draws = SplitMix64(20)
    for ast in _TAPE_TREES:
        fast, slow = pair(ast)
        u = draws.vector(ast.dim, -2.0, 2.0)
        v = draws.vector(ast.dim, -2.0, 2.0)
        calls = [("value", u), ("derivs", u, v)] + [
            ("residual", code, 0.3, 0.4, u, v) for code in range(len(RELATION_TAGS))]
        for name, *args in calls:
            assert (_outcome(getattr(fast, name), *args)
                    == _outcome(getattr(slow, name), *args)), (print_norm(ast), name, args)


# the trees the generated passes are pinned on: those above, and seeded
# trees and two atoms at dim 6, where the passes loop over coordinates
_CODEGEN_TREES = (_TAPE_TREES + [gen_ast(SplitMix64(1000 + seed), 6, 4) for seed in range(24)]
                  + [parse_norm("l2", 6), parse_norm("max(l1, linf)", 6)])


def _codegen_points(dim, draws):
    """Points that stress the passes: the zero vector, corners, linf and
    max ties, an linf near-tie just outside the tie band, subnormals,
    1e+-300 and random points."""
    pts = [(0.0,) * dim, (1.0,) + (0.0,) * (dim - 1), (0.0,) * (dim - 1) + (-2.0,),
           tuple((-1.0) ** j for j in range(dim)), (3.0, -3.0) + (0.5,) * (dim - 2),
           (1.0, 1e-10 - 1.0) + (0.25,) * (dim - 2),
           tuple(5e-324 * (j - 1) for j in range(dim)),
           (-2.2250738585072014e-308,) + (1e-310,) * (dim - 1)]
    for s in (1e-300, 1.0, 1e300):
        pts.append(tuple(s * x for x in draws.vector(dim, -2.0, 2.0)))
    return pts


@pytest.mark.parametrize("part", range(4))
def test_generated_passes_match_the_interpreter(part):
    # bit for bit against the node-by-node interpreter the passes replace
    draws = SplitMix64(21 + part)
    for ast in _CODEGEN_TREES[part::4]:
        ref = interpreter_reference(*tape_reference(ast))
        prog = _kernels_py.Program(*compile_ast(ast))
        dim = ast.dim
        pts = _codegen_points(dim, draws)
        for u in pts:
            assert _outcome(prog.value, u) == _outcome(ref.value, u), (print_norm(ast), u)
            for v in pts[1::3]:
                assert _outcome(prog.derivs, u, v) == _outcome(ref.derivs, u, v)
                phi = prog.line_evaluator(u, v)
                for t in (-1.5, 0.0, 0.25):
                    x = tuple([a + t * b for a, b in zip(u, v)])
                    assert _outcome(phi, t) == _outcome(ref.value, x), (u, v, t)
        for u in pts[::2]:
            for code in CODES:
                want = [_outcome(residual_reference, ref, code, 0.3, 0.5, u, v) for v in pts]
                assert [_outcome(prog.residual, code, 0.3, 0.5, u, v) for v in pts] == want
        matrix = [draws.vector(3, -2.0, 2.0) for _ in range(dim)]
        for x in [(0.0, 0.0, 0.0), (1.0, -1.0, 0.5), draws.vector(3, -1e300, 1e300)]:
            y = _image_reference(matrix, x)
            assert _outcome(prog.image, matrix, x) == _outcome(tuple, y)
            assert _outcome(prog.value, y) == _outcome(ref.value, y)
        if dim == 2:
            for theta in (0.0, 0.75, math.pi / 4.0, 2.5, -3.0):
                assert _outcome(prog.circle, theta) == _outcome(circle_reference, ref, theta)
            ring = [circle_reference(ref, j * 2.0 * math.pi / 16) for j in range(16)]
            for u in pts[::2]:
                for code in CODES:
                    want = [_outcome(residual_reference, ref, code, 0.3, 0.5, u, x) for x in ring]
                    scan = _floats(prog.residuals, code, 0.3, 0.5, u, 16)
                    assert scan == next((w for w in want if isinstance(w, tuple)), want)


# the passes a planar _kernels_py._Shape writes
_PASSES = ("bind", "gain", "values", "directions", "circle_residual")


def test_shapes_share_one_factory_and_hold_no_numbers():
    # two tapes of one shape, every parameter and weight distinct: one
    # cached factory, one copy of each pass, and no number of either tape
    # in any pass's source
    one = parse_norm("max(sum(wlp(1.5; 1.1234567, 2.7654321), l1), scale(0.6180339, l2))", 2)
    two = parse_norm("max(sum(wlp(3.25; 0.3141592, 9.8765432), l1), scale(1.4142135, l2))", 2)
    (kinds, params, weights, dim), tape = compile_ast(one), compile_ast(two)
    assert tape[0] == kinds and tape[1:3] != (params, weights)
    first, second = _kernels_py.Program(kinds, params, weights, dim), _kernels_py.Program(*tape)
    for name in ("_value", "_dirs", "_line"):
        assert getattr(first, name).__code__ is getattr(second, name).__code__
    shape = _kernels_py._shape(kinds, dim)
    assert _kernels_py._shape(tape[0], dim) is shape
    for name in _PASSES[1:]:
        assert (first._shape.compiled(name) is second._shape.compiled(name)
                is shape.namespace[name]), name
    numbers = {x for x in params + weights + tape[1] + tape[2] if x not in (0.0, 1.0)}
    assert len(numbers) == 8
    for name in _PASSES:
        source = shape.source(name)
        assert f"def {name}(" in source
        for x in numbers:
            assert repr(x) not in source and str(x)[:5] not in source, name


def test_a_shape_compiles_each_pass_at_its_first_use():
    # a new shape compiles bind alone; a value or a derivative compiles
    # nothing more, and each sweep or search its own passes, once
    _kernels_py._shape.cache_clear()
    prog = _kernels_py.Program(*compile_ast(gen_ast(SplitMix64(77), 2, 3)))

    def passes():
        return {name: fn for name, fn in prog._shape.namespace.items() if name in _PASSES}

    prog.value((0.5, -1.0))
    prog.derivs((0.5, -1.0), (1.0, 0.25))
    prog.residual(3, 0.0, 0.0, (0.5, -1.0), (1.0, 0.25))
    assert set(passes()) == {"bind"}
    u = (0.6, -0.35)
    prog.residuals(3, 0.0, 0.0, u, 16)
    assert set(passes()) == {"bind", "values", "directions"}
    prog.crossing(3, 0.0, 0.0, u, 0.0, 1.0, 1.0, 1e-3)
    assert set(passes()) == {"bind", "values", "directions", "circle_residual"}
    before = passes()
    prog.operator_norm(prog.circle, ((1.0, 0.5), (-0.5, 1.0)))
    assert set(passes()) == set(_PASSES)
    prog.crossing(3, 0.0, 0.0, u, 0.0, 1.0, 1.0, 1e-3)
    assert all(passes()[name] is fn for name, fn in before.items())


# every family and composite, and seeded random trees at dims 2-6
_SOURCE_TREES = ([parse_norm(f, 2) for f in FAMILIES + COMPOSITES]
                 + [gen_ast(SplitMix64(300 + seed), 2 + seed % 5, 4) for seed in range(120)])


def test_every_name_a_pass_assigns_is_read():
    # each pass binds only the tape numbers, and computes only the names,
    # that its text reads; circle_residual is planar only
    for tree in _SOURCE_TREES:
        kinds, _, _, dim = compile_ast(tree)
        shape = _kernels_py._shape(kinds, dim)
        for name in _PASSES if dim == 2 else _PASSES[:-1]:
            stored, loaded = set(), set()
            for node in python_ast.walk(python_ast.parse(shape.source(name))):
                if isinstance(node, python_ast.Name):
                    (stored if isinstance(node.ctx, python_ast.Store) else loaded).add(node.id)
            assert stored <= loaded, (print_norm(tree), name, sorted(stored - loaded))


@pytest.mark.parametrize("text, dim", [(COMPOSITES[1], 2), ("max(lp(3), sum(l1, linf))", 6)])
def test_a_loaded_shape_expands_no_template_for_its_other_passes(text, dim, monkeypatch):
    # a shape writes its shared text at load; each other pass is written
    # from it, not from the templates again
    calls = []
    expand = _kernels_py._expand
    monkeypatch.setattr(_kernels_py, "_expand", lambda *args: calls.append(args) or expand(*args))
    kinds, _, _, dim = compile_ast(parse_norm(text, dim))
    shape = _kernels_py._Shape(kinds, dim)
    assert calls
    calls.clear()
    for name in _PASSES[1:] if dim == 2 else _PASSES[1:-1]:
        shape.compiled(name)
    assert calls == []


def test_a_pure_locus_takes_no_circle_call(monkeypatch):
    # each crossing row takes its point from the bisection's evaluator, in
    # the value pass that gives its residual
    calls = []
    circle = _kernels_py.Program.circle
    monkeypatch.setattr(_kernels_py.Program, "circle",
                        lambda self, theta: calls.append(theta) or circle(self, theta))
    crossings = 0
    for text in COMPOSITES:
        prog = _kernels_py.Program(*compile_ast(parse_norm(text, 2)))
        for code in (0, 3, 5, 6, 7):
            crossings += len(prog.locus(code, 0.3, 0.5, (0.6, -0.35), 48, 1e-12)) - 48
    assert crossings > 0 and calls == []


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("family", ["max(l1, scale(0.5, l2))", "max(lp(3), linf)"])
def test_max_derivative_is_scale_free(backend, family):
    # D+- of a norm is homogeneous of degree 0 in u, so a max node must
    # call a tie on the relative gap of its children at every magnitude.
    prog = backend.Program(*compile_ast(parse_norm(family, 2)))
    u, v = (1.0, 0.2), (0.0, 1.0)
    _, dp1, dm1 = prog.derivs(u, v)
    for s in (1e-300, 1e-13, 1.0, 1e300):
        _, dp, dm = prog.derivs((s * u[0], s * u[1]), v)
        assert abs(dp - dp1) <= 1e-12 * abs(dp1), (s, dp, dp1)
        assert abs(dm - dm1) <= 1e-12 * abs(dm1), (s, dm, dm1)


@pytest.mark.parametrize("w", [1e-300, 2.2250738585072014e-308])
@pytest.mark.parametrize("p", [1.5, 40, 1000])
def test_least_wlp_weights_keep_derivatives_finite(w, p, pair):
    # down to the least normal weight, which WLp still takes, no base-pass
    # coefficient w_j pow(|u_j| / N(u), p - 1) overflows, in either twin
    fast, slow = pair(parse_norm(f"wlp({p}; {w!r}, 1)", 2))
    for u in [(1.0, 0.0), (1.0, 1.0), (-3.0, 1e-10), (1e-300, -1.0)]:
        for v in [(0.0, 1.0), (0.3, -1.0)]:
            got = _outcome(fast.derivs, u, v)
            assert got == _outcome(slow.derivs, u, v), (u, v)
            assert all(math.isfinite(float.fromhex(h)) for h in got), (u, v, got)


def _image_reference(matrix, x):
    # what prog.image(matrix, x) must equal
    return tuple([math.fsum(map(operator.mul, row, x)) for row in matrix])


@pytest.mark.parametrize("ast", PLANAR)
def test_circle_agrees_bitwise(ast, pair):
    fast, slow = pair(ast)
    rng = SplitMix64(3)
    # the sweeps' grid angles j * step, random angles, and far arguments
    angles = [j * (2.0 * math.pi / n) for n in (64, 720, 1024) for j in range(n)]
    angles += [rng.uniform(-50.0, 50.0) for _ in range(200)]
    angles += [0.0, -0.0, 1e6, 1e300]
    for theta in angles:
        got = _outcome(fast.circle, theta)
        assert got == _outcome(slow.circle, theta), theta
        assert got == _outcome(circle_reference, slow, theta)
        assert got == _outcome(circle_reference, fast, theta)
    x0, x1 = fast.circle(0.3)
    assert abs(fast.value((x0, x1)) - 1.0) <= 1e-15


@pytest.mark.parametrize("family", FAMILIES)
def test_circle_edge_cases_agree(family, pair):
    fast, slow = pair(parse_norm(family, 2))
    for theta in (math.inf, -math.inf):
        for prog in (fast, slow):
            assert _outcome(prog.circle, theta) == ("ValueError", "math domain error")
    for theta in (math.nan, "0.5", None):
        assert _outcome(fast.circle, theta) == _outcome(slow.circle, theta)
    assert _outcome(fast.circle, "0.5")[0] == "TypeError"


def test_circle_nan_and_zero_radius(compiled_kernels):
    l1 = compile_ast(parse_norm("l1", 2))
    zero = ((0, 6), (0.0, 0.0), (), 2)  # scale(0, l2)
    l2_3 = compile_ast(parse_norm("l2", 3))
    for mod in (compiled_kernels, _kernels_py):
        assert _outcome(mod.Program(*l1).circle, math.nan) == ("nan", "nan")
        assert _outcome(mod.Program(*zero).circle, 1.0) == (
            "ZeroDivisionError", "float division by zero")
        assert _outcome(mod.Program(*l2_3).circle, 1.0) == (
            "ValueError", "circle needs a 2-dimensional norm, got dim 3")


_L2_TAPE = compile_ast(parse_norm("l2", 2))
_WIDE_TAPE = compile_ast(parse_norm("scale(0.25, l2)", 2))  # a circle of radius 4

# codomain norms for image and operator_norm; l2 on one coordinate is the raw tape
IMAGE_NORMS = ("l1", "l2", "linf", "lp(3)", "max(l1, l2)", "sum(l1, linf)", "scale(0.7, l2)")
_L2_DIM1 = ((0,), (0.0,), (), 1)

# row entries that stress an exact row sum: signed zeros, subnormals, the
# extremes whose products overflow, and a cancelling 1e16 pair
_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e16, -1e16,
            1.0, -1.0, 0.1, 3.0, 1e200, -1e200, 1e308, -1e308)


def _image_programs(compiled_kernels, rows):
    tapes = ([_L2_DIM1] if rows == 1
             else [compile_ast(parse_norm(f, rows)) for f in IMAGE_NORMS])
    return [(compiled_kernels.Program(*t), _kernels_py.Program(*t)) for t in tapes]


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_image_agrees_bitwise(rows, compiled_kernels):
    rng = SplitMix64(100 + rows)

    def entry():
        if rng.random() < 0.5:
            return _ENTRIES[int(rng.random() * len(_ENTRIES))]
        return rng.uniform(-4.0, 4.0)

    kinds = set()
    for fast, slow in _image_programs(compiled_kernels, rows):
        for cols in range(1, 6):
            for _ in range(60):
                matrix = tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))
                x = tuple(entry() for _ in range(cols))
                got = _outcome(fast.image, matrix, x)
                assert got == _outcome(slow.image, matrix, x), (matrix, x)
                assert got == _outcome(_image_reference, matrix, x), (matrix, x)
                failed = got[0].endswith("Error")
                kinds.add(got[0] if failed else any(y in ("inf", "-inf", "nan") for y in got))
    # the draws reach finite and non-finite sums and both fsum errors
    assert kinds == {False, True, "OverflowError", "ValueError"}


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("cols", [100, 300])
def test_long_image_rows_agree_bitwise(rows, cols, compiled_kernels):
    # the compiled scratch, rows + (rows + 1) * cols doubles, is past
    # STACK_CAP and on the heap, and every row of more than two columns
    # goes to math.fsum itself
    rng = SplitMix64(200 + rows + cols)
    tape = compile_ast(parse_norm("l1", rows))
    fast, slow = compiled_kernels.Program(*tape), _kernels_py.Program(*tape)

    def draws(n):
        return tuple(rng.uniform(-4.0, 4.0) for _ in range(n))

    ones = (1.0,) * cols
    # runs of 1e16, 1, -1e16, which a left-to-right sum loses every 1 of
    cancelling = (1e16, 1.0, -1e16) * (cols // 3) + (1.0,) * (cols % 3)
    plain = tuple(draws(cols) for _ in range(rows - 1))
    cases = [
        (tuple(draws(cols) for _ in range(rows)), draws(cols)),
        ((cancelling, *plain), ones),
        ((*plain, cancelling), ones),
        # finite products whose sum overflows, in the last row
        ((*plain, (1e308, 1e308) + draws(cols - 2)), ones),
        # an inf and a -inf product, in the last row
        ((*plain, (1e200, -1e200) + draws(cols - 2)), (1e200, 1e200) + draws(cols - 2)),
    ]
    got = []
    for matrix, x in cases:
        out = _outcome(fast.image, matrix, x)
        assert out == _outcome(slow.image, matrix, x), (rows, cols)
        assert out == _outcome(_image_reference, matrix, x), (rows, cols)
        got.append(out)
    assert got[1][0] == got[2][-1] == float(cols // 3 + cols % 3).hex()
    assert got[3] == ("OverflowError", "intermediate overflow in fsum")
    assert got[4] == ("ValueError", "-inf + inf in fsum")


@pytest.mark.parametrize("matrix, x, want", [
    # a left-to-right sum gives 0.0, fsum the exact 1.0
    (((1e16, 1.0, -1e16), (0.0, 0.0, 0.0)), (1.0, 1.0, 1.0), (1.0, 0.0)),
    # signed zero products only: both image rows are +0.0
    (((-0.0, -0.0), (-0.0, 1.0)), (1.0, -0.0), (0.0, 0.0)),
    # subnormal products, and a product that underflows to zero
    (((5e-324, 5e-324, 1e-300), (0.0, 0.0, 0.0)), (1.0, 3.0, 1e-300), (2e-323, 0.0)),
    # half-even rounding across three partials
    (((1e-16, 1.0, 1e16), (0.0, 0.0, 0.0)), (1.0, 1.0, 1.0), (1.0000000000000002e16, 0.0)),
    # a product that overflows is an inf summand, not an error
    (((1e200, 1.0), (0.0, 0.0)), (1e200, 1.0), (math.inf, 0.0)),
])
def test_image_sums_rows_as_fsum(matrix, x, want, compiled_kernels):
    tape = compile_ast(parse_norm("l1", 2))
    for mod in (compiled_kernels, _kernels_py):
        assert _outcome(mod.Program(*tape).image, matrix, x) == tuple(w.hex() for w in want)


@pytest.mark.parametrize("matrix, x, error", [
    (((1.0, 2.0),), (1.0, 2.0), ("ValueError", "expected 2 rows, got 1")),
    (((1.0, 2.0), (1.0, 2.0), (1.0, 2.0)), (1.0, 2.0), ("ValueError", "expected 2 rows, got 3")),
    (((1.0, 2.0), (1.0,)), (1.0, 2.0), ("ValueError", "expected rows of 2 entries, got 1")),
    (((1.0, 2.0, 3.0), (1.0, 2.0, 3.0)), (1.0, 2.0),
     ("ValueError", "expected rows of 2 entries, got 3")),
    (((1.0, "a"), (1.0, 2.0)), (1.0, 2.0), None),
    # the rows are read in turn: row 0's entry fails first
    (((1.0, "a"), (1.0,)), (1.0, 2.0), None),
    (((1.0,), (1.0, "a")), (1.0, 2.0), ("ValueError", "expected rows of 2 entries, got 1")),
    # x is read before the matrix, and the whole matrix before any row is summed
    (((1.0,), (1.0, 2.0)), (1.0, "a"), None),
    (((1.0, 2.0),), (1.0, "a"), None),
    (((1e308, 1e308), (1.0,)), (1.0, 1.0), ("ValueError", "expected rows of 2 entries, got 1")),
    (((1e308, 1e308, "a"), (0.0, 0.0, 0.0)), (1.0, 1.0, 1.0), None),
    (((1e308, 1e308), (0.0, "a")), (1.0, 1.0), None),
    (((1.0, None), (1.0, 2.0)), (1.0, 2.0), None),
    (((1.0, 2.0), (1.0, 2.0)), (1.0, object()), None),
    (((1e308, 1e308), (0.0, 0.0)), (1.0, 1.0),
     ("OverflowError", "intermediate overflow in fsum")),
    (((1e200, -1e200), (0.0, 0.0)), (1e200, 1e200), ("ValueError", "-inf + inf in fsum")),
])
def test_image_errors_agree(matrix, x, error, compiled_kernels):
    tape = compile_ast(parse_norm("l2", 2))
    fast = compiled_kernels.Program(*tape)
    slow = _kernels_py.Program(*tape)
    got = _outcome(fast.image, matrix, x)
    assert got == _outcome(slow.image, matrix, x)
    if error is None:
        assert got[0] == "TypeError"
    else:
        assert got == error


# (row, x) of a two-column row, whose sum the C twin takes with one add
# when it is finite: zeros it gives as -0.0, half-even ties, subnormal
# products, and the non-finite sums it hands to math.fsum
_TWO_TERMS = [
    ((-0.0, -0.0), (1.0, 1.0)),  # -0.0 + -0.0
    ((-1.0, 1.0), (0.0, -0.0)),  # -0.0 + -0.0 from signed zeros
    ((1.0, -1.0), (0.1, 0.1)),  # an exact cancellation
    ((1.0, 1.0), (1.0, 2.0 ** -53)),  # a tie, to even: 1.0
    ((1.0, 1.0), (1.0 + 2.0 ** -52, 2.0 ** -53)),  # a tie, to even: 1 + 2**-51
    ((1.0, -1.0), (1.0, 2.0 ** -54)),  # a tie below 1, to even: 1.0
    ((5e-324, 5e-324), (1.0, 3.0)),  # subnormal products
    ((1e-300, -1e-300), (1e-10, 3e-11)),  # products rounded to subnormals
    ((1e-200, -1e-200), (1e-200, 1e-200)),  # products that underflow to zero
    ((1e308, 1e308), (1.0, 1.0)),  # finite products whose sum overflows
    ((1e200, 1e200), (1e200, -1e200)),  # inf + -inf
    ((1e200, 1.0), (1e200, 1.0)),  # a lone inf, from an overflowing product
    ((math.inf, 1.0), (1.0, -2.0)),  # a lone inf entry
    ((math.nan, 1.0), (1.0, 1.0)),  # NaN
    ((math.inf, 1.0), (0.0, 1.0)),  # inf * 0
]


@pytest.mark.parametrize("row, x", _TWO_TERMS)
def test_two_term_rows_sum_as_fsum(row, x, compiled_kernels):
    # as the first row of an image, and as its second behind a plain row
    for matrix in ((row, (0.5, 0.25)), ((0.5, 0.25), row)):
        want = _outcome(_image_reference, matrix, x)
        for mod in (compiled_kernels, _kernels_py):
            assert _outcome(mod.Program(*_L2_TAPE).image, matrix, x) == want, (mod, matrix)


class _FsumImage:
    """A codomain Program whose image sums each row with math.fsum."""

    def __init__(self, prog):
        self.value = prog.value

    image = staticmethod(_image_reference)


@pytest.mark.parametrize("domain, matrix", [
    (_L2_TAPE, ((5e-324, -5e-324), (1e-310, 2e-310))),  # subnormal products
    (_L2_TAPE, ((-0.0, -0.0), (1.0, 0.5))),  # -0.0 + -0.0 at every point
    (_L2_TAPE, ((1.0, 2.0 ** -53), (-(2.0 ** -53), 1.0))),  # ulp-sized terms beside 1
    (_L2_TAPE, ((1.7e308, 1.7e308), (0.0, 1.0))),  # an overflowing sum
    (_WIDE_TAPE, ((1e308, -1e308), (0.0, 0.0))),  # a lone inf, then inf + -inf
    (_L2_TAPE, ((math.inf, 0.0), (0.0, 1.0))),  # a lone inf, then inf * 0
    (_L2_TAPE, ((math.nan, 1.0), (1.0, 1.0))),
])
def test_planar_gain_rows_sum_as_fsum(domain, matrix, compiled_kernels):
    # the planar operator norm's gain rows against math.fsum's
    ref = _kernels_py.Program(*_L2_TAPE)
    want = _norm_outcome(operator_norm_reference, _kernels_py.Program(*domain).circle,
                         _FsumImage(ref), matrix)
    for mod in (compiled_kernels, _kernels_py):
        cod, dom = mod.Program(*_L2_TAPE), mod.Program(*domain)
        assert _norm_outcome(cod.operator_norm, dom.circle, matrix) == want, mod


class _OwnProduct(float):
    """A float whose own * with a float ignores both; it reads as its value."""

    def __mul__(self, other):
        return 42.0

    __rmul__ = __mul__


class _Half:
    """A number that reads as 0.5 (__float__) but whose own * gives 42.0."""

    def __float__(self):
        return 0.5

    def __mul__(self, other):
        return 42.0

    __rmul__ = __mul__


class _IntReadsHalf(int):
    """An int that reads as the double 0.5 (its own __float__)."""

    def __float__(self):
        return 0.5


def test_image_and_operator_norm_read_entries_as_doubles(compiled_kernels):
    # int, bool, Decimal and Fraction entries and coordinates are the
    # doubles float() gives, multiplied as doubles: (2**53 + 1) * 3 is not
    # the exact integer product rounded, no entry's own * runs, and an int
    # subclass reads through its own __float__; str and bytes are read item
    # by item, not whole
    tape = compile_ast(parse_norm("max(l1, l2)", 2))
    big = 2 ** 53 + 1
    mixed = ((3, True), (big, decimal.Decimal("0.1")))
    floats = ((3.0, 1.0), (float(big), 0.1))
    own = ((_OwnProduct(0.25), _Half()), (fractions.Fraction(1, 3), 2))
    for mod in (compiled_kernels, _kernels_py):
        cod, dom = mod.Program(*tape), mod.Program(*tape)
        want = _outcome(cod.image, floats, (3.0, -2.0))
        assert want[1] != float(big * 3).hex()
        assert _outcome(cod.image, mixed, (3, -2)) == want
        assert _outcome(cod.image, own, (fractions.Fraction(2, 7), 3.0)) == _outcome(
            cod.image, ((0.25, 0.5), (1 / 3, 2.0)), (2 / 7, 3.0))
        assert _outcome(cod.image, mixed, [3, -2.0]) == want
        assert _outcome(cod.image, ((_IntReadsHalf(7), 1.0), (2.0, 3.0)), (3.0, 1.0)) == (
            _outcome(cod.image, ((0.5, 1.0), (2.0, 3.0)), (3.0, 1.0)))
        assert _outcome(cod.image, ((1.0, 1.0), (2.0, 3.0)), (3.0, _IntReadsHalf(7))) == (
            _outcome(cod.image, ((1.0, 1.0), (2.0, 3.0)), (3.0, 0.5)))
        assert _outcome(cod.image, mixed, b"\x03\xfe") == _outcome(cod.image, floats, (3, 254))
        assert (_norm_outcome(cod.operator_norm, dom.circle, mixed)
                == _norm_outcome(cod.operator_norm, dom.circle, floats))
    for bad in ("a", None, object(), 2 ** 1024):
        want = (("OverflowError", "int too large to convert to float") if type(bad) is int
                else ("TypeError", f"must be real number, not {type(bad).__name__}"))
        for mod in (compiled_kernels, _kernels_py):
            prog = mod.Program(*tape)
            assert _outcome(prog.image, ((1.0, bad), (1.0, 2.0)), (1.0, 2.0)) == want
            assert _outcome(prog.image, ((1.0, 2.0), (1.0, 2.0)), (bad, 1.0)) == want
            assert _norm_outcome(prog.operator_norm, prog.circle, ((1.0, 2.0), (bad, 2.0))) == want
    for mod in (compiled_kernels, _kernels_py):
        prog = mod.Program(*tape)
        for matrix, x in [(("ab", (1.0, 2.0)), (1.0, 2.0)), (((1.0, 2.0), (1.0, 2.0)), "ab")]:
            assert _outcome(prog.image, matrix, x) == ("TypeError", "must be real number, not str")


def test_image_rejects_a_length_no_buffer_holds(compiled_kernels):
    class Endless:
        def __len__(self):
            return sys.maxsize

        def __getitem__(self, j):
            return 1.0

    prog = compiled_kernels.Program(*compile_ast(parse_norm("l1", 2)))
    with pytest.raises(MemoryError):
        prog.image((Endless(), Endless()), Endless())


# relation codes of Program.residual, in RELATION_TAGS order
CODES = range(len(RELATION_TAGS))
SCALES = (1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300)


def residual_reference(prog, code, a, b, u, v):
    """What prog.residual(code, a, b, u, v) must equal, from prog.value,
    prog.derivs and each relation's formula."""
    tag = RELATION_TAGS[code]
    if tag == "isosceles":
        return (prog.value(tuple(map(operator.add, u, v)))
                - prog.value(tuple(map(operator.sub, u, v))))
    if tag == "pythagorean":
        diff = prog.value(tuple(map(operator.sub, u, v)))
        nu, nv = prog.value(u), prog.value(v)
        return diff * diff - (nu * nu + nv * nv)
    val, dp, dm = prog.derivs(u, v)
    rm, rp = val * dm, val * dp
    if tag == "semi":
        if val == 0.0:
            raise ZeroVectorError("semi-inner product needs a nonzero second argument")
        if abs(rp - rm) > 1e-12 * max(abs(rm), abs(rp)):
            raise NonSmoothPointError(
                f"norm is not smooth at this point: rho_+ = {rp!r} differs from rho_- = {rm!r}")
        return rp
    return {
        "birkhoff": max(rm, -rp),
        "rho_plus": rp,
        "rho_minus": rm,
        "rho": (rm + rp) / 2.0,
        "rho_lambda": a * rm + (1.0 - a) * rp,
        "rho_ab": a * rm + b * rp,
    }[tag]


def test_relation_codes_follow_relation_tags():
    codes = [getattr(program, "R_" + tag.upper()) for tag in RELATION_TAGS]
    assert codes == list(CODES)


@pytest.mark.parametrize("ast", PLANAR)
def test_residual_agrees_bitwise(ast, pair):
    fast, slow = pair(ast)
    rng = SplitMix64(19)
    vectors = [(0.0, 0.0)] + list(corner_vectors(2))
    vectors += [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
    pairs = [(u, v) for u in vectors for v in vectors]
    kinds = set()
    for u, v in pairs:
        for s in SCALES:
            su = (s * u[0], s * u[1])
            for args in ((su, v), (su, (s * v[0], s * v[1]))):
                for code in CODES:
                    got = _outcome(fast.residual, code, 0.3, 0.5, *args)
                    assert got == _outcome(slow.residual, code, 0.3, 0.5, *args), (code, args)
                    assert got == _outcome(residual_reference, slow, code, 0.3, 0.5, *args)
                    kinds.add(got[0] if isinstance(got, tuple) else "float")
    assert {"float", "ZeroVectorError"} <= kinds


@pytest.mark.parametrize("args, error", [
    ((8, 0.0, 0.0, (0.0, 0.0), (1.0, 2.0)),
     ("ZeroVectorError", "semi-inner product needs a nonzero second argument")),
    ((8, 0.0, 0.0, (1.0, 0.0), (0.0, 1.0)),
     ("NonSmoothPointError",
      "norm is not smooth at this point: rho_+ = 1.0 differs from rho_- = -1.0")),
    ((9, 0.0, 0.0, (1.0, 0.0), (0.0, 1.0)), ("ValueError", "unknown relation code 9")),
    ((-1, 0.0, 0.0, (1.0, 0.0), (0.0, 1.0)), ("ValueError", "unknown relation code -1")),
    ((2 ** 70, 0.0, 0.0, (1.0, 0.0), (0.0, 1.0)),
     ("ValueError", f"unknown relation code {2 ** 70}")),
    ((1.0, 0.0, 0.0, (1.0, 0.0), (0.0, 1.0)),
     ("TypeError", "'float' object cannot be interpreted as an integer")),
    ((0, 0.0, 0.0, (1.0,), (0.0, 1.0)), ("ValueError", "expected 2 coordinates, got 1 and 2")),
    ((6, 0.0, 0.0, (1.0, 0.0), (0.0, 1.0, 2.0)),
     ("ValueError", "expected 2 coordinates, got 2 and 3")),
    ((0, 0.0, 0.0, (1.0, 0.0)), "TypeError"),
    ((0, 0.0, 0.0, (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)), "TypeError"),
])
def test_residual_errors_agree(args, error, pair):
    fast, slow = pair(parse_norm("l1", 2))
    got = _outcome(fast.residual, *args)
    if isinstance(error, str):
        # the arity texts differ: the compiled method counts its own
        # arguments, the twin's def lets Python count them
        assert got[0] == _outcome(slow.residual, *args)[0] == error
    else:
        assert got == _outcome(slow.residual, *args) == error


@pytest.mark.parametrize("code", CODES)
@pytest.mark.parametrize("a, b", [(None, 0.0), (0.0, None), ("0.5", 0.0), (0.0, b"1"),
                                  ((0.3,), 0.0)])
def test_residual_reads_weights_for_every_code(code, a, b, pair):
    # a and b are read as numbers before the relation is dispatched, so
    # a code that ignores them still rejects a non-number
    fast, slow = pair(parse_norm("l2", 2))
    got = _outcome(fast.residual, code, a, b, (1.0, 0.0), (0.0, 1.0))
    assert got[0] == "TypeError"
    assert got == _outcome(slow.residual, code, a, b, (1.0, 0.0), (0.0, 1.0))


# the norms residuals is checked on: every family and the benchmark's composites
RESIDUALS_NORMS = FAMILIES + COMPOSITES

# base vectors of residuals: the zero vector, where every leaf reads N at
# each point, a corner with a zero coordinate, and generic ones
RESIDUALS_BASES = ((0.0, 0.0), (1.0, 0.0), (0.6, -0.35), (-2.5e-3, 7.0))


def _each_residual(prog, code, a, b, u, n):
    """[prog.residual(code, a, b, u, prog.circle(j * 2 pi / n)) for j < n],
    every circle point taken first: what prog.residuals must equal."""
    xs = [prog.circle(j * 2.0 * math.pi / n) for j in range(n)]
    return [prog.residual(code, a, b, u, x) for x in xs]


def _floats(call, *args):
    """_outcome of a call that returns a list of floats."""
    try:
        out = call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    assert type(out) is list
    return [x.hex() for x in out]


@pytest.mark.parametrize("family", RESIDUALS_NORMS)
def test_residuals_agree_with_residual_bitwise(family, pair):
    # each twin's residuals on a new Program's ring (cold) and on the kept
    # one (warm), against its own residual at its own circle points
    ast = parse_norm(family, 2)
    kinds = set()
    for n in (1, 7, 64):
        for code in CODES:
            for u in RESIDUALS_BASES:
                fast, slow = pair(ast)
                want = _floats(_each_residual, slow, code, 0.3, 0.5, u, n)
                assert _floats(_each_residual, fast, code, 0.3, 0.5, u, n) == want
                for prog in (fast, slow):
                    for _ in ("cold", "warm"):
                        assert _floats(prog.residuals, code, 0.3, 0.5, u, n) == want, (n, code, u)
                kinds.add(want[0] if isinstance(want, tuple) else "floats")
    assert {"floats", "ZeroVectorError"} <= kinds


@pytest.mark.parametrize("family", ["lp(3)", "sum(l1, linf)", "max(l2, wlp(1.5; 1, 2, 3))"])
def test_residual_takes_any_dimension(family, pair):
    fast, slow = pair(parse_norm(family, 3))
    xs = [(1.0, 0.0, 0.0), (0.0, -2.0, 0.5), (0.3, 0.3, -0.3), (0.0, 0.0, 0.0)]
    for code in CODES:
        for u in ((0.0, 0.0, 0.0), (1.0, 0.0, -1.0), (0.2, -0.7, 1.3)):
            for x in xs:
                got = _outcome(fast.residual, code, 0.3, 0.5, u, x)
                assert got == _outcome(slow.residual, code, 0.3, 0.5, u, x), (code, u, x)


@pytest.mark.parametrize("args", [
    # semi at the l1 corner: smooth at theta 0, not at the next point
    (8, 0.0, 0.0, (1.0, 0.0), 48),
    (8, 0.0, 0.0, (0.0, 0.0), 48),
    (9, 0.0, 0.0, (1.0, 0.0), 48),
    (-1, 0.0, 0.0, (1.0, 0.0), 48),
], ids=["semi-kink", "semi-zero", "code-9", "code-minus-1"])
def test_residuals_raise_as_residual_does(args, pair):
    # the error is the one residual gives at the first point that raises
    fast, slow = pair(parse_norm("l1", 2))
    want = _floats(_each_residual, slow, *args)
    assert isinstance(want, tuple)
    assert _floats(fast.residuals, *args) == _floats(slow.residuals, *args) == want


# relations whose residual reads the base pass at u: all but isosceles
BASE_CODES = [code for code in CODES if RELATION_TAGS[code] != "isosceles"]


@pytest.mark.parametrize("method", ["locus", "crossing", "residuals"])
@pytest.mark.parametrize("code", BASE_CODES)
def test_sweeps_evaluate_their_base_vector_once(code, method, monkeypatch):
    # a smooth norm with a wlp(p) leaf, so that semi never raises and the
    # pow coefficients are in the base pass
    prog = _kernels_py.Program(*compile_ast(parse_norm(COMPOSITES[2], 2)))
    u = (0.6, -0.35)
    seen = []

    def counting(run):
        def counted(x, *rest):
            seen.append(tuple(x))
            return run(x, *rest)
        return counted

    # every evaluation of N at a point the methods ask for, the base pass
    # included
    monkeypatch.setattr(prog, "_value", counting(prog._value))
    if method == "locus":
        prog.locus(code, 0.3, 0.5, u, 48, 1e-10)
    elif method == "crossing":
        prog.crossing(code, 0.3, 0.5, u, 0.0, 1.0, math.pi, 1e-10)
    else:
        assert len(prog.residuals(code, 0.3, 0.5, u, 48)) == 48
    assert seen.count(u) == 1


# every family and composite, and 240 seeded random trees, all planar
_LOOP_TREES = ([parse_norm(f, 2) for f in FAMILIES + COMPOSITES]
               + [gen_ast(SplitMix64(seed), 2, 4) for seed in range(240)])
# the zero vector, whose every leaf takes the zero-leaf path at every point;
# a zero coordinate each, for the wlp(1) and wlp(inf) kinks; and one base
# off both axes
_LOOP_BASES = ((0.0, 0.0), (1.0, 0.0), (0.0, -0.7), (0.6, -0.35))


def _loop_points(prog):
    """A 48-point ring, then points on and off the axes, the origin included."""
    return ([prog.circle(j * 2.0 * math.pi / 48) for j in range(48)]
            + [(0.0, 0.0), (1.0, 0.0), (0.0, -2.0), (1e-13, 1.0), (-3.5, 2.25)])


def _loops_agree(prog, bases):
    # the loop passes, against the one-point passes at each point
    points = _loop_points(prog)
    want = [prog._value(x).hex() for x in points]
    assert [g.hex() for g in prog._values(iter(points))] == want
    for u in bases:
        base = prog._value(u, True)
        rm, rp = prog._directions(u, base, iter(points))
        want = []
        for x in points:
            val, dp, dm = prog._dirs(u, base, x)
            want.append(((val * dm).hex(), (val * dp).hex()))
        assert list(zip(map(float.hex, rm), map(float.hex, rp))) == want, u


def test_loop_passes_agree_bitwise_with_the_one_point_passes():
    for ast in _LOOP_TREES:
        _loops_agree(_kernels_py.Program(*compile_ast(ast)), _LOOP_BASES)


def test_loop_passes_agree_bitwise_inside_a_max_tie_band():
    # max(a, scale(c, b)) with c = a(u) / b(u): at u the two children tie
    # to within a rounding, far inside the max node's TIE band, so the
    # direction pass takes the tied branch
    u = (0.6, -0.35)
    trees = [(parse_norm(f, 2), parse_norm(g, 2)) for f, g in (
        ("l1", "l2"), ("linf", "lp(3)"), ("wlp(inf; 1, 2)", "wlp(1.5; 2, 1)"))]
    trees += [(gen_ast(SplitMix64(seed), 2, 3), gen_ast(SplitMix64(seed + 1000), 2, 3))
              for seed in range(40)]
    for a, b in trees:
        na = _kernels_py.Program(*compile_ast(a)).value(u)
        nb = _kernels_py.Program(*compile_ast(b)).value(u)
        tied = Max(a, Scale(na / nb, b))
        prog = _kernels_py.Program(*compile_ast(tied))
        right = _kernels_py.Program(*compile_ast(Scale(na / nb, b))).value(u)
        assert abs(na - right) <= _kernels_py._TIE * max(na, right), print_norm(tied)
        _loops_agree(prog, [u])


def test_values_pass_agrees_bitwise_above_the_plane():
    # the values loop at dims 3 and 4, unrolled, and 5 and 6, looped,
    # against value at each point
    for dim in (3, 4, 5, 6):
        for seed in range(dim, 60, 4):
            prog = _kernels_py.Program(*compile_ast(gen_ast(SplitMix64(seed), dim, 3)))
            points = [tuple(0.5 * j - k for j in range(dim)) for k in range(4)]
            points += _codegen_points(dim, SplitMix64(seed))
            want = [prog.value(x).hex() for x in points]
            assert [g.hex() for g in prog._values(iter(points))] == want, dim


# -- planar loci ---------------------------------------------------------------

def bisect_reference(f, lo, f_lo, hi, width):
    """The crossing bisection in plain Python, f the residual at
    circle(theta): what Program.crossing must equal."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def locus_reference(prog, code, a, b, u, resolution, width):
    """The ortho_locus sweep in plain Python, from prog.circle,
    prog.residual and bisect_reference: what Program.locus must equal."""
    residual = functools.partial(prog.residual, code, a, b, u)

    def residual_at(theta):
        return residual(prog.circle(theta))

    step = 2.0 * math.pi / resolution
    thetas = [j * step for j in range(resolution)]
    xs = list(map(prog.circle, thetas))
    residuals = list(map(residual, xs))
    points = []
    for j, theta in enumerate(thetas):
        x = xs[j]
        res = residuals[j]
        points.append((theta, x[0], x[1], res, res == 0.0))
        nxt = residuals[(j + 1) % resolution]
        if res == 0.0 or nxt == 0.0 or (res > 0.0) == (nxt > 0.0):
            continue
        cross = bisect_reference(residual_at, theta, res, theta + step, width)
        x = circle_reference(prog, cross)
        points.append((cross, x[0], x[1], residual(x), True))
    return points


def _rows(call, *args):
    """_outcome of a call that returns locus rows: each row's type, its
    floats' float.hex and its flag."""
    try:
        out = call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [(type(r), tuple(x.hex() for x in r[:4]), r[4]) for r in out]


# base vectors of the sweeps: a corner of l1 and linf, and a generic one
SWEEP_BASES = ((1.0, 0.0), (0.6, -0.35))


@pytest.mark.parametrize("family", FAMILIES)
def test_locus_agrees_bitwise(family, pair):
    fast, slow = pair(parse_norm(family, 2))
    kinds = set()
    # the pure twin's 720-point sweep costs most: on the generic base only
    runs = [(u, res) for u in SWEEP_BASES for res in (8, 48)] + [(SWEEP_BASES[1], 720)]
    for code in CODES:
        for u, resolution in runs:
            for width in (1e-10, 1e-12):
                args = (code, 0.3, 0.5, u, resolution, width)
                got = _rows(fast.locus, *args)
                assert got == _rows(slow.locus, *args), args
                want = _rows(lambda: [LocusPoint._make(r) for r in
                                      locus_reference(fast, *args)])
                assert got == want, args
                if isinstance(got, tuple):
                    kinds.add(got[0])
                else:
                    kinds.add("crossing" if len(got) > resolution else "rows")
    assert {"rows", "crossing"} <= kinds


@pytest.mark.parametrize("family", FAMILIES)
def test_crossing_agrees_bitwise(family, pair):
    # every interval the mining scan bisects: a strict sign change, or an
    # exact zero at either end
    fast, slow = pair(parse_norm(family, 2))
    step = 2.0 * math.pi / 64
    thetas = [j * step for j in range(64)]
    xs = list(map(fast.circle, thetas))
    bases = [tuple(c / fast.value(b) for c in b) for b in corner_vectors(2)]
    zero_ends = 0
    for code in CODES:
        for u in bases + [SWEEP_BASES[1]]:
            residual = functools.partial(fast.residual, code, 0.3, 0.5, u)
            try:
                rs = list(map(residual, xs))
            except (NonSmoothPointError, ZeroVectorError):
                continue
            for j in range(64):
                r0, r1 = rs[j], rs[(j + 1) % 64]
                if r0 != 0.0 and r1 != 0.0 and (r0 > 0.0) == (r1 > 0.0):
                    continue
                zero_ends += r0 == 0.0 or r1 == 0.0
                for width in (1e-10, 1e-12):
                    args = (code, 0.3, 0.5, u, thetas[j], r0, thetas[j] + step, width)
                    got = _outcome(fast.crossing, *args)
                    assert got == _outcome(slow.crossing, *args), args
                    want = _outcome(bisect_reference, lambda t: residual(fast.circle(t)),
                                    *args[4:])
                    assert got == want, args
    assert zero_ends > 0


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_crossing_ends_on_adjacent_doubles(backend):
    # a width no interval can get below: the bisection stops once the
    # midpoint is an end, where it could otherwise go on forever
    prog = backend.Program(*compile_ast(parse_norm("l2", 2)))
    lo = 1.0
    hi = math.nextafter(lo, 2.0)
    for width in (0.0, -1.0):
        for f_lo in (1.0, -1.0):
            assert prog.crossing(3, 0.0, 0.0, (1.0, 0.0), lo, f_lo, hi, width) in (lo, hi)
    # an infinite end is a midpoint not strictly inside; NaN ends no loop
    assert prog.crossing(3, 0.0, 0.0, (1.0, 0.0), 0.0, 1.0, math.inf, 1e-10) == math.inf
    assert prog.crossing(3, 0.0, 0.0, (1.0, 0.0), -math.inf, 1.0, 0.0, 1e-10) == -math.inf
    assert math.isnan(prog.crossing(3, 0.0, 0.0, (1.0, 0.0), -math.inf, 1.0, math.inf, 0.0))
    assert math.isnan(prog.crossing(3, 0.0, 0.0, (1.0, 0.0), 0.0, 1.0, math.nan, 0.0))
    # a window below one ulp of theta
    theta = prog.crossing(3, 0.0, 0.0, (1.0, 0.0), 1.5, 1.0, 1.7, 1e-300)
    assert abs(theta - math.pi / 2) <= 1e-15


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_crossing_ends_on_an_exact_zero_midpoint(backend):
    # on l1, rho at u = (0, 1) towards circle(theta) is sin(theta) / r, so
    # the first midpoint of [-1, 1] is an exact zero and the search ends
    # there; bisecting on would return a theta just above 0
    prog = backend.Program(*compile_ast(parse_norm("l1", 2)))
    u = (0.0, 1.0)
    f_lo = prog.residual(program.R_RHO, 0.0, 0.0, u, prog.circle(-1.0))
    assert f_lo < 0.0
    assert prog.crossing(program.R_RHO, 0.0, 0.0, u, -1.0, f_lo, 1.0, 1e-12) == 0.0


# -- the step evaluators, against the per-step chains they replaced ------------

def crossing_reference(ref, code, a, b, u, lo, f_lo, hi, width):
    """Program.crossing as the pure twin took each step before it had step
    evaluators, in plain Python on ref, an interpreter_reference:
    circle_reference at the midpoint, then residual_reference there, and
    the stop at a midpoint that is not strictly inside."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = residual_reference(ref, code, a, b, u, circle_reference(ref, mid))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _ChainProgram:
    """circle and residual of the per-step chain, on an
    interpreter_reference: what locus_reference reads."""

    def __init__(self, ref):
        self.ref = ref
        self.value = ref.value

    def circle(self, theta):
        return circle_reference(self.ref, theta)

    def residual(self, code, a, b, u, v):
        return residual_reference(self.ref, code, a, b, u, v)


# the planar trees the step evaluators are pinned on: every family and
# composite, and seeded random trees
_STEP_TREES = ([parse_norm(f, 2) for f in FAMILIES + COMPOSITES]
               + [gen_ast(SplitMix64(500 + seed), 2, 4) for seed in range(12)])
# the origin (semi's zero vector), the axis points of the l1 and linf kinks
# (and (0, 1), where rho towards the circle point at theta 0 is an exact
# zero on every norm symmetric in y), and one off both axes
_STEP_BASES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.6, -0.35))
_STEP = 2.0 * math.pi / 8
# brackets: each eighth of the circle, the bracket of [-1, 1] whose first
# midpoint is 0, and brackets of adjacent doubles and of doubles two apart
_BRACKETS = ([(j * _STEP, (j + 1) * _STEP) for j in range(8)]
             + [(-1.0, 1.0), (1.0, math.nextafter(1.0, 2.0)),
                (1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0))])


@pytest.mark.parametrize("part", range(4))
def test_step_residuals_keep_the_per_step_chains_bits(part):
    # the pure twin's crossing and its step evaluator, for every relation
    # code, bit for bit and error for error (semi's texts and order
    # included) against the chain circle -> residual it replaced
    errors = set()
    for ast in _STEP_TREES[part::4]:
        prog = _kernels_py.Program(*compile_ast(ast))
        ref = interpreter_reference(*tape_reference(ast))
        for code in CODES:
            for u in _STEP_BASES:
                at = prog._circle_residual(code, 0.3, 0.5, u, prog._relation_base(code, u))
                for lo, hi in _BRACKETS:
                    for theta in (lo, 0.5 * (lo + hi)):
                        want = _outcome(residual_reference, ref, code, 0.3, 0.5, u,
                                        circle_reference(ref, theta))
                        assert _outcome(at, theta) == want, (print_norm(ast), code, u, theta)
                        # and with its point, as a locus row takes it
                        row = (want if isinstance(want, tuple)
                               else (want, *_outcome(circle_reference, ref, theta)))
                        assert _outcome(at, theta, True) == row, (print_norm(ast), code, u, theta)
                    for f_lo, width in ((1.0, 1e-12), (-1.0, 0.0)):
                        args = (code, 0.3, 0.5, u, lo, f_lo, hi, width)
                        got = _outcome(prog.crossing, *args)
                        assert got == _outcome(crossing_reference, ref, *args), (print_norm(ast), args)
                        if isinstance(got, tuple):
                            errors.add(got[0])
    assert errors == {"NonSmoothPointError", "ZeroVectorError"}, errors


@pytest.mark.parametrize("part", range(2))
def test_locus_crossings_keep_the_per_step_chains_bits(part):
    # each crossing row's theta, point and residual, against the chain
    crossings = 0
    for ast in _STEP_TREES[part::2]:
        prog = _kernels_py.Program(*compile_ast(ast))
        chain = _ChainProgram(interpreter_reference(*tape_reference(ast)))
        for code in CODES:
            for u in _STEP_BASES[1:]:
                args = (code, 0.3, 0.5, u, 24, 1e-12)
                got = _rows(prog.locus, *args)
                want = _rows(lambda: [LocusPoint._make(r) for r in locus_reference(chain, *args)])
                assert got == want, (print_norm(ast), args)
                crossings += len(got) - 24 if isinstance(got, list) else 0
    assert crossings > 0


class _ChainImage:
    """A codomain as the refinement's per-step chain read it: an
    interpreter_reference's value, and each row of M x summed by fsum."""

    def __init__(self, columns):
        self.value = interpreter_reference(*columns).value

    image = staticmethod(_image_reference)


# codomains of 1, 2, 3 and 4 rows, whose gain is unrolled, and of 5 and 6
# rows, whose gain loops over them
_GAIN_DIMS = (1, 2, 3, 4, 5, 6)
# rows whose products or sums overflow, so that the refinement's rows reach
# fsum: an overflowing sum, inf + -inf, a lone inf, inf * 0 and NaN
_FSUM_ROWS = ((1.7e308, 1.7e308), (1e308, -1e308), (1e200, 1.0), (math.inf, 0.0),
              (math.nan, 1.0))


def _gain_matrices(dim, draws):
    """Random matrices of dim rows, some with a row of _FSUM_ROWS, first or last."""
    out = [tuple(draws.vector(2, -3.0, 3.0) for _ in range(dim)) for _ in range(2)]
    for row in _FSUM_ROWS:
        rest = [draws.vector(2, -3.0, 3.0) for _ in range(dim - 1)]
        out += [tuple([row] + rest), tuple(rest + [row])]
    return out


@pytest.mark.parametrize("dim", _GAIN_DIMS)
def test_operator_norm_gain_keeps_the_per_step_chains_bits(dim):
    # the refinement's gain evaluator at the grid's and golden's thetas and
    # the whole pure operator_norm, bit for bit and error for error, against
    # the chain -cod.value(fsum rows of circle(theta)) it replaced
    draws = SplitMix64(60 + dim)
    doms = _STEP_TREES[dim::3]
    # l2 on one coordinate is the raw tape: no norm expression has dim 1
    cods = ([(_L2_DIM1, ((0,), (0.0,), (0,), (), (-1,), (-1,), 1))] if dim == 1 else
            [(compile_ast(ast), tape_reference(ast)) for ast in
             [parse_norm("l2", dim), parse_norm("max(l1, linf)", dim)]
             + [gen_ast(SplitMix64(700 + dim * 10 + k), dim, 3) for k in range(2)]])
    for k, (tape, columns) in enumerate(cods):
        cod = _kernels_py.Program(*tape)
        chain = _ChainImage(columns)
        for dom_ast in doms[k::len(cods)] + [parse_norm("l2", 2)]:
            dom = _kernels_py.Program(*compile_ast(dom_ast))
            dom_ref = interpreter_reference(*tape_reference(dom_ast))
            circle = functools.partial(circle_reference, dom_ref)
            for matrix in _gain_matrices(dim, draws):
                rows = [tuple(map(float, row)) for row in matrix]
                gain = cod._shape.compiled("gain")(cod.params, cod.weights, dom._value, rows)
                for theta in (0.0, 0.7, 2.0, -1.25, 4.5):
                    want = _outcome(lambda t: -chain.value(chain.image(matrix, circle(t))), theta)
                    assert _outcome(gain, theta) == want, (tape, matrix, theta)
                assert (_norm_outcome(cod.operator_norm, dom.circle, matrix)
                        == _norm_outcome(operator_norm_reference, circle, chain, matrix)), (
                    tape, print_norm(dom_ast), matrix)


_L1 = parse_norm("l1", 2)
_L1_TAPE = compile_ast(_L1)
_L2_DIM3 = compile_ast(parse_norm("l2", 3))
_ZERO_TAPE = ((0, 6), (0.0, 0.0), (), 2)  # scale(0, l2)
_STEP48 = 2.0 * math.pi / 48


@pytest.mark.parametrize("tape, method, args, error", [
    # semi at the l1 corner: smooth at theta 0, not at the next point
    (_L1_TAPE, "locus", (8, 0.0, 0.0, (1.0, 0.0), 48, 1e-10), "NonSmoothPointError"),
    # two points, both smooth, whose sign change is bisected at pi / 2
    (_L1_TAPE, "locus", (8, 0.0, 0.0, (1.0, 0.0), 2, 1e-10), "NonSmoothPointError"),
    (_L1_TAPE, "crossing", (8, 0.0, 0.0, (1.0, 0.0), 0.0, 1.0, math.pi, 1e-10),
     "NonSmoothPointError"),
    (_L1_TAPE, "locus", (8, 0.0, 0.0, (0.0, 0.0), 48, 1e-10),
     ("ZeroVectorError", "semi-inner product needs a nonzero second argument")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), 0, 1e-10),
     ("ValueError", "resolution must be >= 1, got 0")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), -48, 1e-10),
     ("ValueError", "resolution must be >= 1, got -48")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), -2 ** 70, 1e-10),
     ("ValueError", f"resolution must be >= 1, got {-2 ** 70}")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), 48.0, 1e-10),
     ("TypeError", "'float' object cannot be interpreted as an integer")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), "48", 1e-10),
     ("TypeError", "'str' object cannot be interpreted as an integer")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), 48, "1e-10"),
     ("TypeError", "must be real number, not str")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0,), 48, 1e-10),
     ("ValueError", "expected 2 coordinates, got 1")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0, 0.0), 48, 1e-10),
     ("ValueError", "expected 2 coordinates, got 3")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, "a"), 48, 1e-10),
     ("TypeError", "must be real number, not str")),
    (_L1_TAPE, "locus", (9, 0.0, 0.0, (1.0, 0.0), 48, 1e-10),
     ("ValueError", "unknown relation code 9")),
    (_L1_TAPE, "locus", (3, None, 0.0, (1.0, 0.0), 48, 1e-10),
     ("TypeError", "must be real number, not NoneType")),
    (_L1_TAPE, "crossing", (3, 0.0, 0.0, (1.0,), 0.0, 1.0, 1.0, 1e-10),
     ("ValueError", "expected 2 coordinates, got 1")),
    (_L1_TAPE, "crossing", (3, 0.0, 0.0, (1.0, 0.0), "0", 1.0, 1.0, 1e-10),
     ("TypeError", "must be real number, not str")),
    (_L1_TAPE, "crossing", (3, 0.0, 0.0, (1.0, 0.0), 0.0, 1.0, None, 1e-10),
     ("TypeError", "must be real number, not NoneType")),
    (_L1_TAPE, "crossing", (-1, 0.0, 0.0, (1.0, 0.0), 0.0, 1.0, 1.0, 1e-10),
     ("ValueError", "unknown relation code -1")),
    (_L2_DIM3, "locus", (3, 0.0, 0.0, (1.0, 0.0, 0.0), 48, 1e-10),
     ("ValueError", "circle needs a 2-dimensional norm, got dim 3")),
    (_L2_DIM3, "crossing", (3, 0.0, 0.0, (1.0, 0.0, 0.0), 0.0, 1.0, 1.0, 1e-10),
     ("ValueError", "circle needs a 2-dimensional norm, got dim 3")),
    (_ZERO_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), 48, 1e-10),
     ("ZeroDivisionError", "float division by zero")),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), 48), "TypeError"),
    (_L1_TAPE, "locus", (3, 0.0, 0.0, (1.0, 0.0), 48, 1e-10, LocusPoint), "TypeError"),
    (_L1_TAPE, "crossing", (3, 0.0, 0.0, (1.0, 0.0), 0.0, 1.0, 1.0), "TypeError"),
    # u is read before the resolution, and every ring point before the
    # first residual, the kink's included
    (_L1_TAPE, "residuals", (3, 0.0, 0.0, (1.0,), 48.0),
     ("ValueError", "expected 2 coordinates, got 1")),
    (_L1_TAPE, "residuals", (3, None, 0.0, (1.0, 0.0), 48),
     ("TypeError", "must be real number, not NoneType")),
    (_L1_TAPE, "residuals", (3, 0.0, 0.0, (1.0, 0.0), 48.0),
     ("TypeError", "'float' object cannot be interpreted as an integer")),
    (_L1_TAPE, "residuals", (3, 0.0, 0.0, (1.0, 0.0), [(0.0, 1.0)]),
     ("TypeError", "'list' object cannot be interpreted as an integer")),
    (_L1_TAPE, "residuals", (3, 0.0, 0.0, (1.0, 0.0), 0),
     ("ValueError", "resolution must be >= 1, got 0")),
    (_L2_DIM3, "residuals", (3, 0.0, 0.0, (1.0, 0.0, 0.0), 48),
     ("ValueError", "circle needs a 2-dimensional norm, got dim 3")),
    (_ZERO_TAPE, "residuals", (8, 0.0, 0.0, (1.0, 0.0), 48),
     ("ZeroDivisionError", "float division by zero")),
    (_L1_TAPE, "residuals", (3, 0.0, 0.0, (1.0, 0.0)), "TypeError"),
])
def test_sweep_errors_agree(tape, method, args, error, compiled_kernels):
    fast, slow = compiled_kernels.Program(*tape), _kernels_py.Program(*tape)
    got = _rows(getattr(fast, method), *args)
    twin = _rows(getattr(slow, method), *args)
    if error == "TypeError":
        # the arity texts differ, as residual's do
        assert got[0] == twin[0] == error
    elif isinstance(error, str):
        # the semi texts carry the residuals of the point that raised
        assert got == twin
        assert got[0] == error
    else:
        assert got == twin == error


def test_locus_rejects_a_resolution_no_buffer_holds(compiled_kernels):
    prog = compiled_kernels.Program(*_L1_TAPE)
    with pytest.raises(MemoryError):
        prog.locus(3, 0.0, 0.0, (1.0, 0.0), 2 ** 70, 1e-10)


def test_locus_raises_where_semi_fails(pair):
    # the error is the one residual gives at the first non-smooth point
    fast, slow = pair(_L1)
    want = _outcome(slow.residual, 8, 0.0, 0.0, (1.0, 0.0), slow.circle(_STEP48))
    assert want[0] == "NonSmoothPointError"
    for prog in (fast, slow):
        assert _rows(prog.locus, 8, 0.0, 0.0, (1.0, 0.0), 48, 1e-10) == want
    want = _outcome(slow.residual, 8, 0.0, 0.0, (1.0, 0.0), slow.circle(0.5 * math.pi))
    for prog in (fast, slow):
        assert _rows(prog.locus, 8, 0.0, 0.0, (1.0, 0.0), 2, 1e-10) == want


def test_locus_rows_are_locus_points(pair):
    fast, slow = pair(parse_norm("l2", 2))
    rows = [prog.locus(3, 0.0, 0.0, (1.0, 0.0), 8, 1e-10) for prog in (fast, slow)]
    assert _rows(lambda: rows[0]) == _rows(lambda: rows[1])
    for row in rows[0] + rows[1]:
        assert type(row) is LocusPoint is program.LocusPoint
        assert len(row) == 5 and type(row[4]) is bool
    assert len(rows[0]) == 10  # 8 points, 2 crossings


# -- golden-section search and planar operator norms ----------------------------

def _methods(program_type):
    return {name for name in dir(program_type)
            if not name.startswith("_") and callable(getattr(program_type, name))}


def test_twins_list_the_same_methods(compiled_kernels):
    fast, slow = compiled_kernels.Program, _kernels_py.Program
    assert _methods(fast) == _methods(slow)
    assert len(_methods(slow)) == 12
    for name in _methods(slow):
        # each C method table entry carries its twin's summary line
        assert getattr(fast, name).__doc__ == getattr(slow, name).__doc__.splitlines()[0], name
        assert f"`{name}(" in _kernels_py.__doc__, name


def _norm_outcome(call, *args):
    """_outcome of a call that returns (value, direction)."""
    try:
        value, direction = call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return value.hex(), tuple(x.hex() for x in direction)


@pytest.mark.parametrize("i, family", list(enumerate(FAMILIES)))
def test_operator_norm_agrees_bitwise(i, family, compiled_kernels):
    # each twin with its own domain circle, against the plain-Python loop;
    # codomains of 1, 2 and 3 rows
    tape = compile_ast(parse_norm(family, 2))
    doms = compiled_kernels.Program(*tape), _kernels_py.Program(*tape)
    rng = SplitMix64(41 + i)

    def entry():
        # some of the extremes, whose products and sums overflow
        if rng.random() < 0.3:
            return _ENTRIES[int(rng.random() * len(_ENTRIES))]
        return rng.uniform(-4.0, 4.0)

    for rows in (1, 2, 3):
        programs = _image_programs(compiled_kernels, rows)
        fast, slow = programs[(i + rows) % len(programs)]
        for _ in range(2):
            matrix = tuple((entry(), entry()) for _ in range(rows))
            got = _norm_outcome(fast.operator_norm, doms[0].circle, matrix)
            assert got == _norm_outcome(slow.operator_norm, doms[1].circle, matrix), matrix
            assert got == _norm_outcome(operator_norm_reference, doms[1].circle, slow,
                                        matrix), matrix


@pytest.mark.parametrize("family", ["l1", "linf", "max(l1, l2)"])
@pytest.mark.parametrize("matrix", [((1.0, 0.0), (0.0, 1.0)), ((0.0, -1.0), (1.0, 0.0)),
                                    ((0.0, 1.0), (-1.0, 0.0))])
def test_operator_norm_takes_the_first_of_tied_gains(family, matrix, compiled_kernels):
    # an isometry of a polyhedral norm: many grid gains are exactly equal,
    # and both twins refine around the first of them, as the plain loop does
    tape = compile_ast(parse_norm(family, 2))
    ref = _kernels_py.Program(*tape)
    gains = [ref.value(ref.image(matrix, ref.circle(j * 2.0 * math.pi / 1024)))
             for j in range(1024)]
    assert gains.count(max(gains)) >= 12
    want = _norm_outcome(operator_norm_reference, ref.circle, ref, matrix)
    for mod in (compiled_kernels, _kernels_py):
        cod, dom = mod.Program(*tape), mod.Program(*tape)
        # cold, then from the kept ring
        assert _norm_outcome(cod.operator_norm, dom.circle, matrix) == want, mod
        assert _norm_outcome(cod.operator_norm, dom.circle, matrix) == want, mod


def _raise_zero_division(theta):
    return 1 / 0


# what operator_norm raises, as a TypeError, for a circle not its twin's own
_OWN_CIRCLE = "circle must be the bound circle of a Program of the same backend"

_OK = ((1.0, 0.5), (-0.5, 1.0))


@pytest.mark.parametrize("circle, matrix, error", [
    (_L2_TAPE, ((1.0, 0.5),), ("ValueError", "expected 2 rows, got 1")),
    (_L2_TAPE, None, ("TypeError", "object of type 'NoneType' has no len()")),
    (_L2_TAPE, ((1.0, 0.5), (1.0, 0.5, 0.0)), ("ValueError", "expected rows of 2 entries, got 3")),
    (_L2_TAPE, ((1.0, 0.5), (1.0,)), ("ValueError", "expected rows of 2 entries, got 1")),
    # rows are checked and read in turn: row 0's entry fails first
    (_L2_TAPE, ((1.0, "a"), (1.0,)), ("TypeError", "must be real number, not str")),
    (_L2_TAPE, ((1.0, 0.5), (None, 1.0)), ("TypeError", "must be real number, not NoneType")),
    (_L2_DIM3, _OK, ("ValueError", "circle needs a 2-dimensional norm, got dim 3")),
    (_ZERO_TAPE, _OK, ("ZeroDivisionError", "float division by zero")),
    (_L2_TAPE, ((1.7e308, 1.7e308), (0.0, 1.0)),
     ("OverflowError", "intermediate overflow in fsum")),
    (_WIDE_TAPE, ((1e308, -1e308), (0.0, 0.0)), ("ValueError", "-inf + inf in fsum")),
])
def test_operator_norm_errors_agree(circle, matrix, error, compiled_kernels):
    for mod in (compiled_kernels, _kernels_py):
        # a tape stands for its own Program's circle in each twin
        own = mod.Program(*circle).circle
        cod = mod.Program(*_L2_TAPE)
        assert _norm_outcome(cod.operator_norm, own, matrix) == error
        assert _outcome(cod.operator_norm, own)[0] == "TypeError"


@pytest.mark.parametrize("make", [
    lambda dom, other: (lambda t: dom.circle(t)),
    lambda dom, other: _raise_zero_division,
    lambda dom, other: dom.value,
    lambda dom, other: functools.partial(dom.circle),
    lambda dom, other: other.Program(*_L1_TAPE).circle,
    lambda dom, other: 3,
    lambda dom, other: None,
], ids=["lambda", "function", "value", "partial", "other-twin", "int", "none"])
def test_operator_norm_takes_only_its_twins_own_circle(make, compiled_kernels):
    # anything but the domain Program's own circle, of the same twin: one
    # text in both twins, raised before the matrix is read
    twins = (compiled_kernels, _kernels_py)
    for mod, other in (twins, twins[::-1]):
        cod, dom = mod.Program(*_L2_TAPE), mod.Program(*_L1_TAPE)
        for matrix in (_OK, None):
            got = _norm_outcome(cod.operator_norm, make(dom, other), matrix)
            assert got == ("TypeError", _OWN_CIRCLE), mod
        assert _norm_outcome(cod.operator_norm, dom.circle, _OK)[0] != "TypeError"


@pytest.mark.parametrize("family", FAMILIES)
def test_line_min_agrees_bitwise(family, pair):
    # each twin with its own line evaluator (inline in the compiled one)
    # and with the other twin's (called back), against the plain-Python loop
    fast, slow = pair(parse_norm(family, 2))
    rng = SplitMix64(43)
    for _ in range(6):
        u, v = rng.vector(2, -2.0, 2.0), rng.vector(2, -2.0, 2.0)
        phis = fast.line_evaluator(u, v), slow.line_evaluator(u, v)
        for lo, hi in ((-4.0, 4.0), (0.5, -3.0), (1.0, 1.0), (-math.inf, 1.0), (math.nan, 1.0)):
            for iters in (0, 1, 200):
                got = _outcome(fast.line_min, phis[0], lo, hi, iters)
                assert got == _outcome(fast.line_min, phis[1], lo, hi, iters)
                assert got == _outcome(slow.line_min, phis[1], lo, hi, iters)
                assert got == _outcome(slow.line_min, phis[0], lo, hi, iters)
                assert got == _outcome(golden_reference, phis[1], lo, hi, iters)


@pytest.mark.parametrize("args, error", [
    (("-1", 1.0, 8), ("TypeError", "must be real number, not str")),
    ((-1.0, None, 8), ("TypeError", "must be real number, not NoneType")),
    ((-1.0, 1.0, -1), ("ValueError", "iters must be >= 0, got -1")),
    ((-1.0, 1.0, 8.0), ("TypeError", "'float' object cannot be interpreted as an integer")),
])
def test_line_min_errors_agree(args, error, pair):
    fast, slow = pair(parse_norm("l2", 2))
    for prog in (fast, slow):
        phi = prog.line_evaluator((1.0, 0.0), (0.0, 1.0))
        assert _outcome(prog.line_min, phi, *args) == error
        assert _outcome(prog.line_min, _raise_zero_division, -1.0, 1.0, 8) == (
            "ZeroDivisionError", "division by zero")
        assert _outcome(prog.line_min, None, -1.0, 1.0, 8) == (
            "TypeError", "'NoneType' object is not callable")
        assert _outcome(prog.line_min, phi, -1.0, 1.0)[0] == "TypeError"


def test_compiled_sweeps_hold_memory_flat(compiled_kernels):
    l1 = compiled_kernels.Program(*compile_ast(_L1))
    l2 = compiled_kernels.Program(*compile_ast(parse_norm("l2", 2)))
    phi = l2.line_evaluator((1.0, 0.0), (0.3, 1.0))
    calls = [
        (l2.locus, 5, 0.3, 0.5, (0.6, -0.35), 48, 1e-10),
        (l2.locus, 3, 0.0, 0.0, (1.0, 0.0), 8, 1e-12),
        (l2.crossing, 3, 0.0, 0.0, (1.0, 0.0), 1.5, 1.0, 1.7, 1e-12),
        # raising after the buffers, and after some rows, are allocated
        (l1.locus, 8, 0.0, 0.0, (1.0, 0.0), 48, 1e-10),
        (l1.locus, 8, 0.0, 0.0, (1.0, 0.0), 2, 1e-10),
        (l1.crossing, 8, 0.0, 0.0, (1.0, 0.0), 0.0, 1.0, math.pi, 1e-10),
        (l1.locus, 3, 0.0, 0.0, (1.0, "a"), 48, 1e-10),
        # the ring's residuals, also raising after the ring is read
        (l2.residuals, 5, 0.3, 0.5, (0.6, -0.35), 48),
        (l1.residuals, 8, 0.0, 0.0, (1.0, 0.0), 48),
        # the planar operator norm and the line search, inline and called
        # back, and raising from the circle, the matrix and the row sums
        (l2.operator_norm, l1.circle, _OK),
        (l2.operator_norm, lambda t: l1.circle(t), _OK),
        (l2.operator_norm, l1.circle, ((1.0, "a"), (1.0, 0.5))),
        (l2.operator_norm, l2.circle, ((1.7e308, 1.7e308), (0.0, 1.0))),
        (l1.line_min, phi, -2.0, 2.0, 200),
        (l1.line_min, lambda t: phi(t), -2.0, 2.0, 200),
        (l1.line_min, lambda t: "a", -2.0, 2.0, 200),
    ]

    def run(times):
        for _ in range(times):
            for call, *args in calls:
                try:
                    call(*args)
                except (NonSmoothPointError, TypeError, OverflowError):
                    pass

    run(20)
    tracemalloc.start()
    try:
        run(5)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(300)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 20_000, grown


# -- unit-circle rings ----------------------------------------------------------

@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("family", FAMILIES)
def test_rings_keep_the_sweep_bits(backend, family):
    # a new Program's first locus and operator norm build its rings (cold),
    # the next ones read them (warm); both against the plain-Python loops,
    # on test_locus_agrees_bitwise's cases (the 720-point sweep at one
    # width), errors included: a locus that raises in its residuals has
    # read, and kept, its whole ring
    prog = backend.Program(*compile_ast(parse_norm(family, 2)))
    cod = backend.Program(*compile_ast(parse_norm("max(l1, scale(0.8, lp(3)))", 3)))
    runs = [(u, res, width) for u in SWEEP_BASES for res in (8, 48) for width in (1e-10, 1e-12)]
    runs.append((SWEEP_BASES[1], 720, 1e-12))
    for code in CODES:
        for u, resolution, width in runs:
            args = (code, 0.3, 0.5, u, resolution, width)
            want = _rows(lambda: [LocusPoint._make(r) for r in locus_reference(prog, *args)])
            for _ in ("cold", "warm"):
                assert _rows(prog.locus, *args) == want, args
    rng = SplitMix64(71)
    for _ in range(3):
        matrix = tuple((rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)) for _ in range(3))
        want = _norm_outcome(operator_norm_reference, prog.circle, cod, matrix)
        for _ in ("cold", "warm"):
            assert _norm_outcome(cod.operator_norm, prog.circle, matrix) == want, matrix


def test_warm_sweeps_take_no_circle_point_on_the_grid(monkeypatch):
    # every circle point the pure twin's sweeps take, counted: the ring's
    # own, which its build takes as the points (cos, sin) of its one values
    # pass, and operator_norm's direction, a circle call; a locus takes its
    # crossing rows' points from the bisection's evaluator, so it and the
    # mining scan's residuals take none but the ring's
    calls = []
    circle = _kernels_py.Program.circle

    def counted(self, theta):
        calls.append(theta)
        return circle(self, theta)

    monkeypatch.setattr(_kernels_py.Program, "circle", counted)
    prog = _kernels_py.Program(*compile_ast(parse_norm(COMPOSITES[3], 2)))
    cod = _kernels_py.Program(*_L2_TAPE)
    values = _kernels_py.Program._values

    def ring_points(self, points):
        points = list(points)
        if self is prog:
            calls.extend(points)
        return values(self, points)

    # the sweeps below read no other values pass of prog: rho is made of
    # derivatives, and the gains are cod's
    monkeypatch.setattr(_kernels_py.Program, "_values", ring_points)
    for sweep, n, rest in (
            (lambda: prog.locus(3, 0.0, 0.0, (0.6, -0.35), 48, 1e-12), 48, False),
            (lambda: cod.operator_norm(prog.circle, _OK), 1024, True),
            (lambda: prog.residuals(3, 0.0, 0.0, (0.6, -0.35), 64), 64, False)):
        counts = []
        for _ in ("cold", "warm"):
            calls.clear()
            sweep()
            counts.append(len(calls))
        assert counts[0] - counts[1] == n and (counts[1] > 0) == rest, counts


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_rings_are_never_served_to_another_program(backend):
    # sweep with Programs, drop them, then sweep with new ones: of the same
    # shape with other numbers, and of other shapes
    args = (5, 0.3, 0.5, (0.6, -0.35), 48, 1e-12)
    texts = ("scale(0.7, l2)", "lp(3)", "wlp(2; 1, 4)", "max(l1, l2)")
    others = ("scale(0.5, l2)", "lp(4)", "wlp(2; 4, 1)", "max(linf, l2)", "l1", COMPOSITES[0])
    for text in texts:
        prog = backend.Program(*compile_ast(parse_norm(text, 2)))
        prog.locus(*args)
        del prog
        gc.collect()
        for other in texts + others:
            fresh = backend.Program(*compile_ast(parse_norm(other, 2)))
            want = _rows(lambda: [LocusPoint._make(r) for r in locus_reference(
                _kernels_py.Program(*compile_ast(parse_norm(other, 2))), *args)])
            assert _rows(fresh.locus, *args) == want, (text, other)


def _held():
    """Bytes still traced of those allocated by this file's lines, the C
    twin's included, and by the pure twin's: no tracer's or runner's."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, __file__), tracemalloc.Filter(True, _kernels_py.__file__)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_rings_hold_bounded_memory(backend):
    # 32 rings of 1024 points, 16 KiB each, is all a twin keeps, whichever
    # sweeps keep them; a ring of more points is not kept at all
    progs = [backend.Program(*compile_ast(parse_norm(f"scale({1 + k / 64}, l2)", 2)))
             for k in range(62)]
    cod = backend.Program(*_L2_TAPE)
    tracemalloc.start()
    try:
        progs[60].locus(3, 0.0, 0.0, (1.0, 0.0), 1025, 1e-10)
        progs[61].residuals(3, 0.0, 0.0, (1.0, 0.0), 1025)
        assert _held() < 1024
        for prog in progs[:20]:
            prog.locus(3, 0.0, 0.0, (1.0, 0.0), 1024, 1e-10)
        for prog in progs[20:40]:
            cod.operator_norm(prog.circle, _OK)
        for prog in progs[40:60]:
            prog.residuals(3, 0.0, 0.0, (1.0, 0.0), 1024)
        held = _held()
    finally:
        tracemalloc.stop()
    assert 32 * 16384 <= held <= 32 * (16384 + 512), held


def test_locus_rings_hold_bounded_memory(compiled_kernels):
    # 32 locus rings of 1024 points keep 16 KiB of doubles and 96 KiB of
    # boxes each: three floats of 24 bytes and their references per point
    progs = [compiled_kernels.Program(*compile_ast(parse_norm(f"scale({1 + k / 64}, l2)", 2)))
             for k in range(40)]
    tracemalloc.start()
    try:
        for prog in progs:
            prog.locus(3, 0.0, 0.0, (1.0, 0.0), 1024, 1e-10)
        held = _held()
    finally:
        tracemalloc.stop()
    assert 32 * 1024 * 112 <= held <= 32 * (1024 * 112 + 512), held


# -- locus rows on the ring's boxes ---------------------------------------------

def test_locus_rows_outlive_their_ring(compiled_kernels):
    # a locus's rows share its ring's boxed theta, x and y, and keep their
    # bits after 33 other rings have evicted that ring
    tape = compile_ast(parse_norm("max(l1, l2)", 2))
    args = (5, 0.3, 0.5, (0.6, -0.35), 720, 1e-12)
    prog = compiled_kernels.Program(*tape)
    rows = prog.locus(*args)
    want = _rows(lambda: rows)
    assert want == _rows(_kernels_py.Program(*tape).locus, *args)
    for k in range(33):
        other = compiled_kernels.Program(*compile_ast(parse_norm(f"scale({1 + k / 64}, l2)", 2)))
        other.locus(3, 0.0, 0.0, (1.0, 0.0), 48, 1e-10)
    del other
    gc.collect()
    assert _rows(lambda: rows) == want
    # the ring and its boxes built again give the same rows
    assert _rows(prog.locus, *args) == want


def test_locus_calls_on_one_ring_share_its_boxes(compiled_kernels):
    prog = compiled_kernels.Program(*compile_ast(parse_norm("lp(3)", 2)))
    args = (3, 0.3, 0.5, (0.6, -0.35), 720, 1e-12)
    first, second = prog.locus(*args), prog.locus(*args)
    assert _rows(lambda: first) == _rows(lambda: second)
    # every grid row's theta, x and y are the same floats; no crossing row's
    shared = [a[k] is b[k] for a, b in zip(first, second) for k in range(3)]
    assert len(first) > 720 and shared.count(True) == 3 * 720


@pytest.mark.parametrize("resolution", [1024, 2048])
def test_locus_on_kept_and_unkept_rings_agrees_bitwise(resolution, pair):
    # 2048 points is past the largest kept ring: boxed for the call only
    fast, slow = pair(parse_norm("max(l1, l2)", 2))
    args = (5, 0.3, 0.5, (0.6, -0.35), resolution, 1e-12)
    want = _rows(slow.locus, *args)
    assert len(want) > resolution
    for _ in ("cold", "warm"):
        assert _rows(fast.locus, *args) == want


def test_warm_locus_calls_hold_nothing(compiled_kernels):
    # rows dropped give back every float and row they took, and take no
    # reference to the shared boxes with them; so does a ring not kept
    prog = compiled_kernels.Program(*compile_ast(parse_norm("l2", 2)))
    kept = (3, 0.3, 0.5, (0.6, -0.35), 720, 1e-12)
    unkept = kept[:4] + (2048,) + kept[5:]
    boxes = prog.locus(*kept)[0][:3]
    refs = [sys.getrefcount(box) for box in boxes]
    point_refs = sys.getrefcount(LocusPoint)
    for _ in range(20):
        prog.locus(*kept)
        prog.locus(*unkept)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(500):
            prog.locus(*kept)
        for _ in range(20):
            prog.locus(*unkept)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096, grown
    assert [sys.getrefcount(box) for box in boxes] == refs
    # each named-tuple row holds its type; untracked rows give it back too
    assert sys.getrefcount(LocusPoint) == point_refs


def test_locus_rows_are_untracked(pair):
    # grid and crossing rows hold only floats and bools, and LocusPoint has
    # no __dict__, so no cycle can pass through them and the compiled twin
    # untracks them from the cyclic GC.  The bits are the pure twin's
    fast, slow = pair(parse_norm(COMPOSITES[3], 2))
    args = (3, 0.3, 0.5, (0.6, -0.35), 720, 1e-12)
    rows = fast.locus(*args)
    assert len(rows) > 720  # 720 grid rows and a bisected crossing's
    for _ in ("built", "collected"):
        assert not any(map(gc.is_tracked, rows))
        gc.collect()
    assert _rows(lambda: rows) == _rows(slow.locus, *args)
