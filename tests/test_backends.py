"""Agreement and selection tests for the two evaluation backends."""

import functools
import os
import subprocess
import sys
import sysconfig

import pytest

from normortho import L1, LInf, Lp, SplitMix64, Sum, backend_name, parse_norm
from normortho import _kernels_py
from normortho.program import compile_ast

from conftest import FAMILIES, _missing_toolchain


@pytest.fixture
def pair(compiled_kernels):
    def make(ast):
        tape = compile_ast(ast)
        return compiled_kernels.Program(*tape), _kernels_py.Program(*tape)
    return make


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_kernels_c_builds_without_warnings(tmp_path):
    reason = _missing_toolchain("gcc")
    if reason is not None:
        pytest.skip(reason)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "normortho", "_kernels.c")
    proc = subprocess.run(
        ["gcc", "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror",
         "-I" + sysconfig.get_paths()["include"], src,
         "-o", str(tmp_path / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX")))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


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
    (((), (), (), (), (), (), 2), "same length n >= 1"),
    (((0, 0), (0.0,), (0, 0), (), (-1, -1), (-1, -1), 2), "same length n >= 1"),
    (((9,), (0.0,), (0,), (), (-1,), (-1,), 2), "node 0: unknown kind 9"),
    (((-1,), (0.0,), (0,), (), (-1,), (-1,), 2), "node 0: unknown kind -1"),
    (((4,), (0.0,), (0,), (), (100000,), (-7,), 2),
     "node 0: child 100000 is not an earlier node"),
    (((0, 5), (0.0, 0.0), (0, 0), (), (-1, 0), (-1, 1), 2),
     "node 1: child 1 is not an earlier node"),
    (((0, 6), (0.0, 2.0), (0, 0), (), (-1, -1), (-1, -1), 2),
     "node 1: child -1 is not an earlier node"),
    (((1,), (0.0,), (1,), (1.0, 1.0), (-1,), (-1,), 2),
     "node 0: weights 1..3 lie outside the pool of 2"),
    (((3,), (2.0,), (-1,), (1.0, 1.0), (-1,), (-1,), 2),
     "node 0: weights -1..1 lie outside the pool of 2"),
])
def test_both_backends_reject_malformed_tape(backend, tape, message):
    with pytest.raises(ValueError, match=message):
        backend.Program(*tape)


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_tape_check_accepts_unused_child_slots(backend):
    # a scale node reads only left; leaves read neither child slot
    prog = backend.Program((0, 6), (0.0, 2.0), (0, 0), (), (-1, 0), (-1, 77), 2)
    assert prog.value((3.0, 4.0)) == 10.0


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
