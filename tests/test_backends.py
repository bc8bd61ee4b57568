"""Agreement and selection tests for the two evaluation backends."""

import os
import re
import subprocess
import sys

import pytest

from normortho import SplitMix64, backend_name, parse_norm
from normortho import _kernels_py
from normortho.program import compile_ast

from conftest import FAMILIES


@pytest.fixture
def pair(compiled_kernels):
    def make(ast):
        tape = compile_ast(ast)
        return compiled_kernels.Program(*tape), _kernels_py.Program(*tape)
    return make


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_backend_name_is_known():
    assert backend_name() in ("compiled", "pure-python")


def test_extension_selected_when_present():
    try:
        from normortho import _kernels  # noqa: F401
    except ImportError:
        pytest.skip("extension not built in the package")
    if os.environ.get("NORMORTHO_PURE_PYTHON"):
        pytest.skip("pure-python override active")
    assert backend_name() == "compiled"


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
    fast, slow = pair(parse_norm("l2", 2))
    with pytest.raises(ValueError):
        fast.value(bad)
    with pytest.raises(ValueError):
        slow.value(bad)


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


_MARKER = "             # <<<<<<<<<<<<<<"


def test_generated_c_quotes_current_pyx():
    # Cython heads every block of _kernels.c with the .pyx line it came
    # from; a hand edit of one file without the other breaks the match.
    here = os.path.join(os.path.dirname(__file__), os.pardir, "src", "normortho")
    with open(os.path.join(here, "_kernels.pyx"), encoding="utf-8") as fh:
        pyx = fh.read().splitlines()
    with open(os.path.join(here, "_kernels.c"), encoding="utf-8") as fh:
        c_lines = fh.read().splitlines()
    header = re.compile(r'\s*/\* "normortho/_kernels\.pyx":(\d+)$')
    blocks = 0
    for i, line in enumerate(c_lines):
        m = header.match(line)
        if m is None:
            continue
        blocks += 1
        end = c_lines.index("*/", i)
        marked = [q for q in c_lines[i + 1:end] if q.endswith(_MARKER)]
        assert len(marked) == 1, f"_kernels.c:{i + 1}: expected one marked line"
        quoted = marked[0][len(" * "):-len(_MARKER)]
        assert quoted == pyx[int(m.group(1)) - 1], f"_kernels.c:{i + 1} is out of sync"
    assert blocks > 300
