"""Positive homogeneity of rho_+- in both slots, at every magnitude.

For s > 0, rho_+-(s u, v) = s rho_+-(u, v) and rho_+-(u, s v) = s rho_+-(u, v);
for s < 0 the sides swap: rho_+-(s u, v) = s rho_-+(u, v), and likewise in
v.  Scaling by a power of two is exact in binary floating point, so there
the identities must hold exactly; for other factors they hold to rounding
on the scale of |rho|, which is at most |s| N(u) N(v).
"""

import pytest

from normortho import SplitMix64, parse_norm
from normortho.derivs import _rho_pair
from normortho.program import compile_ast

from conftest import FAMILIES, gen_ast

EXACT = [sign * 2.0 ** k for k in (-990, -40, 3, 40, 990) for sign in (1.0, -1.0)]
INEXACT = [sign * s for s in (1e-300, 1e-13, 3.7, 1e300) for sign in (1.0, -1.0)]


def _norms(dim):
    rng = SplitMix64(700 + dim)
    # wlp(2; 1, 4) has two weights, so it exists in dimension 2 only
    fams = [parse_norm(f, dim) for f in FAMILIES if dim == 2 or not f.startswith("wlp")]
    return fams + [gen_ast(rng, dim, 3) for _ in range(8)]


def _points(rng, dim):
    # a corner of the cube, an axis point (zero coordinates), random points
    corner = tuple(1.0 if j % 2 == 0 else -1.0 for j in range(dim))
    axis = (1.5,) + (0.0,) * (dim - 1)
    pts = [corner, axis] + [tuple(rng.uniform(-3.0, 3.0) for _ in range(dim)) for _ in range(4)]
    return [(u, tuple(rng.uniform(-3.0, 3.0) for _ in range(dim))) for u in pts]


def _scaled(s, x):
    return tuple(s * c for c in x)


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rho_pm_homogeneous_in_both_slots(backend, dim):
    rng = SplitMix64(dim)
    for ast in _norms(dim):
        prog = backend.Program(*compile_ast(ast))
        for u, v in _points(rng, dim):
            rm, rp = _rho_pair(prog, u, v)
            band = prog.value(u) * prog.value(v)
            for s in EXACT + INEXACT:
                # expected (rho_-, rho_+) after scaling one slot by s
                want = (s * rm, s * rp) if s > 0 else (s * rp, s * rm)
                for got in (_rho_pair(prog, _scaled(s, u), v),
                            _rho_pair(prog, u, _scaled(s, v))):
                    if s in EXACT:
                        assert got == want, (ast, u, v, s)
                    else:
                        tol = 1e-12 * abs(s) * band
                        assert abs(got[0] - want[0]) <= tol, (ast, u, v, s, got, want)
                        assert abs(got[1] - want[1]) <= tol, (ast, u, v, s, got, want)
