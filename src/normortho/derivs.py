"""One-sided norm derivatives and the functionals built from them.

The central objects are the limits

    rho_pm(u, v) = lim_{t -> 0+-} (norm(u + t v)^2 - norm(u)^2) / (2 t)

which equal norm(u) times the one-sided directional derivatives of the
norm at u in direction v.  They exist everywhere by convexity.  rho is
their average, rho_lambda the convex combination lambda rho_- +
(1 - lambda) rho_+, and rho_ab the combination alpha rho_- + beta rho_+
with alpha, beta in [0, 1), 0 < alpha + beta < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .kernels import get_program
from .normast import NormAst
from .program import R_RHO, R_RHO_AB, R_RHO_LAMBDA, R_SEMI
from .space import Vector

__all__ = [
    "AlphaBeta",
    "Lambda",
    "DerivResult",
    "dir_deriv_exact",
    "rho_pm",
    "rho_pm_numeric",
    "rho",
    "rho_lambda",
    "rho_ab",
    "rho_pair",
    "sip",
]

# ladder floor for the numeric fallback; below this the difference
# quotient is dominated by cancellation noise
_T_FLOOR = 1e-14


@dataclass(frozen=True)
class AlphaBeta:
    """Admissible parameter pair: alpha, beta in [0,1) with 0 < alpha+beta < 1."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            raise ValueError(f"alpha and beta must be numbers, got {a!r}, {b!r}")
        a, b = float(a), float(b)
        if not (0.0 <= a < 1.0 and 0.0 <= b < 1.0 and 0.0 < a + b < 1.0):
            raise ValueError(
                f"need alpha, beta in [0,1) with 0 < alpha+beta < 1, got ({a}, {b})"
            )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def total(self) -> float:
        return self.alpha + self.beta

    @property
    def swapped(self) -> "AlphaBeta":
        return AlphaBeta(self.beta, self.alpha)


@dataclass(frozen=True)
class Lambda:
    """Convex-combination weight in [0, 1]."""

    lam: float

    def __post_init__(self):
        v = self.lam
        if not (isinstance(v, (int, float)) and 0.0 <= float(v) <= 1.0):
            raise ValueError(f"lambda must lie in [0, 1], got {v!r}")
        object.__setattr__(self, "lam", float(v))


class DerivResult(NamedTuple):
    """A derivative value plus how it was obtained.

    For method "numeric" the true value is guaranteed to lie in
    [value - enclosure_width, value + enclosure_width]; exact results
    carry width 0.
    """

    value: float
    method: str  # "exact" | "numeric"
    enclosure_width: float


def _side_sign(side: str) -> float:
    if side == "plus":
        return 1.0
    if side == "minus":
        return -1.0
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def dir_deriv_exact(ast: NormAst, u, v, side: str) -> float:
    """One-sided directional derivative of the norm at u in direction v.

    Computed by structural recursion over the expression tree; exact up
    to rounding in the closed-form node formulas.  At u = 0 the value is
    +norm(v) on the plus side and -norm(v) on the minus side.
    """
    _side_sign(side)
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    _, dp, dm = prog.derivs(uu, vv)
    return dp if side == "plus" else dm


def _rho_pair(prog, u: Vector, v: Vector) -> tuple[float, float]:
    val, dp, dm = prog.derivs(u, v)
    return val * dm, val * dp


def _rho_ab(prog, u: Vector, v: Vector, ab: AlphaBeta) -> float:
    return prog.residual(R_RHO_AB, ab.alpha, ab.beta, u, v)


def rho_pair(ast: NormAst, u, v) -> tuple[float, float]:
    """(rho_-, rho_+) in one tape pass."""
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return _rho_pair(prog, uu, vv)


def rho_pm(ast: NormAst, u, v, side: str) -> DerivResult:
    """Exact rho_+ or rho_-; zero at u = 0 by the squared-quotient form."""
    _side_sign(side)
    rm, rp = rho_pair(ast, u, v)
    return DerivResult(rp if side == "plus" else rm, "exact", 0.0)


def rho_pm_numeric(ast: NormAst, u, v, side: str, tol: float) -> DerivResult:
    """Difference-quotient fallback with a rigorous enclosure.

    Convexity makes g(t) = (norm(u + t v) - norm(u)) / t nondecreasing,
    so for every t > 0

        g(-t) <= rho_-/norm(u) <= rho_+/norm(u) <= g(t).

    The ladder t_k = t_0 / 2^k descends until the working side's
    successive quotient change drops below tol/norm(u) or t_k hits the
    1e-14 floor (the result is then simply wide).  The reported width is
    the two-sided bracket norm(u)(g(t) - g(-t)) plus a rounding-noise
    allowance, so the enclosure always contains the exact value on
    either side, including fractional-power tails where the last
    successive change alone would undershoot.  tol must be a positive,
    finite number, not a bool.
    """
    sign = _side_sign(side)
    # a bool is an int, and an infinite tol stops the ladder at its second rung
    if isinstance(tol, bool) or not (isinstance(tol, (int, float)) and 0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    nu = prog.value(uu)
    nv = prog.value(vv)
    if nu == 0.0 or nv == 0.0:
        # squared quotient is t*norm(v)^2/2 or identically zero
        return DerivResult(0.0, "exact", 0.0)

    phi = prog.line_evaluator(uu, vv)
    t = 1e-2 * nu / nv
    tol_q = tol / nu
    q_prev = math.inf
    while True:
        q_hi = (phi(t) - nu) / t
        q_lo = (phi(-t) - nu) / (-t)
        q = q_hi if sign > 0 else q_lo
        if abs(q - q_prev) < tol_q:
            break
        if t * 0.5 < _T_FLOOR:
            break
        q_prev = q
        t *= 0.5

    # each quotient carries ~2 ulps of norm-evaluation error amplified by 1/t
    noise = 2e-15 * (nu + t * nv) / t
    width = nu * ((q_hi - q_lo) + noise)
    return DerivResult(nu * q, "numeric", max(width, 0.0))


def rho(ast: NormAst, u, v) -> float:
    """(rho_- + rho_+) / 2."""
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return prog.residual(R_RHO, 0.0, 0.0, uu, vv)


def rho_lambda(ast: NormAst, u, v, lam: Lambda) -> float:
    """lambda rho_- + (1 - lambda) rho_+."""
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return prog.residual(R_RHO_LAMBDA, lam.lam, 0.0, uu, vv)


def rho_ab(ast: NormAst, u, v, ab: AlphaBeta) -> float:
    """alpha rho_- + beta rho_+."""
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return _rho_ab(prog, uu, vv, ab)


def sip(ast: NormAst, v, u) -> float:
    """Semi-inner product [v, u] = rho_+(u, v) at smooth points.

    Requires u != 0 and rho_+ = rho_- at (u, v) within a 1e-12 relative
    band; otherwise the value would depend on the side of approach and a
    NonSmoothPointError is raised.  Satisfies [u, u] = norm(u)^2 and
    |[v, u]| <= norm(v) norm(u).
    """
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return prog.residual(R_SEMI, 0.0, 0.0, uu, vv)
