"""Orthogonality relations, the Birkhoff oracle, and closed-form solvers.

Two independent Birkhoff-James deciders are exposed on purpose.
`is_orthogonal` with the "birkhoff" tag uses the derivative
characterization (u is orthogonal to v iff rho_- <= 0 <= rho_+), while
`birkhoff_oracle` minimizes t -> norm(u + t v) directly by golden-section
search and never touches the derivative engine.  Each guards the other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .derivs import AlphaBeta, Lambda
from .errors import DimensionMismatchError, ZeroVectorError
from .kernels import get_program
from .normast import NormAst
from .space import Vector, _check_count, _check_tol

__all__ = [
    "RELATION_TAGS",
    "Relation",
    "OrthoVerdict",
    "LocusPoint",
    "relation_residual",
    "is_orthogonal",
    "birkhoff_oracle",
    "ab_orthogonalizer",
    "birkhoff_t_interval",
    "ortho_locus",
]

# a tag's position here is its Program.residual code (program.R_*)
RELATION_TAGS = (
    "birkhoff",
    "rho_plus",
    "rho_minus",
    "rho",
    "rho_lambda",
    "rho_ab",
    "isosceles",
    "pythagorean",
    "semi",
)

# largest locus sweep; the sweep holds all its points at once, and 2**20
# of them take about 270 MB
_MAX_RESOLUTION = 2**20


@dataclass(frozen=True)
class Relation:
    """An orthogonality relation tag plus its embedded parameters."""

    tag: str
    ab: AlphaBeta | None = None
    lam: Lambda | None = None

    def __post_init__(self):
        if self.tag not in RELATION_TAGS:
            raise ValueError(f"unknown relation {self.tag!r}; expected one of {RELATION_TAGS}")
        if self.tag == "rho_ab" and self.ab is None:
            raise ValueError("relation rho_ab needs an (alpha, beta) pair")
        if self.tag == "rho_lambda" and self.lam is None:
            raise ValueError("relation rho_lambda needs a lambda weight")
        if self.tag != "rho_ab" and self.ab is not None:
            raise ValueError(f"relation {self.tag} takes no (alpha, beta) pair")
        if self.tag != "rho_lambda" and self.lam is not None:
            raise ValueError(f"relation {self.tag} takes no lambda weight")
        if self.ab is not None and not isinstance(self.ab, AlphaBeta):
            raise ValueError(f"the (alpha, beta) pair must be an AlphaBeta, got {self.ab!r}")
        if self.lam is not None and not isinstance(self.lam, Lambda):
            raise ValueError(f"the lambda weight must be a Lambda, got {self.lam!r}")

    @functools.cached_property
    def _residual_args(self) -> tuple[int, float, float]:
        """(code, a, b), the leading arguments of Program.residual."""
        code = RELATION_TAGS.index(self.tag)
        if self.ab is not None:
            return code, self.ab.alpha, self.ab.beta
        if self.lam is not None:
            return code, self.lam.lam, 0.0
        return code, 0.0, 0.0


class OrthoVerdict(NamedTuple):
    holds: bool
    residual: float
    tol: float


class LocusPoint(NamedTuple):
    theta: float
    x: float
    y: float
    residual: float
    is_zero_crossing: bool


def relation_residual(rel: Relation, ast: NormAst, u, v) -> float:
    """The defining quantity of the relation; zero (or <= 0 for Birkhoff)
    means the relation holds.

    Per tag: birkhoff -> max(rho_-, -rho_+); rho family -> the functional
    value; isosceles -> norm(u+v) - norm(u-v); pythagorean ->
    norm(u-v)^2 - norm(u)^2 - norm(v)^2; semi -> [v, u] (raises at
    non-smooth points).
    """
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    code, a, b = rel._residual_args
    return prog.residual(code, a, b, uu, vv)


def _violation(rel: Relation, residual: float) -> float:
    """How far rel is from holding: the residual for birkhoff, which holds
    one-sided, its absolute value otherwise.  NaN stays NaN."""
    return residual if rel.tag == "birkhoff" else abs(residual)


def _verdict(rel: Relation, prog, u: Vector, v: Vector, tol: float) -> OrthoVerdict:
    code, a, b = rel._residual_args
    residual = prog.residual(code, a, b, u, v)
    return OrthoVerdict(_violation(rel, residual) <= tol, residual, tol)


def is_orthogonal(rel: Relation, ast: NormAst, u, v, tol: float = 1e-9) -> OrthoVerdict:
    """Decide the relation at tolerance tol.

    Equational relations hold when |residual| <= tol; Birkhoff holds when
    the one-sided chain rho_- <= tol and rho_+ >= -tol does, i.e. when
    its residual max(rho_-, -rho_+) <= tol.  tol must be finite and
    nonnegative.
    """
    _check_tol(tol)
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return _verdict(rel, prog, uu, vv, tol)


def birkhoff_oracle(ast: NormAst, u, v, tol: float = 1e-9, iters: int = 200) -> OrthoVerdict:
    """Brute-force Birkhoff-James decision by 1-D minimization.

    norm(u + t v) is convex in t, hence unimodal; any minimizer t*
    satisfies |t*| <= 2 norm(u)/norm(v) (outside, the reverse triangle
    inequality gives norm(u+tv) >= |t| norm(v) - norm(u) > norm(u)), so
    the bracket T = 4 norm(u)/norm(v) is rigorous with slack.  The
    search (Program.line_min) takes iters golden-section steps.  Holds iff
    min_t norm(u + t v) >= norm(u) - tol; tol must be finite and
    nonnegative, and iters a positive integer.
    """
    _check_tol(tol)
    _check_count(iters, "iters")
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    nu = prog.value(uu)
    nv = prog.value(vv)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVectorError("birkhoff oracle needs nonzero u and v")
    phi = prog.line_evaluator(uu, vv)
    big_t = 4.0 * nu / nv
    _, lowest = prog.line_min(phi, -big_t, big_t, iters)
    residual = nu - lowest
    return OrthoVerdict(residual <= tol, residual, tol)


def _orthogonalize(prog, u: Vector, v: Vector, ab: AlphaBeta) -> tuple[float, Vector]:
    val, dp, dm = prog.derivs(u, v)
    if val == 0.0:
        raise ZeroVectorError("orthogonalizer needs a nonzero u")
    r_ab = ab.alpha * (val * dm) + ab.beta * (val * dp)
    s = -r_ab / (ab.total * val * val)
    w = tuple([s * a + b for a, b in zip(u, v)])
    return s, w


def ab_orthogonalizer(ast: NormAst, u, v, ab: AlphaBeta) -> tuple[float, Vector]:
    """Scalar s with rho_ab(u, s u + v) = 0, and the witness w = s u + v.

    Closed form from the shift identity rho_ab(u, t u + v) =
    (alpha+beta) t norm(u)^2 + rho_ab(u, v):

        s = -rho_ab(u, v) / ((alpha+beta) norm(u)^2)
    """
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return _orthogonalize(prog, uu, vv, ab)


def birkhoff_t_interval(ast: NormAst, u, v) -> tuple[float, float]:
    """All t with u Birkhoff-orthogonal to t u + v form this closed interval.

    The shift identity moves rho_+- by t norm(u)^2, so the chain
    rho_-(u, tu+v) <= 0 <= rho_+(u, tu+v) holds exactly for
    t in [-rho_+(u,v)/norm(u)^2, -rho_-(u,v)/norm(u)^2]; nonempty since
    rho_- <= rho_+.
    """
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    val, dp, dm = prog.derivs(uu, vv)
    if val == 0.0:
        raise ZeroVectorError("interval needs a nonzero u")
    nsq = val * val
    return (-(val * dp) / nsq, -(val * dm) / nsq)


def ortho_locus(ast: NormAst, u, rel: Relation, resolution: int = 720) -> list[LocusPoint]:
    """Residual of the relation along the planar unit circle of the norm.

    Walks x(theta) = (cos theta, sin theta)/norm(...) for resolution
    equally spaced Euclidean angles, then refines every strict residual
    sign change by bisection to an angular window below 1e-10 (sound
    because rho_+- and hence all residuals here are continuous in the
    second argument).  Refined crossings are spliced into the returned
    sequence with is_zero_crossing set.  The sweep runs in the kernel
    (Program.locus), which builds every LocusPoint itself.  resolution
    must lie in [8, 2**20].
    """
    if ast.dim != 2:
        raise DimensionMismatchError("locus tracing is defined for 2-dimensional spaces only")
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    if resolution > _MAX_RESOLUTION:
        raise ValueError(f"resolution must be <= {_MAX_RESOLUTION}, got {resolution}")
    prog = get_program(ast)
    (uu,) = prog.vectors(u)
    if prog.value(uu) == 0.0:
        raise ZeroVectorError("locus needs a nonzero base vector")
    return prog.locus(*rel._residual_args, uu, resolution, 1e-10, LocusPoint)
