"""Vectors, norm evaluation, axiom auditing, and unit-sphere sampling."""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .kernels import get_program
from .normast import NormAst
from .rng import SplitMix64

__all__ = [
    "AUDIT_TOL",
    "Vector",
    "SampleConfig",
    "NormAudit",
    "as_vector",
    "eval_norm",
    "norm_on_line",
    "audit_norm",
    "sphere_sample",
    "corner_vectors",
    "random_vector",
]

Vector = tuple[float, ...]

# default tolerance for the sampled axiom audit, relative to the norms
# involved; composed norms accumulate a few ulps per node
AUDIT_TOL = 1e-10


@dataclass(frozen=True)
class SampleConfig:
    """Seeded sampling parameters shared by probes and searches."""

    seed: int = 0
    count: int = 1000
    scale: float = 1.0

    def __post_init__(self):
        # a bool is an int to isinstance, but it is no seed, count or scale
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int)
                                               and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        _check_count(self.count, "count")
        if isinstance(self.scale, bool) or not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")


class NormAudit(NamedTuple):
    """Outcome of a sampled norm-axiom audit; zero violations expected."""

    samples: int
    violations: int
    worst_kind: str | None = None
    worst_defect: float = 0.0
    worst_u: Vector | None = None
    worst_v: Vector | None = None
    worst_t: float | None = None


def _check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError, naming the parameter, unless tol is finite and
    nonnegative."""
    if not 0.0 <= tol < math.inf:  # false for NaN too
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")


def _check_count(n: int, name: str) -> None:
    """Raise ValueError, naming the parameter, unless n is a positive int
    (a bool is not one)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")


def as_vector(coords) -> Vector:
    """Validate and freeze a coordinate sequence.

    Rejects NaN and infinite entries; anything convertible to float is
    accepted.  This is the check for callers without a norm (apply_map,
    the CLI); entries that have one call Program.vectors, which also
    checks the dimension.
    """
    vec = tuple(map(float, coords))
    for c in vec:
        if not math.isfinite(c):
            raise ValueError(f"vector coordinates must be finite, got {c!r}")
    return vec


def eval_norm(ast: NormAst, u) -> float:
    """The norm of u under the given expression."""
    prog = get_program(ast)
    (vec,) = prog.vectors(u)
    return prog.value(vec)


def norm_on_line(ast: NormAst, u, v):
    """Callable phi with phi(t) = norm(u + t v), cheap to call repeatedly."""
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return prog.line_evaluator(uu, vv)


def random_vector(rng: SplitMix64, dim: int, scale: float) -> Vector:
    """Coordinates drawn uniformly from [-scale, scale]."""
    return rng.vector(dim, -scale, scale)


def audit_norm(ast: NormAst, cfg: SampleConfig, tol: float = AUDIT_TOL) -> NormAudit:
    """Sampled check of homogeneity, the triangle inequality, and positivity.

    Draws cfg.count triples (u, v, t) and records the worst defect seen.
    The positivity check is skipped for the zero vector, which the axiom
    does not constrain.  tol must be finite and nonnegative.
    """
    _check_tol(tol)
    prog = get_program(ast)
    rng = SplitMix64(cfg.seed)
    dim = ast.dim
    violations = 0
    worst = (None, 0.0, None, None, None)  # kind, defect, u, v, t

    def record(kind, defect, u, v, t):
        nonlocal violations, worst
        violations += 1
        if defect > worst[1]:
            worst = (kind, defect, u, v, t)

    for _ in range(cfg.count):
        u = rng.vector(dim, -cfg.scale, cfg.scale)
        v = rng.vector(dim, -cfg.scale, cfg.scale)
        t = rng.uniform(-10.0, 10.0)
        nu = prog.value(u)
        nv = prog.value(v)

        tu = tuple([t * c for c in u])
        defect = abs(prog.value(tu) - abs(t) * nu)
        if defect > tol * nu:
            record("homogeneity", defect, u, None, t)

        uv = tuple(map(operator.add, u, v))
        defect = prog.value(uv) - (nu + nv)
        if defect > tol * (nu + nv):
            record("triangle", defect, u, v, None)

        if nu <= 0.0 and any(u):
            record("positivity", -nu, u, None, None)

    return NormAudit(cfg.count, violations, *worst)


def sphere_sample(ast: NormAst, cfg: SampleConfig) -> list[Vector]:
    """cfg.count points with norm 1 up to a few ulps, deterministic per seed.

    Coordinates are drawn uniformly in [-scale, scale] and the vector is
    radially normalized; zero draws are rejected and redrawn.
    """
    prog = get_program(ast)
    rng = SplitMix64(cfg.seed)
    return [_unit_vector(rng, prog, ast.dim, cfg.scale) for _ in range(cfg.count)]


def _normalized(prog, x: Vector) -> Vector | None:
    """x divided by its norm, or None when that norm is zero."""
    r = prog.value(x)
    return None if r == 0.0 else tuple([c / r for c in x])


def _unit_vector(rng: SplitMix64, prog, dim: int, scale: float) -> Vector:
    """The first draw in [-scale, scale]^dim with nonzero norm, divided by
    that norm."""
    while True:
        x = _normalized(prog, rng.vector(dim, -scale, scale))
        if x is not None:
            return x


def _random_pairs(rng: SplitMix64, dim: int, scale: float, prog=None):
    """Endless pairs (u, v) of draws in [-scale, scale]^dim, u's first.
    Given a Program, each draw of norm zero is dropped and drawn again."""
    draws = iter(functools.partial(rng.vector, dim, -scale, scale), None)
    if prog is not None:
        draws = filter(prog.value, draws)
    return zip(draws, draws)


def _worst(samples, measure, name: str):
    """(worst, witness, skipped): the running worst of measure(u, v) over
    the pairs (u, v) of samples.

    worst is the first largest positive measure and witness its pair; they
    start as 0.0 and (None, None).  A measure of None skips its sample and
    is counted in skipped.  An infinite measure is kept.  A NaN measure,
    which no comparison would keep, comes from an overflow: it raises
    ValueError, "<name> overflows at this scale".
    """
    worst = 0.0
    witness = (None, None)
    skipped = 0
    for u, v in samples:
        m = measure(u, v)
        if m is None:
            skipped += 1
        elif m > worst:
            worst, witness = m, (u, v)
        elif m != m:
            raise ValueError(f"{name} overflows at this scale")
    return worst, witness, skipped


def _corner_stream(dim: int):
    """corner_vectors(dim), lazily and in the same order."""
    zero = (0.0,) * dim
    return filter(zero.__ne__, itertools.product((-1.0, 0.0, 1.0), repeat=dim))


def corner_vectors(dim: int) -> tuple[Vector, ...]:
    """All sign patterns over {-1, 0, 1}^dim except the origin.

    These hit the measure-zero sets where polyhedral norms are
    non-smooth: zero coordinates (l1 kinks) and tied coordinates
    (linf ridges).  Random floating-point draws never land there.
    """
    return tuple(_corner_stream(dim))
