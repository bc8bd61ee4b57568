"""Angles, unit-ball geometry probes, and characterization identities.

The angle functional arccos(rho_ab(u,v) / ((alpha+beta) norm(u) norm(v)))
generalizes the Euclidean angle; on an inner-product norm it reduces to
it exactly.  The probes hunt for the geometric pathologies that separate
general norms from inner-product norms: non-smooth points, flat faces,
asymmetry of rho_ab, and quartic-identity violations.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from itertools import chain, combinations, islice, product
from typing import NamedTuple

from .derivs import AlphaBeta, _rho_ab, _rho_pair
from .errors import EngineError, ZeroVectorError
from .kernels import get_program
from .normast import NormAst
from .space import (
    SampleConfig,
    Vector,
    _check_tol,
    _corner_stream,
    _normalized,
    _random_pairs,
    _unit_vector,
    _worst,
)
from .rng import SplitMix64

__all__ = [
    "AngleResult",
    "ProbeReport",
    "ExtremeEstimate",
    "angle_ab",
    "angle_homogeneity_check",
    "angular_constant",
    "smoothness_probe",
    "strict_convexity_probe",
    "quartic_identity_residual",
    "symmetry_residual",
    "symmetry_search",
    "norm_equiv_constant",
]

# band beyond which an out-of-range arccos argument stops being roundoff
# and starts being an engine defect
_CLAMP_BAND = 1e-9


class AngleResult(NamedTuple):
    """theta = arccos of the clamped argument; the raw argument is kept
    for diagnostics."""

    theta: float
    cosine_argument: float


class ProbeReport(NamedTuple):
    verdict: str  # "pass" | "witness-found"
    witness_u: Vector | None
    witness_v: Vector | None
    diagnostic: float | None
    samples_used: int


class ExtremeEstimate(NamedTuple):
    """A sampled max of some ratio; a lower bound for the true supremum,
    never a certificate of attainment."""

    value: float
    witness_u: Vector | None
    witness_v: Vector | None
    samples_used: int
    skipped: int
    unbounded: bool = False


def _angle(prog, u: Vector, v: Vector, ab: AlphaBeta) -> AngleResult:
    val, dp, dm = prog.derivs(u, v)
    nv = prog.value(v)
    if val == 0.0 or nv == 0.0:
        raise ZeroVectorError("angle needs nonzero u and v")
    r_ab = ab.alpha * (val * dm) + ab.beta * (val * dp)
    raw = r_ab / (ab.total * val * nv)
    if not abs(raw) <= 1.0 + _CLAMP_BAND:
        if not math.isfinite(raw):
            raise ValueError(f"cosine argument {raw!r} is not finite: rho_ab or the norms "
                             "overflow at this scale")
        raise EngineError(f"cosine argument {raw!r} is out of range beyond roundoff")
    clamped = min(1.0, max(-1.0, raw))
    return AngleResult(math.acos(clamped), raw)


def angle_ab(ast: NormAst, u, v, ab: AlphaBeta) -> AngleResult:
    """The rho_ab angle between nonzero u and v, in [0, pi].

    The argument rho_ab(u,v)/((alpha+beta) norm(u) norm(v)) lies in
    [-1, 1] mathematically; finite values beyond the 1e-9 roundoff band
    raise EngineError since they can only come from a defective
    derivative.  A non-finite argument, from overflow at huge scales,
    raises ValueError.
    """
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return _angle(prog, uu, vv, ab)


# smallest positive normal double: below it a product keeps fewer bits
_NORMAL_MIN = sys.float_info.min


def angle_homogeneity_check(ast: NormAst, u, v, a: float, b: float,
                            ab: AlphaBeta) -> float:
    """Residual of the angle scaling law.

    theta_ab(a u, b v) equals theta_ab(u, v) when a b > 0 and
    pi - theta_ba(u, v) when a b < 0; returns the absolute deviation,
    expected at roundoff scale.  a and b must be finite and nonzero, and
    must keep every nonzero coordinate they scale finite and normal: an
    overflow, or an underflow that can turn the scaled vector, would
    report a defect of the arithmetic, not of the law.
    """
    for name, factor in (("a", a), ("b", b)):
        if factor == 0.0 or not math.isfinite(factor):
            raise ValueError(f"{name} must be finite and nonzero, got {factor!r}")
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    scaled_u = tuple([a * c for c in uu])
    scaled_v = tuple([b * c for c in vv])
    for name, factor, vec, scaled in (("a", a, uu, scaled_u), ("b", b, vv, scaled_v)):
        for c, s in zip(vec, scaled):
            if c != 0.0 and not _NORMAL_MIN <= abs(s) < math.inf:
                raise ValueError(f"{name} = {factor!r} scales a coordinate out of the "
                                 f"normal float range")
    lhs = _angle(prog, scaled_u, scaled_v, ab).theta
    if a * b > 0.0:
        return abs(lhs - _angle(prog, uu, vv, ab).theta)
    return abs(lhs - (math.pi - _angle(prog, uu, vv, ab.swapped).theta))


def angular_constant(ast1: NormAst, ast2: NormAst, ab: AlphaBeta,
                     cfg: SampleConfig) -> ExtremeEstimate:
    """Sampled estimate of the constant K in tan(theta_2/2) <= K tan(theta_1/2).

    Pairs where both angles are below 1e-9 (or both within 1e-9 of pi)
    carry no information and are skipped.  Two degeneracies witness
    unboundedness and short-circuit with unbounded set: theta_1 < 1e-9
    with theta_2 >= 1e-6, and the mirror case theta_2 within 1e-9 of pi
    (tan blows up) while theta_1 stays at least 1e-6 away from pi.  The
    mirror case is where a non-strictly-convex second norm shows up: its
    angle hits pi on open sets of pairs.
    """
    if ast1.dim != ast2.dim:
        raise ValueError("both norms must share the ambient dimension")
    prog1 = get_program(ast1)
    prog2 = get_program(ast2)
    pairs = _random_pairs(SplitMix64(cfg.seed), ast1.dim, cfg.scale, prog1)
    best = 0.0
    witness = (None, None)
    skipped = 0
    for used, (u, v) in enumerate(islice(pairs, cfg.count), 1):
        t1 = _angle(prog1, u, v, ab).theta
        t2 = _angle(prog2, u, v, ab).theta
        if t1 < 1e-9:
            if t2 >= 1e-6:
                return ExtremeEstimate(math.inf, u, v, used, skipped, unbounded=True)
            skipped += 1
            continue
        if t2 > math.pi - 1e-9:
            if t1 <= math.pi - 1e-6:
                return ExtremeEstimate(math.inf, u, v, used, skipped, unbounded=True)
            skipped += 1
            continue
        ratio = math.tan(t2 / 2.0) / math.tan(t1 / 2.0)
        if ratio > best:
            best = ratio
            witness = (u, v)
    return ExtremeEstimate(best, *witness, cfg.count, skipped)


def _probe_pairs(prog, dim: int, cfg: SampleConfig):
    """cfg.count pairs: every ordered pair of corner vectors, then random
    pairs of nonzero vectors.  The first cfg.count pairs of the corner
    product use only the first cfg.count corners."""
    corners = tuple(islice(_corner_stream(dim), cfg.count))
    pairs = _random_pairs(SplitMix64(cfg.seed), dim, cfg.scale, prog)
    return islice(chain(product(corners, repeat=2), pairs), cfg.count)


def smoothness_probe(ast: NormAst, cfg: SampleConfig) -> ProbeReport:
    """Search for a pair where the one-sided derivatives split.

    Deterministic corner pairs run first because non-smooth sets have
    measure zero and random draws never land on them; random pairs fill
    the remaining budget.  A witness is a pair with
    rho_+ - rho_- > 1e-7 norm(u) norm(v).
    """
    prog = get_program(ast)
    for used, (u, v) in enumerate(_probe_pairs(prog, ast.dim, cfg), 1):
        rm, rp = _rho_pair(prog, u, v)
        gap = rp - rm
        if gap > 1e-7 * prog.value(u) * prog.value(v):
            return ProbeReport("witness-found", u, v, gap, used)
    return ProbeReport("pass", None, None, None, cfg.count)


def strict_convexity_probe(ast: NormAst, cfg: SampleConfig,
                           min_separation: float = 0.05) -> ProbeReport:
    """Search for distinct unit vectors whose midpoint stays on the sphere.

    A witness pair has norm((u+v)/2) >= 1 - 1e-9; such pairs span a flat
    face of the unit ball.  Normalized corner vectors run first (they hit
    the faces of polyhedral balls deterministically), then random sphere
    pairs.  Pairs closer than min_separation are skipped: for any norm
    the midpoint norm of an eps-separated pair can sit within O(eps^p)
    of 1, so witnesses from near-duplicates would be indistinguishable
    from roundoff.  The default separation is calibrated for exponents
    up to about 4; flatter smooth norms need a larger separation.  It
    must lie in [0, 2): two unit vectors are never more than 2 apart, so
    a larger one would skip every pair.
    """
    if not 0.0 <= min_separation < 2.0:  # false for NaN too
        raise ValueError(f"min_separation must lie in [0, 2), got {min_separation!r}")
    prog = get_program(ast)
    dim = ast.dim
    draws = iter(functools.partial(_unit_vector, SplitMix64(cfg.seed), prog, dim, cfg.scale),
                 None)
    # the first cfg.count corner pairs use only the first cfg.count + 1 corners
    unit_corners = [_normalized(prog, cv) for cv in islice(_corner_stream(dim), cfg.count + 1)]
    pairs = islice(chain(combinations(unit_corners, 2), zip(draws, draws)), cfg.count)
    for used, (u, v) in enumerate(pairs, 1):
        if prog.value(tuple(map(operator.sub, u, v))) <= min_separation:
            continue
        mid = prog.value(tuple([s / 2.0 for s in map(operator.add, u, v)]))
        if mid >= 1.0 - 1e-9:
            return ProbeReport("witness-found", u, v, mid, used)
    return ProbeReport("pass", None, None, None, cfg.count)


def quartic_identity_residual(ast: NormAst, u, v, ab: AlphaBeta) -> float:
    """Defect of the fourth-power identity

        (alpha+beta)(norm(u+v)^4 - norm(u-v)^4)
            = 8 (norm(u)^2 rho_ab(u,v) + norm(v)^2 rho_ab(v,u)),

    which holds for all u, v exactly when the norm is induced by an inner
    product.  Returns left side minus right side; raises ValueError when
    a fourth power overflows.
    """
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    plus = prog.value(tuple(map(operator.add, uu, vv)))
    minus = prog.value(tuple(map(operator.sub, uu, vv)))
    nu = prog.value(uu)
    nv = prog.value(vv)
    try:
        lhs = ab.total * (plus**4 - minus**4)
    except OverflowError:
        raise ValueError("the quartic identity overflows at this scale") from None
    rhs = 8.0 * (nu * nu * _rho_ab(prog, uu, vv, ab) + nv * nv * _rho_ab(prog, vv, uu, ab))
    return lhs - rhs


def symmetry_residual(ast: NormAst, u, v, ab: AlphaBeta) -> float:
    """rho_ab(u, v) - rho_ab(v, u); identically zero iff the norm comes
    from an inner product."""
    prog = get_program(ast)
    uu, vv = prog.vectors(u, v)
    return _rho_ab(prog, uu, vv, ab) - _rho_ab(prog, vv, uu, ab)


def symmetry_search(ast: NormAst, ab: AlphaBeta, cfg: SampleConfig,
                    threshold: float = 1e-3) -> ProbeReport:
    """Hunt for the worst asymmetry of rho_ab over corner and random pairs.

    Reports the largest |rho_ab(u,v) - rho_ab(v,u)| seen; the verdict is
    "witness-found" when it exceeds threshold, which must be finite and
    nonnegative.  A NaN asymmetry, from rho_ab overflowing at huge scales,
    raises ValueError.
    """
    _check_tol(threshold, "threshold")
    prog = get_program(ast)

    def asymmetry(u, v):
        return abs(_rho_ab(prog, u, v, ab) - _rho_ab(prog, v, u, ab))

    worst, witness, _ = _worst(_probe_pairs(prog, ast.dim, cfg), asymmetry,
                               "the symmetry search")
    if worst > threshold:
        return ProbeReport("witness-found", *witness, worst, cfg.count)
    return ProbeReport("pass", None, None, worst, cfg.count)


def norm_equiv_constant(ast1: NormAst, ast2: NormAst, ab: AlphaBeta,
                        cfg: SampleConfig) -> ExtremeEstimate:
    """Sampled estimate of the constant k bounding
    |rho_ab_1(u,v) - rho_ab_2(u,v)| by k min(norm1(u) norm1(v),
    norm2(u) norm2(v)); finite for any two norms on the same space.

    A sample whose denominator is below 1e-12 scale^2 is skipped and
    counted; the floor is relative to the sampling scale, so the
    estimate does not depend on it.  A NaN ratio, from a norm product or
    rho_ab overflowing at huge scales, raises ValueError.
    """
    if ast1.dim != ast2.dim:
        raise ValueError("both norms must share the ambient dimension")
    prog1 = get_program(ast1)
    prog2 = get_program(ast2)
    value1, value2 = prog1.value, prog2.value
    floor = 1e-12 * cfg.scale * cfg.scale

    def ratio(u, v):
        denom = min(value1(u) * value1(v), value2(u) * value2(v))
        if denom < floor:
            return None
        return abs(_rho_ab(prog1, u, v, ab) - _rho_ab(prog2, u, v, ab)) / denom

    pairs = islice(_random_pairs(SplitMix64(cfg.seed), ast1.dim, cfg.scale), cfg.count)
    best, witness, skipped = _worst(pairs, ratio, "the equivalence constant")
    return ExtremeEstimate(best, *witness, cfg.count, skipped)
