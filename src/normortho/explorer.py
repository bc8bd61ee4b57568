"""Counterexample mining and linear-preserver checks.

A linear map preserves rho_ab-orthogonality exactly when it is a scalar
multiple of an isometry; `preserver_check` measures the three equivalent
conditions of that characterization numerically.  `mine_incomparability`
hunts for pairs witnessing that one orthogonality relation does not imply
another, tracing relation loci on planar unit circles and re-verifying
every candidate before reporting it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import NamedTuple

from .derivs import AlphaBeta, _rho_ab
from .errors import DimensionMismatchError
from .kernels import get_program
from .normast import NormAst
from .ortho import Relation, _orthogonalize, _verdict, _violation
from .rng import SplitMix64
from .space import (
    SampleConfig,
    Vector,
    _check_tol,
    _normalized,
    _random_pairs,
    _unit_vector,
    _worst,
    as_vector,
    corner_vectors,
)

__all__ = [
    "LinearMap",
    "OperatorNormEstimate",
    "ConditionReport",
    "PreserverReport",
    "IncomparabilityReport",
    "apply_map",
    "operator_norm",
    "preserver_check",
    "mine_incomparability",
]

@dataclass(frozen=True)
class LinearMap:
    """A real matrix T together with the norms of its domain and codomain.

    An n x m matrix maps m-coordinate vectors (measured by domain_norm)
    to n-coordinate vectors (measured by codomain_norm).
    """

    matrix: tuple[tuple[float, ...], ...]
    domain_norm: NormAst
    codomain_norm: NormAst

    def __post_init__(self):
        rows = tuple(tuple(float(e) for e in row) for row in self.matrix)
        if len(rows) != self.codomain_norm.dim:
            raise DimensionMismatchError(
                f"matrix has {len(rows)} rows but the codomain norm consumes "
                f"{self.codomain_norm.dim} coordinates"
            )
        for row in rows:
            if len(row) != self.domain_norm.dim:
                raise DimensionMismatchError(
                    f"matrix row has {len(row)} entries but the domain norm consumes "
                    f"{self.domain_norm.dim} coordinates"
                )
            for e in row:
                if not math.isfinite(e):
                    raise ValueError(f"matrix entries must be finite, got {e!r}")
        object.__setattr__(self, "matrix", rows)

    @property
    def is_zero(self) -> bool:
        return all(e == 0.0 for row in self.matrix for e in row)


class OperatorNormEstimate(NamedTuple):
    """A certified lower bound for the induced operator norm.

    grade "fine" marks the planar grid-plus-refinement path; "coarse"
    marks multi-start hill climbing in higher dimensions.
    """

    value: float
    direction: Vector
    grade: str  # "fine" | "coarse"


class ConditionReport(NamedTuple):
    name: str
    passed: bool
    worst: float
    witness_u: Vector | None
    witness_v: Vector | None
    tol: float


class PreserverReport(NamedTuple):
    operator_norm: OperatorNormEstimate
    orthogonality: ConditionReport
    norm_multiple: ConditionReport
    rho_scaling: ConditionReport

    @property
    def all_pass(self) -> bool:
        return (self.orthogonality.passed and self.norm_multiple.passed
                and self.rho_scaling.passed)


class IncomparabilityReport(NamedTuple):
    relation_a: Relation
    relation_b: Relation
    witness_ab: tuple[Vector, Vector] | None
    witness_ba: tuple[Vector, Vector] | None
    seed: int
    budget: int
    budget_used: int
    discarded: int


def apply_map(lin: LinearMap, u) -> Vector:
    """T u, each row summed exactly as math.fsum sums it.

    Raises ValueError when a row's exact sum overflows.
    """
    x = as_vector(u)
    if len(x) != lin.domain_norm.dim:
        raise DimensionMismatchError(
            f"map consumes {lin.domain_norm.dim} coordinates but vector has {len(x)}"
        )
    try:
        return get_program(lin.codomain_norm).image(lin.matrix, x)
    except OverflowError:
        raise ValueError("the map's image overflows at this scale") from None


def operator_norm(lin: LinearMap, cfg: SampleConfig) -> OperatorNormEstimate:
    """Lower estimate of sup norm(T x) over the domain unit sphere.

    Planar domains get a 1024-point sweep of the Euclidean angle followed
    by golden-section refinement around the best cell, both in the kernel
    (Program.operator_norm; grade "fine");
    higher dimensions fall back to cfg.count starts of hill climbing with
    a shrinking step (grade "coarse").  Raises ValueError when an image
    row's exact sum overflows, or the estimate is not finite.
    """
    try:
        est = _operator_norm(lin, cfg)
    except OverflowError:
        est = None
    if est is None or not math.isfinite(est.value):
        raise ValueError("the operator norm overflows at this scale")
    return est


def _operator_norm(lin: LinearMap, cfg: SampleConfig) -> OperatorNormEstimate:
    if lin.is_zero:
        raise ValueError("operator norm of the zero map is trivially 0; refusing")
    dom = get_program(lin.domain_norm)
    cod = get_program(lin.codomain_norm)
    dim = lin.domain_norm.dim
    matrix = lin.matrix

    if dim == 2:
        value, direction = cod.operator_norm(dom.circle, matrix)
        return OperatorNormEstimate(value, direction, "fine")

    norm, image = cod.value, functools.partial(cod.image, matrix)
    unit = functools.partial(_normalized, dom)
    rng = SplitMix64(cfg.seed)
    best_x: Vector | None = None
    best = -1.0
    for _ in range(cfg.count):
        x = unit(rng.vector(dim, -1.0, 1.0))
        if x is None:
            continue
        fx = norm(image(x))
        delta = 0.5
        proposals = 2000  # caps a start whose gains keep trickling in
        while delta > 1e-7 and proposals > 0:
            moved = False
            for _ in range(8):
                proposals -= 1
                cand = unit(tuple(map(operator.add, x, rng.vector(dim, -delta, delta))))
                if cand is None:
                    continue
                fc = norm(image(cand))
                if fc > fx:
                    x, fx = cand, fc
                    moved = True
            if not moved:
                delta *= 0.5
        if fx > best:
            best, best_x = fx, x
    return OperatorNormEstimate(best, best_x, "coarse")


def preserver_check(lin: LinearMap, ab: AlphaBeta, cfg: SampleConfig) -> PreserverReport:
    """Measure the three equivalent conditions for T to preserve
    rho_ab-orthogonality.

    (1) images of constructed rho_ab-orthogonal pairs stay orthogonal:
        max |rho_ab(Tu, Tw)| / (norm(Tu) norm(Tw));
    (2) T is a multiple of an isometry: relative spread of norm(Tx) over
        unit-sphere samples against the operator-norm estimate;
    (3) rho_ab scales by the square of the operator norm:
        max |rho_ab(Tu, Tv) - norm(T)^2 rho_ab(u, v)| relative to the
        Prop-style bound (alpha+beta) norm(T)^2 norm(u) norm(v).

    Conditions pass at 1e-6; the tolerance widens to 1e-5 for coarse
    (hill-climbed) operator-norm estimates.  Singular maps surface in
    condition (2) through a near-kernel sphere direction.  Conditions (1)
    and (3) skip a sample whose norm product is below 1e-12 scale^2, a
    floor relative to the sampling scale, so the verdict does not depend
    on it.  Raises ValueError when an image row's exact sum overflows, or
    a condition's ratio is NaN (an image norm, a functional or the
    operator norm overflowed), as every running worst does
    (space._worst).
    """
    try:
        return _preserver_check(lin, ab, cfg)
    except OverflowError:
        raise ValueError(_PRESERVER_OVERFLOW) from None


# a condition's NaN ratio raises this text from space._worst, which names
# the check _PRESERVER; an image row whose exact sum overflows raises it too
_PRESERVER = "the preserver check"
_PRESERVER_OVERFLOW = f"{_PRESERVER} overflows at this scale"


def _preserver_check(lin: LinearMap, ab: AlphaBeta, cfg: SampleConfig) -> PreserverReport:
    opn = _operator_norm(lin, cfg)
    tol = 1e-6 if opn.grade == "fine" else 1e-5
    dom_ast = lin.domain_norm
    dom = get_program(dom_ast)
    cod = get_program(lin.codomain_norm)
    dim = dom_ast.dim
    floor = 1e-12 * cfg.scale * cfg.scale
    root = SplitMix64(cfg.seed)
    image = functools.partial(cod.image, lin.matrix)
    norm = cod.value

    # condition 1: transported orthogonal pairs (u, w), u redrawn while
    # its norm is zero
    def transported(u, w):
        tu = image(u)
        tw = image(w)
        denom = norm(tu) * norm(tw)
        if denom < floor:
            return None
        return abs(_rho_ab(cod, tu, tw, ab)) / denom

    pairs = ((u, _orthogonalize(dom, u, v, ab)[1])
             for u, v in _random_pairs(root.substream(1), dim, cfg.scale)
             if dom.value(u) != 0.0)
    worst1, wit1, _ = _worst(islice(pairs, cfg.count), transported, _PRESERVER)

    # condition 2: norm multiplicativity over the unit sphere; each sample
    # is (x, None), the report's witness pair
    def deviation(x, _):
        return abs(norm(image(x)) - opn.value) / opn.value

    rng = SplitMix64(root.substream(2).next_u64())
    sphere = iter(functools.partial(_unit_vector, rng, dom, dim, cfg.scale), None)
    worst2, wit2, _ = _worst(zip(islice(sphere, cfg.count), repeat(None)), deviation,
                             _PRESERVER)

    # condition 3: quadratic scaling of the functional
    tsq = opn.value * opn.value

    def scaling(u, v):
        nu = dom.value(u)
        nv = dom.value(v)
        if nu * nv < floor:
            return None
        gap = abs(_rho_ab(cod, image(u), image(v), ab)
                  - tsq * _rho_ab(dom, u, v, ab))
        return gap / (ab.total * tsq * nu * nv)

    pairs = islice(_random_pairs(root.substream(3), dim, cfg.scale), cfg.count)
    worst3, wit3, _ = _worst(pairs, scaling, _PRESERVER)

    return PreserverReport(
        opn,
        ConditionReport("orthogonality", worst1 <= tol, worst1, *wit1, tol),
        ConditionReport("norm_multiple", worst2 <= tol, worst2, *wit2, tol),
        ConditionReport("rho_scaling", worst3 <= tol, worst3, *wit3, tol),
    )


# points of the mining scan around each base vector, j * _STEP for j < _SCAN
_SCAN = 64
_STEP = 2.0 * math.pi / _SCAN


def _search_direction(prog, rel_hold: Relation, rel_test: Relation,
                      rng: SplitMix64, budget: int, tol: float):
    """Look for a pair where rel_hold holds and rel_test fails by more
    than 100 tol.

    Returns (witness or None, candidates_used, discarded).  Candidates
    come from zero crossings of rel_hold's residual along unit circles
    around the corners, then random base vectors.  The scan of a base is
    one Program.residuals call on the Program's ring of _SCAN points;
    Program.crossing then bisects every interval whose ends do not share
    a strict sign (an exact-zero end included) to within 1e-12.  Each
    candidate costs one unit of budget and is re-verified with _verdict,
    for both relations, before being reported.
    """
    used = 0
    discarded = 0
    circle = prog.circle
    hold_args = rel_hold._residual_args

    # Corners first: relations only split at non-smooth boundary points,
    # which random directions miss with probability one.
    draw = functools.partial(rng.vector, 2, -1.0, 1.0)
    for base in chain(corner_vectors(2), iter(draw, None)):
        if used >= budget:
            break
        u = _normalized(prog, base)
        if u is None:
            continue
        residuals = prog.residuals(*hold_args, u, _SCAN)
        found_candidate = False
        # each point with the next (cyclically); the budget, spent only at
        # a candidate, is checked there
        for j, r0, r1 in zip(range(_SCAN), residuals, residuals[1:] + residuals[:1]):
            if r0 != 0.0 and r1 != 0.0 and (r0 > 0.0) == (r1 > 0.0):
                continue
            if used >= budget:
                break
            lo = j * _STEP
            theta = prog.crossing(*hold_args, u, lo, r0, lo + _STEP, 1e-12)
            v = circle(theta)
            found_candidate = True
            used += 1
            if not _verdict(rel_hold, prog, u, v, tol).holds:
                discarded += 1
                continue
            verdict = _verdict(rel_test, prog, u, v, tol)
            if verdict.holds:
                continue
            if _violation(rel_test, verdict.residual) > 100.0 * tol:
                return (u, v), used, discarded
            discarded += 1  # fails the tolerance but not by a clear margin
        if not found_candidate:
            used += 1  # a scan with no crossings still consumes budget
    return None, used, discarded


def mine_incomparability(ast: NormAst, rel_a: Relation, rel_b: Relation,
                         cfg: SampleConfig, tol: float = 1e-7) -> IncomparabilityReport:
    """Search for witnesses that rel_a and rel_b are incomparable.

    witness_ab is a pair where rel_a holds and rel_b clearly fails
    (residual beyond 100x the tolerance, so floating-point stragglers
    are discarded rather than reported); witness_ba is the reverse.
    The budget counts candidate pairs examined across both directions;
    tol must be finite and nonnegative.
    """
    if ast.dim != 2:
        raise DimensionMismatchError("mining traces planar loci; dimension must be 2")
    _check_tol(tol)
    prog = get_program(ast)
    root = SplitMix64(cfg.seed)
    half = (cfg.count + 1) // 2
    w_ab, used_ab, disc_ab = _search_direction(
        prog, rel_a, rel_b, root.substream(1), half, tol)
    w_ba, used_ba, disc_ba = _search_direction(
        prog, rel_b, rel_a, root.substream(2), cfg.count - used_ab, tol)
    return IncomparabilityReport(
        rel_a, rel_b, w_ab, w_ba, cfg.seed, cfg.count,
        used_ab + used_ba, disc_ab + disc_ba,
    )
