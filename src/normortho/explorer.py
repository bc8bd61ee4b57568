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
from itertools import chain
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
    _unit_vector,
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


def _apply(lin: LinearMap, x: Vector) -> Vector:
    return tuple([math.fsum(map(operator.mul, row, x)) for row in lin.matrix])


def apply_map(lin: LinearMap, u) -> Vector:
    x = as_vector(u)
    if len(x) != lin.domain_norm.dim:
        raise DimensionMismatchError(
            f"map consumes {lin.domain_norm.dim} coordinates but vector has {len(x)}"
        )
    return _apply(lin, x)


def operator_norm(lin: LinearMap, cfg: SampleConfig) -> OperatorNormEstimate:
    """Lower estimate of sup norm(T x) over the domain unit sphere.

    Planar domains get a 1024-point sweep of the Euclidean angle followed
    by golden-section refinement around the best cell, both in the kernel
    (Program.operator_norm; grade "fine");
    higher dimensions fall back to cfg.count starts of hill climbing with
    a shrinking step (grade "coarse").
    """
    if lin.is_zero:
        raise ValueError("operator norm of the zero map is trivially 0; refusing")
    dom = get_program(lin.domain_norm)
    cod = get_program(lin.codomain_norm)
    dim = lin.domain_norm.dim
    matrix = lin.matrix

    if dim == 2:
        value, direction = cod.operator_norm(dom.circle, matrix)
        return OperatorNormEstimate(value, direction, "fine")

    image_value = cod.image_value
    unit = functools.partial(_normalized, dom)
    rng = SplitMix64(cfg.seed)
    best_x: Vector | None = None
    best = -1.0
    for _ in range(cfg.count):
        x = unit(rng.vector(dim, -1.0, 1.0))
        if x is None:
            continue
        fx = image_value(matrix, x)
        delta = 0.5
        proposals = 2000  # caps a start whose gains keep trickling in
        while delta > 1e-7 and proposals > 0:
            moved = False
            for _ in range(8):
                proposals -= 1
                cand = unit(tuple(map(operator.add, x, rng.vector(dim, -delta, delta))))
                if cand is None:
                    continue
                fc = image_value(matrix, cand)
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
    on it.  Raises ValueError when an image row's exact sum overflows.
    """
    try:
        return _preserver_check(lin, ab, cfg)
    except OverflowError:
        raise ValueError("the preserver check overflows at this scale") from None


def _preserver_check(lin: LinearMap, ab: AlphaBeta, cfg: SampleConfig) -> PreserverReport:
    opn = operator_norm(lin, cfg)
    tol = 1e-6 if opn.grade == "fine" else 1e-5
    dom_ast = lin.domain_norm
    dom = get_program(dom_ast)
    cod = get_program(lin.codomain_norm)
    dim = dom_ast.dim
    floor = 1e-12 * cfg.scale * cfg.scale
    root = SplitMix64(cfg.seed)

    # condition 1: transported orthogonal pairs
    rng = root.substream(1)
    worst1 = 0.0
    wit1 = (None, None)
    built = 0
    while built < cfg.count:
        u = rng.vector(dim, -cfg.scale, cfg.scale)
        v = rng.vector(dim, -cfg.scale, cfg.scale)
        if dom.value(u) == 0.0:
            continue
        _, w = _orthogonalize(dom, u, v, ab)
        built += 1
        tu = _apply(lin, u)
        tw = _apply(lin, w)
        denom = cod.value(tu) * cod.value(tw)
        if denom < floor:
            continue
        ratio = abs(_rho_ab(cod, tu, tw, ab)) / denom
        if ratio > worst1:
            worst1, wit1 = ratio, (u, w)

    # condition 2: norm multiplicativity over the unit sphere
    rng = SplitMix64(root.substream(2).next_u64())
    worst2 = 0.0
    wit2: Vector | None = None
    image_value = cod.image_value
    for _ in range(cfg.count):
        x = _unit_vector(rng, dom, dim, cfg.scale)
        dev = abs(image_value(lin.matrix, x) - opn.value) / opn.value
        if dev > worst2:
            worst2, wit2 = dev, x

    # condition 3: quadratic scaling of the functional
    rng = root.substream(3)
    tsq = opn.value * opn.value
    worst3 = 0.0
    wit3 = (None, None)
    for _ in range(cfg.count):
        u = rng.vector(dim, -cfg.scale, cfg.scale)
        v = rng.vector(dim, -cfg.scale, cfg.scale)
        nu = dom.value(u)
        nv = dom.value(v)
        if nu * nv < floor:
            continue
        gap = abs(_rho_ab(cod, _apply(lin, u), _apply(lin, v), ab)
                  - tsq * _rho_ab(dom, u, v, ab))
        ratio = gap / (ab.total * tsq * nu * nv)
        if ratio > worst3:
            worst3, wit3 = ratio, (u, v)

    return PreserverReport(
        opn,
        ConditionReport("orthogonality", worst1 <= tol, worst1, *wit1, tol),
        ConditionReport("norm_multiple", worst2 <= tol, worst2, wit2, None, tol),
        ConditionReport("rho_scaling", worst3 <= tol, worst3, *wit3, tol),
    )


# points of the mining scan around each base vector, at angles _THETAS
_SCAN = 64
_STEP = 2.0 * math.pi / _SCAN
_THETAS = tuple([j * _STEP for j in range(_SCAN)])


def _search_direction(prog, rel_hold: Relation, rel_test: Relation,
                      rng: SplitMix64, budget: int, tol: float, xs: list[Vector]):
    """Look for a pair where rel_hold holds and rel_test fails by more
    than 100 tol.

    Returns (witness or None, candidates_used, discarded).  Candidates
    come from zero crossings of rel_hold's residual along unit circles
    around the corners, then random base vectors.  The scan of a base is
    one Program.residuals call at the circle points xs, at angles _THETAS;
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
        residuals = prog.residuals(*hold_args, u, xs)
        found_candidate = False
        for j in range(_SCAN):
            if used >= budget:
                break
            r0 = residuals[j]
            r1 = residuals[(j + 1) % _SCAN]
            if r0 != 0.0 and r1 != 0.0 and (r0 > 0.0) == (r1 > 0.0):
                continue
            theta = prog.crossing(*hold_args, u, _THETAS[j], r0, _THETAS[j] + _STEP, 1e-12)
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
    # the scan's circle points are the same around every base, both ways
    xs = list(map(prog.circle, _THETAS))
    w_ab, used_ab, disc_ab = _search_direction(
        prog, rel_a, rel_b, root.substream(1), half, tol, xs)
    w_ba, used_ba, disc_ba = _search_direction(
        prog, rel_b, rel_a, root.substream(2), cfg.count - used_ab, tol, xs)
    return IncomparabilityReport(
        rel_a, rel_b, w_ab, w_ba, cfg.seed, cfg.count,
        used_ab + used_ba, disc_ab + disc_ba,
    )
