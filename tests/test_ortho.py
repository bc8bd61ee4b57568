"""Orthogonality relations, oracle, solver, interval, and locus tests."""

import math
import pickle

import pytest

import normortho.ortho
from normortho import (
    AlphaBeta,
    DimensionMismatchError,
    Lambda,
    LocusPoint,
    NonSmoothPointError,
    Relation,
    SplitMix64,
    ZeroVectorError,
    ab_orthogonalizer,
    birkhoff_oracle,
    birkhoff_t_interval,
    eval_norm,
    is_orthogonal,
    ortho_locus,
    parse_norm,
    random_vector,
    relation_residual,
    rho_ab,
    RELATION_TAGS,
)

from normortho.kernels import get_program

from conftest import COMPOSITES, FAMILIES, CallingProxy, ProgramProxy, golden_reference

L1 = parse_norm("l1", 2)
L2 = parse_norm("l2", 2)
LINF = parse_norm("linf", 2)
LP15 = parse_norm("lp(1.5)", 2)

BIRKHOFF = Relation("birkhoff")

BACKENDS = pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)


class TestRelationValidation:
    def test_tags_frozen(self):
        assert RELATION_TAGS == (
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

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            Relation("perpendicular")

    def test_rho_ab_needs_parameters(self):
        with pytest.raises(ValueError):
            Relation("rho_ab")
        with pytest.raises(ValueError):
            Relation("rho_lambda")

    def test_parameters_only_where_meaningful(self):
        with pytest.raises(ValueError):
            Relation("birkhoff", ab=AlphaBeta(0.3, 0.3))
        with pytest.raises(ValueError):
            Relation("rho_ab", ab=AlphaBeta(0.3, 0.3), lam=Lambda(0.5))

    def test_parameters_must_be_validated_types(self):
        # a bare tuple or float skips AlphaBeta's and Lambda's checks
        with pytest.raises(ValueError, match="must be an AlphaBeta"):
            Relation("rho_ab", ab=(0.3, 0.5))
        with pytest.raises(ValueError, match="must be a Lambda"):
            Relation("rho_lambda", lam=0.25)


class TestTolerance:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_rejected_at_every_entry(self, tol):
        u, v = (1.0, 0.0), (0.0, 1.0)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            is_orthogonal(BIRKHOFF, L2, u, v, tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            birkhoff_oracle(L2, u, v, tol=tol)

    def test_zero_tol_decides_exactly(self):
        assert is_orthogonal(BIRKHOFF, L2, (1.0, 0.0), (0.0, 1.0), 0.0).holds
        assert not is_orthogonal(BIRKHOFF, L2, (1.0, 0.0), (1e-300, 1.0), 0.0).holds

    @pytest.mark.parametrize("rel, residual, want", [
        (BIRKHOFF, -2.0, -2.0), (BIRKHOFF, 3.0, 3.0),
        (Relation("rho"), -2.0, 2.0), (Relation("isosceles"), 3.0, 3.0),
    ])
    def test_violation_is_one_sided_for_birkhoff_only(self, rel, residual, want):
        # the one measure _verdict compares with tol and the miner with 100 tol
        assert normortho.ortho._violation(rel, residual) == want

    @pytest.mark.parametrize("rel", [BIRKHOFF, Relation("rho")], ids=["birkhoff", "rho"])
    def test_nan_residual_neither_holds_nor_fails_clearly(self, rel):
        measure = normortho.ortho._violation(rel, math.nan)
        assert not measure <= 1e-9 and not measure > 1e-7


class TestBirkhoff:
    def test_axes_euclidean(self):
        got = is_orthogonal(BIRKHOFF, L2, (1.0, 0.0), (0.0, 1.0))
        assert got.holds
        assert got.residual == 0.0

    def test_linf_corner_holds(self):
        assert is_orthogonal(BIRKHOFF, LINF, (1.0, 1.0), (1.0, -1.0)).holds

    def test_not_symmetric_in_general(self):
        # l1: (1,0) birkhoff-orthogonal to (1,1)? rho_- = 0 <= 0 <= rho_+ = 2.
        assert is_orthogonal(BIRKHOFF, L1, (1.0, 0.0), (1.0, 1.0)).holds
        # but (1,1) is not birkhoff-orthogonal to (1,0)
        assert not is_orthogonal(BIRKHOFF, L1, (1.0, 1.0), (1.0, 0.0)).holds

    def test_zero_u_convention(self):
        assert is_orthogonal(BIRKHOFF, L2, (0.0, 0.0), (1.0, 1.0)).holds

    def test_residual_is_max_of_signs(self):
        got = is_orthogonal(BIRKHOFF, L2, (1.0, 0.0), (1.0, 1.0))
        assert not got.holds
        assert got.residual == pytest.approx(1.0, abs=1e-15)


@BACKENDS
@pytest.mark.parametrize("family", FAMILIES + COMPOSITES)
def test_oracle_keeps_its_bits(package_backend, family, monkeypatch):
    # the kernel's search against the plain-Python loop it replaced, also
    # through a proxy like the tracer's and through Python-level line
    # evaluators; pairs of order 1 and near 1e300, at several step counts
    ast = parse_norm(family, 2)
    prog = get_program(ast)
    rng = SplitMix64(71)
    for scale in (1.0, 1e300):
        for iters in (1, 7, 200):
            u = tuple(scale * c for c in rng.vector(2, -1.0, 1.0))
            v = tuple(scale * c for c in rng.vector(2, -1.0, 1.0))
            nu, nv = prog.value(u), prog.value(v)
            big_t = 4.0 * nu / nv
            _, lowest = golden_reference(prog.line_evaluator(u, v), -big_t, big_t, iters)
            want = nu - lowest
            for wrap in (None, ProgramProxy, CallingProxy):
                with monkeypatch.context() as m:
                    if wrap is not None:
                        m.setattr(normortho.ortho, "get_program",
                                  lambda a, wrap=wrap: wrap(get_program(a)))
                    got = birkhoff_oracle(ast, u, v, iters=iters)
                assert got.residual.hex() == want.hex(), (u, v, iters, wrap)
                assert got.holds == (want <= 1e-9)


class TestBirkhoffOracle:
    def test_euclidean_axes(self):
        assert birkhoff_oracle(L2, (1.0, 0.0), (0.0, 1.0)).holds

    def test_linf_corner(self):
        assert birkhoff_oracle(LINF, (1.0, 1.0), (1.0, -1.0), tol=1e-7).holds

    def test_l1_flat_face(self):
        assert birkhoff_oracle(L1, (1.0, 0.0), (1.0, 1.0), tol=1e-7).holds

    def test_clear_failure(self):
        got = birkhoff_oracle(L2, (1.0, 0.0), (1.0, 0.1), tol=1e-7)
        assert not got.holds
        assert got.residual > 1e-3

    def test_zero_vectors_rejected(self):
        with pytest.raises(ZeroVectorError):
            birkhoff_oracle(L2, (0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ZeroVectorError):
            birkhoff_oracle(L2, (1.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_agrees_with_exact_test_on_clear_cases(self, family):
        """Oracle and derivative test agree whenever the pair is not borderline."""
        ast = parse_norm(family, 2)
        rng = SplitMix64(61)
        checked = 0
        for _ in range(200):
            u = random_vector(rng, 2, 1.5)
            v = random_vector(rng, 2, 1.5)
            nu, nv = eval_norm(ast, u), eval_norm(ast, v)
            if nu < 0.1 or nv < 0.1:
                continue
            exact = is_orthogonal(BIRKHOFF, ast, u, v, tol=1e-9)
            # skip the band where quadratic dips hide below oracle resolution
            if abs(exact.residual) <= 1e-2 * nu * nv and not exact.holds:
                continue
            oracle = birkhoff_oracle(ast, u, v, tol=1e-7)
            assert exact.holds == oracle.holds
            checked += 1
        assert checked > 100


class TestOtherRelations:
    def test_rho_ab_split_at_corner(self):
        rel = Relation("rho_ab", ab=AlphaBeta(0.5, 1.0 / 3.0))
        got = is_orthogonal(rel, LINF, (1.0, 1.0), (1.0, -1.0))
        assert not got.holds
        assert abs(got.residual - (-1.0 / 6.0)) <= 1e-15

    def test_rho_ab_annihilating_direction(self):
        rel = Relation("rho_ab", ab=AlphaBeta(0.3, 0.4))
        v = (-1.0 / 0.6, 1.0 / 0.8)
        got = is_orthogonal(rel, LINF, (1.0, 1.0), v)
        assert got.holds

    def test_rho_relations_on_l1_axis(self):
        u, v = (1.0, 0.0), (0.0, 2.0)
        assert is_orthogonal(Relation("rho"), L1, u, v).holds
        assert not is_orthogonal(Relation("rho_plus"), L1, u, v).holds
        assert not is_orthogonal(Relation("rho_minus"), L1, u, v).holds

    def test_isosceles_euclidean(self):
        assert is_orthogonal(Relation("isosceles"), L2, (1.0, 0.0), (0.0, 1.0)).holds
        assert not is_orthogonal(Relation("isosceles"), L2, (1.0, 0.0), (1.0, 1.0)).holds

    def test_pythagorean_euclidean(self):
        assert is_orthogonal(Relation("pythagorean"), L2, (3.0, 0.0), (0.0, 4.0)).holds
        assert not is_orthogonal(
            Relation("pythagorean"), L2, (1.0, 0.0), (0.5, 1.0)
        ).holds

    def test_pythagorean_residual_past_float_square_range(self):
        # float ** 2 raises OverflowError above about 1.3e154
        r = relation_residual(Relation("pythagorean"), L2, (1e200, 0.0), (0.0, 1e200))
        assert isinstance(r, float)

    def test_semi_inner_product_relation(self):
        assert is_orthogonal(Relation("semi"), L2, (1.0, 0.0), (0.0, 1.0)).holds

    def test_semi_propagates_corner_error(self):
        with pytest.raises(NonSmoothPointError):
            is_orthogonal(Relation("semi"), LINF, (1.0, 1.0), (1.0, -1.0))

    def test_rho_lambda_interpolates(self):
        u, v = (1.0, 1.0), (1.0, -1.0)
        half = Relation("rho_lambda", lam=Lambda(0.5))
        assert is_orthogonal(half, LINF, u, v).holds
        tilted = Relation("rho_lambda", lam=Lambda(0.25))
        assert not is_orthogonal(tilted, LINF, u, v).holds

    def test_verdict_scaling_invariance(self):
        """Positive scaling of either argument does not flip decided verdicts."""
        rel = Relation("rho_ab", ab=AlphaBeta(0.3, 0.4))
        rng = SplitMix64(62)
        for ast in (L1, L2, LINF, LP15):
            for _ in range(50):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                if eval_norm(ast, u) < 0.1 or eval_norm(ast, v) < 0.1:
                    continue
                base = is_orthogonal(rel, ast, u, v)
                # stay away from the tolerance boundary
                if not base.holds and abs(base.residual) < 1e-3:
                    continue
                a, b = 0.5 + rng.random(), 0.5 + rng.random()
                scaled = is_orthogonal(
                    rel, ast, (a * u[0], a * u[1]), (b * v[0], b * v[1])
                )
                assert scaled.holds == base.holds


class TestOrthogonalizer:
    def test_euclidean_projection(self):
        s, w = ab_orthogonalizer(L2, (1.0, 0.0), (1.0, 1.0), AlphaBeta(0.3, 0.3))
        assert s == -1.0
        assert w == (0.0, 1.0)

    def test_linf_corner_shift(self):
        s, w = ab_orthogonalizer(
            LINF, (1.0, 1.0), (1.0, -1.0), AlphaBeta(0.5, 1.0 / 3.0)
        )
        assert abs(s - 0.2) <= 1e-15
        assert abs(w[0] - 1.2) <= 1e-15
        assert abs(w[1] - (-0.8)) <= 1e-15
        got = rho_ab(LINF, (1.0, 1.0), w, AlphaBeta(0.5, 1.0 / 3.0))
        assert abs(got) <= 1e-15

    def test_l1_smooth_point(self):
        s, w = ab_orthogonalizer(L1, (1.0, 0.0), (1.0, 1.0), AlphaBeta(0.2, 0.2))
        assert s == -1.0
        assert w == (0.0, 1.0)

    def test_zero_u_rejected(self):
        with pytest.raises(ZeroVectorError):
            ab_orthogonalizer(L2, (0.0, 0.0), (1.0, 1.0), AlphaBeta(0.3, 0.3))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_output_is_orthogonal(self, family):
        ast = parse_norm(family, 2)
        ab = AlphaBeta(0.35, 0.15)
        rng = SplitMix64(63)
        for _ in range(200):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            if eval_norm(ast, u) < 1e-6:
                continue
            s, w = ab_orthogonalizer(ast, u, v, ab)
            resid = rho_ab(ast, u, w, ab)
            scale = max(1.0, eval_norm(ast, u) * eval_norm(ast, w))
            assert abs(resid) <= 1e-9 * scale


class TestInterval:
    def test_euclidean_point_interval(self):
        lo, hi = birkhoff_t_interval(L2, (1.0, 1.0), (1.0, 0.0))
        assert abs(lo - (-0.5)) <= 1e-15
        assert hi == lo

    def test_linf_corner_interval(self):
        u, v = (1.0, 1.0), (1.0, -1.0)
        lo, hi = birkhoff_t_interval(LINF, u, v)
        assert (lo, hi) == (-1.0, 1.0)
        # u stays orthogonal to t u + v at the endpoints, not just outside
        for t in (-1.0, 1.0):
            w = (t * u[0] + v[0], t * u[1] + v[1])
            assert birkhoff_oracle(LINF, u, w, tol=1e-7).holds
        for t in (-1.01, 1.01):
            w = (t * u[0] + v[0], t * u[1] + v[1])
            assert not birkhoff_oracle(LINF, u, w, tol=1e-7).holds

    def test_l1_axis_interval(self):
        assert birkhoff_t_interval(L1, (1.0, 0.0), (0.0, 2.0)) == (-2.0, 2.0)

    def test_zero_u_rejected(self):
        with pytest.raises(ZeroVectorError):
            birkhoff_t_interval(L2, (0.0, 0.0), (1.0, 0.0))

    def test_zero_v_gives_point_interval_at_origin(self):
        # u is orthogonal to t u exactly at t = 0
        lo, hi = birkhoff_t_interval(L2, (1.0, 2.0), (0.0, 0.0))
        assert lo == 0.0 and hi == 0.0

    # norms whose one-sided derivatives form no degree-2 intermediate (an
    # l2 leaf's sums u_j v_j, which overflow or underflow on their own)
    @BACKENDS
    @pytest.mark.parametrize("s", [2.0 ** -990, 1e-200, 1e200, 2.0 ** 990])
    @pytest.mark.parametrize("family", ["l1", "linf", "lp(3)", "lp(1.5)", "wlp(2; 1, 4)",
                                        "sum(l1, linf)", COMPOSITES[0]])
    def test_interval_is_scale_free(self, package_backend, family, s):
        # the ends are of degree 0, so scaling u and v by s moves them by a
        # few ulps at most, where N(u)^2 overflows or underflows
        ast = parse_norm(family, 2)
        for u, v in [((1.0, 0.5), (-0.25, 1.0)), ((0.6, -0.8), (0.3, 0.7)),
                     ((1.0, 1.0), (1.0, -1.0)), ((-1.0, 1.0), (1.0, 0.0)),
                     ((0.3, 2.0), (1.5, -0.4))]:
            want = birkhoff_t_interval(ast, u, v)
            got = birkhoff_t_interval(ast, (s * u[0], s * u[1]), (s * v[0], s * v[1]))
            for g, w in zip(got, want):
                assert abs(g - w) <= 8 * math.ulp(w), (u, v, got, want)

    @pytest.mark.parametrize("family", ["l1", "l2", "linf", "lp(1.5)"])
    def test_interval_characterizes_membership(self, family):
        """u birkhoff-orthogonal to t u + v exactly for t inside the interval."""
        ast = parse_norm(family, 2)
        rng = SplitMix64(64)
        done = 0
        while done < 100:
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            nu, nv = eval_norm(ast, u), eval_norm(ast, v)
            if nu < 0.3 or nv < 0.3:
                continue
            u = (u[0] / nu, u[1] / nu)
            lo, hi = birkhoff_t_interval(ast, u, v)
            assert lo <= hi
            inside = lo + (hi - lo) * rng.random() if hi > lo else lo
            w = (inside * u[0] + v[0], inside * u[1] + v[1])
            assert is_orthogonal(BIRKHOFF, ast, u, w, tol=1e-7).holds
            outside = hi + 1e-5
            w = (outside * u[0] + v[0], outside * u[1] + v[1])
            assert not is_orthogonal(BIRKHOFF, ast, u, w, tol=1e-9).holds
            done += 1


class TestLocus:
    def test_euclidean_zeros_at_axes(self):
        rel = Relation("rho_ab", ab=AlphaBeta(0.3, 0.3))
        pts = ortho_locus(L2, (1.0, 0.0), rel, resolution=720)
        crossings = [p.theta for p in pts if p.is_zero_crossing]
        assert crossings
        assert min(abs(t - math.pi / 2) for t in crossings) <= 1e-6
        assert min(abs(t - 3 * math.pi / 2) for t in crossings) <= 1e-6

    def test_points_on_unit_sphere(self):
        rel = Relation("rho")
        pts = ortho_locus(LP15, (0.7, -0.3), rel, resolution=64)
        for p in pts:
            assert abs(eval_norm(LP15, (p.x, p.y)) - 1.0) <= 1e-12
        thetas = [p.theta for p in pts]
        assert thetas == sorted(thetas)

    def test_linf_zero_direction(self):
        rel = Relation("rho_ab", ab=AlphaBeta(0.3, 0.4))
        pts = ortho_locus(LINF, (1.0, 1.0), rel, resolution=720)
        target = math.atan2(1.0 / 0.8, -1.0 / 0.6) % (2 * math.pi)
        crossings = [p.theta for p in pts if p.is_zero_crossing]
        assert crossings
        assert min(abs(t - target) for t in crossings) <= 1e-6

    def test_l1_axis_zero(self):
        pts = ortho_locus(L1, (1.0, 0.0), Relation("rho"), resolution=360)
        crossings = [p.theta for p in pts if p.is_zero_crossing]
        assert min(abs(t - math.pi / 2) for t in crossings) <= 1e-6

    def test_crossing_residuals_small(self):
        pts = ortho_locus(L2, (0.4, 0.9), Relation("rho"), resolution=256)
        for p in pts:
            if p.is_zero_crossing:
                assert abs(p.residual) <= 1e-8

    @BACKENDS
    def test_points_are_named_tuples(self, package_backend):
        pts = ortho_locus(L2, (1.0, 0.0), Relation("rho"), resolution=8)
        assert len(pts) == 10  # 8 grid points, 2 crossings
        for p in pts:
            assert type(p) is LocusPoint
            assert type(p.is_zero_crossing) is bool
            assert pickle.loads(pickle.dumps(p)) == p
        p = pts[0]
        assert p._fields == ("theta", "x", "y", "residual", "is_zero_crossing")
        assert repr(p) == ("LocusPoint(theta=0.0, x=1.0, y=0.0, residual=1.0, "
                           "is_zero_crossing=False)")
        assert p._asdict() == {"theta": 0.0, "x": 1.0, "y": 0.0, "residual": 1.0,
                               "is_zero_crossing": False}
        assert hash(p) == hash(tuple(p))
        assert type(pickle.loads(pickle.dumps(p))) is LocusPoint
        with pytest.raises(AttributeError):
            p.residual = 0.0

    @BACKENDS
    def test_validation(self, package_backend):
        rel = Relation("rho")
        with pytest.raises(ZeroVectorError):
            ortho_locus(L2, (0.0, 0.0), rel)
        with pytest.raises(ValueError, match="resolution must be >= 8, got 4"):
            ortho_locus(L2, (1.0, 0.0), rel, resolution=4)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            ortho_locus(L2, (1.0, 0.0), rel, resolution=48.0)
        with pytest.raises(DimensionMismatchError):
            ortho_locus(parse_norm("l2", 3), (1.0, 0.0, 0.0), rel)
        with pytest.raises(DimensionMismatchError):
            ortho_locus(L2, (1.0, 0.0, 0.0), rel)
        with pytest.raises(ValueError, match="vector coordinates must be finite, got nan"):
            ortho_locus(L2, (math.nan, 0.0), rel)
        with pytest.raises(NonSmoothPointError):
            ortho_locus(L1, (1.0, 0.0), Relation("semi"), resolution=48)


class TestRelationResidual:
    def test_matches_is_orthogonal(self):
        rng = SplitMix64(65)
        rels = [
            Relation("birkhoff"),
            Relation("rho"),
            Relation("rho_plus"),
            Relation("rho_ab", ab=AlphaBeta(0.2, 0.3)),
            Relation("isosceles"),
            Relation("pythagorean"),
        ]
        for _ in range(100):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            for rel in rels:
                want = is_orthogonal(rel, L2, u, v).residual
                assert relation_residual(rel, L2, u, v) == want
