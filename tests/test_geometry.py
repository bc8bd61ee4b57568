"""Angles, geometric constants, probes, and symmetry diagnostics."""

import itertools
import math
import operator

import pytest

import normortho.explorer
import normortho.geometry
from normortho import (
    AlphaBeta,
    ExtremeEstimate,
    LinearMap,
    ProbeReport,
    SampleConfig,
    SplitMix64,
    ZeroVectorError,
    angle_ab,
    angle_homogeneity_check,
    angular_constant,
    eval_norm,
    norm_equiv_constant,
    norm_on_line,
    parse_norm,
    preserver_check,
    quartic_identity_residual,
    random_vector,
    rho_ab,
    smoothness_probe,
    strict_convexity_probe,
    symmetry_residual,
    symmetry_search,
)
from normortho.derivs import _rho_ab
from normortho.explorer import ConditionReport, PreserverReport, _operator_norm
from normortho.geometry import _probe_pairs
from normortho.kernels import get_program
from normortho.ortho import _orthogonalize
from normortho.space import corner_vectors

from conftest import COMPOSITES, FAMILIES, ScriptedDraws, hexes

L1 = parse_norm("l1", 2)
L2 = parse_norm("l2", 2)
LINF = parse_norm("linf", 2)
LP3 = parse_norm("lp(3)", 2)
LP15 = parse_norm("lp(1.5)", 2)

AB = AlphaBeta(0.3, 0.3)

BACKENDS = pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)

# a sampling scale at which rho_ab overflows: NaN asymmetries and ratios
HUGE = SampleConfig(seed=0, count=300, scale=1e200)


class TestAngle:
    def test_right_angle_euclidean(self):
        got = angle_ab(L2, (1.0, 0.0), (0.0, 1.0), AB)
        assert abs(got.theta - math.pi / 2) <= 1e-12

    def test_parallel_and_antiparallel(self):
        assert angle_ab(L2, (1.0, 0.0), (2.5, 0.0), AB).theta == 0.0
        assert angle_ab(L2, (1.0, 0.0), (-2.0, 0.0), AB).theta == math.pi

    def test_right_angle_at_linf_corner(self):
        v = (-1.0 / 0.6, 1.0 / 0.8)
        got = angle_ab(LINF, (1.0, 1.0), v, AlphaBeta(0.3, 0.4))
        assert abs(got.theta - math.pi / 2) <= 1e-12

    def test_matches_euclidean_inner_product_angle(self):
        rng = SplitMix64(71)
        for _ in range(300):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            nu = math.hypot(*u)
            nv = math.hypot(*v)
            if nu < 0.05 or nv < 0.05:
                continue
            dot = u[0] * v[0] + u[1] * v[1]
            want = math.acos(max(-1.0, min(1.0, dot / (nu * nv))))
            got = angle_ab(L2, u, v, AB).theta
            assert abs(got - want) <= 1e-9

    def test_range_and_cosine_argument(self):
        rng = SplitMix64(72)
        for family in FAMILIES:
            ast = parse_norm(family, 2)
            for _ in range(50):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                if eval_norm(ast, u) < 0.05 or eval_norm(ast, v) < 0.05:
                    continue
                got = angle_ab(ast, u, v, AB)
                assert 0.0 <= got.theta <= math.pi
                assert -1.0 - 1e-9 <= got.cosine_argument <= 1.0 + 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            angle_ab(L2, (0.0, 0.0), (1.0, 0.0), AB)
        with pytest.raises(ZeroVectorError):
            angle_ab(L2, (1.0, 0.0), (0.0, 0.0), AB)

    def test_overflowing_cosine_argument_rejected(self):
        # the l2 dot products overflow to inf and their difference is NaN,
        # which the clamp to [-1, 1] used to turn into theta = pi
        with pytest.raises(ValueError, match="overflow"):
            angle_ab(L2, (1e155, 1e155), (1e155, -1e155), AB)


class TestAngleHomogeneity:
    def test_euclidean_examples(self):
        for a, b in [(2.0, 3.0), (0.5, 4.0), (7.0, 0.25)]:
            got = angle_homogeneity_check(L2, (1.0, 2.0), (-1.0, 1.0), a, b, AB)
            assert abs(got) <= 1e-9

    def test_invariance_across_families(self):
        rng = SplitMix64(73)
        for family in ("l1", "linf", "lp(3)", "sum(l1, linf)"):
            ast = parse_norm(family, 2)
            for _ in range(50):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                if eval_norm(ast, u) < 0.05 or eval_norm(ast, v) < 0.05:
                    continue
                # acos conditioning degrades near +-1; stay off the ends
                if abs(angle_ab(ast, u, v, AB).cosine_argument) > 0.99:
                    continue
                a = 0.1 + 3.0 * rng.random()
                b = 0.1 + 3.0 * rng.random()
                assert abs(angle_homogeneity_check(ast, u, v, a, b, AB)) <= 1e-9

    def test_mirror_law_for_opposite_signs(self):
        # a b < 0 flips the angle through pi with swapped coefficients
        rng = SplitMix64(74)
        ab = AlphaBeta(0.2, 0.45)
        for _ in range(100):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            if eval_norm(L1, u) < 0.05 or eval_norm(L1, v) < 0.05:
                continue
            if abs(angle_ab(L1, u, v, ab).cosine_argument) > 0.99:
                continue
            got = angle_homogeneity_check(L1, u, v, 1.5, -2.0, ab)
            assert abs(got) <= 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_int_scalars_match_float_scalars(self, family):
        ast = parse_norm(family, 2)
        u, v = (1.0, 2.0), (-1.5, 0.25)
        got = angle_homogeneity_check(ast, u, v, 2, -3, AB)
        assert got == angle_homogeneity_check(ast, u, v, 2.0, -3.0, AB)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            angle_homogeneity_check(L2, (1.0, 0.0), (0.0, 1.0), 1.0, 0.0, AB)
        with pytest.raises(ValueError):
            angle_homogeneity_check(L2, (1.0, 0.0), (0.0, 1.0), 0.0, 1.0, AB)


class TestAngularConstant:
    def test_identity_pair_is_one(self):
        got = angular_constant(L2, L2, AB, SampleConfig(seed=1, count=500))
        assert not got.unbounded
        assert got.value == 1.0

    def test_scaling_invariance(self):
        got = angular_constant(
            L2, parse_norm("scale(2, l2)", 2), AB, SampleConfig(seed=1, count=500)
        )
        assert got.value == 1.0

    def test_euclidean_to_lp3_regression(self):
        got = angular_constant(L2, LP3, AB, SampleConfig(seed=1, count=3000))
        assert not got.unbounded
        assert got.value >= 1.0
        assert abs(got.value - 4.963545481806449) <= 1e-9

    def test_non_strictly_convex_target_unbounded(self):
        # the sup norm angle reaches pi on open sets, so the ratio of
        # half-angle tangents has no finite bound
        got = angular_constant(L2, LINF, AB, SampleConfig(seed=3, count=10000))
        assert got.unbounded
        assert got.value == math.inf
        assert got.witness_u is not None
        theta2 = angle_ab(LINF, got.witness_u, got.witness_v, AB).theta
        theta1 = angle_ab(L2, got.witness_u, got.witness_v, AB).theta
        assert theta2 >= math.pi - 1e-9 or theta2 <= 1e-9
        if theta2 >= math.pi - 1e-9:
            assert theta1 <= math.pi - 1e-6
        else:
            assert theta1 >= 1e-6

    def test_estimate_monotone_in_samples(self):
        small = angular_constant(L2, LP3, AB, SampleConfig(seed=1, count=200))
        large = angular_constant(L2, LP3, AB, SampleConfig(seed=1, count=3000))
        assert large.value >= small.value


@pytest.mark.parametrize("estimate", [angular_constant, norm_equiv_constant])
def test_constants_need_one_dimension(estimate):
    with pytest.raises(ValueError, match="^both norms must share the ambient dimension$"):
        estimate(L2, parse_norm("l2", 3), AB, SampleConfig(seed=1, count=5))


class TestSmoothnessProbe:
    @pytest.mark.parametrize("family", ["l2", "lp(3)", "lp(1.5)", "wlp(2; 1, 4)"])
    def test_smooth_families_pass(self, family):
        got = smoothness_probe(parse_norm(family, 2), SampleConfig(seed=1, count=500))
        assert got.verdict == "pass"
        assert got.witness_u is None

    @pytest.mark.parametrize("family", ["l1", "linf", "max(l1, l2)", "sum(l1, linf)"])
    def test_polyhedral_families_witnessed(self, family):
        ast = parse_norm(family, 2)
        got = smoothness_probe(ast, SampleConfig(seed=1, count=500))
        assert got.verdict == "witness-found"
        # the reported gap must replay: one-sided derivatives split there
        u, v = got.witness_u, got.witness_v
        from normortho import rho_pair

        rm, rp = rho_pair(ast, u, v)
        gap = rp - rm
        scale = eval_norm(ast, u) * eval_norm(ast, v)
        assert gap > 1e-7 * scale
        assert got.diagnostic == pytest.approx(gap, rel=1e-12)

    def test_corner_probe_finds_split_quickly(self):
        got = smoothness_probe(LINF, SampleConfig(seed=1, count=10))
        assert got.verdict == "witness-found"
        assert got.samples_used <= 80


class TestStrictConvexityProbe:
    @pytest.mark.parametrize("family", ["l2", "lp(3)", "lp(1.5)", "lp(4)"])
    def test_rotund_families_pass(self, family):
        got = strict_convexity_probe(
            parse_norm(family, 2), SampleConfig(seed=1, count=500)
        )
        assert got.verdict == "pass"

    @pytest.mark.parametrize("family", ["l1", "linf", "max(l1, l2)"])
    def test_flat_faces_witnessed(self, family):
        ast = parse_norm(family, 2)
        got = strict_convexity_probe(ast, SampleConfig(seed=1, count=500))
        assert got.verdict == "witness-found"
        u, v = got.witness_u, got.witness_v
        # witness replays: distinct unit vectors whose midpoint stays on the sphere
        assert abs(eval_norm(ast, u) - 1.0) <= 1e-9
        assert abs(eval_norm(ast, v) - 1.0) <= 1e-9
        mid = ((u[0] + v[0]) / 2.0, (u[1] + v[1]) / 2.0)
        assert eval_norm(ast, mid) >= 1.0 - 1e-9

    def test_min_separation_respected(self):
        got = strict_convexity_probe(
            LINF, SampleConfig(seed=2, count=500), min_separation=0.05
        )
        u, v = got.witness_u, got.witness_v
        assert math.hypot(u[0] - v[0], u[1] - v[1]) >= 0.05


class _CountingValues:
    """A Program stand-in that counts its norm evaluations."""

    def __init__(self, prog):
        self._prog = prog
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._prog, name)

    def value(self, x):
        self.calls += 1
        return self._prog.value(x)


def test_convexity_probe_normalizes_only_the_corners_its_budget_reaches(monkeypatch):
    # five pairs of the corner combinations use the first six corners, and
    # each pair costs a separation and a midpoint norm; the 6554 other
    # corners of {-1, 0, 1}^8 are never normalized
    ast = parse_norm("l2", 8)
    counting = _CountingValues(get_program(ast))
    monkeypatch.setattr(normortho.geometry, "get_program", lambda a: counting)
    got = strict_convexity_probe(ast, SampleConfig(seed=1, count=5))
    assert got == ProbeReport("pass", None, None, None, 5)
    assert counting.calls == 6 + 2 * 5


class TestQuarticIdentity:
    def test_euclidean_identity_holds(self):
        rng = SplitMix64(81)
        ab = AlphaBeta(0.25, 0.4)
        for _ in range(300):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            got = quartic_identity_residual(L2, u, v, ab)
            scale = max(1.0, (math.hypot(*u) * math.hypot(*v)) ** 2)
            assert abs(got) <= 1e-8 * scale

    def test_equal_arguments_collapse(self):
        for family in FAMILIES:
            ast = parse_norm(family, 2)
            got = quartic_identity_residual(ast, (0.7, -0.4), (0.7, -0.4), AB)
            assert abs(got) <= 1e-12

    def test_linf_corner_balanced_coefficients(self):
        got = quartic_identity_residual(LINF, (1.0, 1.0), (1.0, -1.0), AB)
        assert got == 0.0

    def test_linf_corner_unbalanced_coefficients(self):
        got = quartic_identity_residual(LINF, (1.0, 1.0), (1.0, -1.0), AlphaBeta(0.3, 0.4))
        assert abs(got - (-1.6)) <= 1e-12

    def test_overflowing_fourth_power_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            quartic_identity_residual(LINF, (1e78, 0.0), (0.0, 1e78), AB)


class TestSymmetry:
    def test_euclidean_symmetric(self):
        rng = SplitMix64(82)
        for _ in range(200):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            assert abs(symmetry_residual(L2, u, v, AB)) <= 1e-10

    def test_l1_asymmetry_fixed_pair(self):
        got = symmetry_residual(L1, (1.0, 0.0), (1.0, 1.0), AlphaBeta(0.2, 0.2))
        assert abs(got - (-0.4)) <= 1e-15

    def test_search_passes_euclidean(self):
        got = symmetry_search(L2, AB, SampleConfig(seed=5, count=2000))
        assert got.verdict == "pass"
        assert got.diagnostic <= 1e-10

    def test_search_flags_sup_norm(self):
        got = symmetry_search(LINF, AB, SampleConfig(seed=5, count=10000))
        assert got.verdict == "witness-found"
        assert got.diagnostic > 1e-3
        assert abs(got.diagnostic - 1.1225704757295674) <= 1e-12
        replay = symmetry_residual(LINF, got.witness_u, got.witness_v, AB)
        assert abs(abs(replay) - got.diagnostic) <= 1e-12

    def test_search_flags_l1(self):
        got = symmetry_search(L1, AB, SampleConfig(seed=5, count=10000))
        assert got.verdict == "witness-found"
        assert abs(got.diagnostic - 1.173256725586165) <= 1e-12

    @BACKENDS
    @pytest.mark.parametrize("ast", [L1, L2], ids=["l1", "l2"])
    def test_search_raises_on_a_nan_asymmetry(self, ast, package_backend):
        # the NaN asymmetries were dropped: l1 reported an infinite
        # diagnostic, l2 a pass with 0.0
        with pytest.raises(ValueError, match="^the symmetry search overflows at this scale$"):
            symmetry_search(ast, AlphaBeta(0.3, 0.4), HUGE)


class TestNormEquivConstant:
    def test_identical_norms_zero(self):
        got = norm_equiv_constant(L2, L2, AB, SampleConfig(seed=7, count=500))
        assert got.value == 0.0

    def test_scaled_euclidean_regression(self):
        got = norm_equiv_constant(
            L2, parse_norm("scale(2, l2)", 2), AB, SampleConfig(seed=11, count=2000)
        )
        # analytic bound 3 (alpha + beta) = 1.8 for a doubled norm
        assert got.value <= 1.8 + 1e-9
        assert abs(got.value - 1.7999999546094398) <= 1e-9

    @pytest.mark.parametrize("scale", [1e-150, 1e-7, 1.0, 1e100])
    def test_no_sample_skipped_at_any_scale(self, scale):
        # the skip floor is relative to scale^2; an absolute one skipped
        # every sample at small scales and reported 0.0
        got = norm_equiv_constant(L1, L2, AB, SampleConfig(seed=2, count=200, scale=scale))
        ref = norm_equiv_constant(L1, L2, AB, SampleConfig(seed=2, count=200))
        assert got.skipped == 0
        assert got.value == pytest.approx(ref.value, rel=1e-9)

    def test_sample_below_the_floor_is_skipped(self, monkeypatch):
        # the first pair has a zero u, so its denominator is 0 and it is
        # skipped; the second gives |rho_ab| = |0.1 - 0.3| on l1 against 0
        # on linf, over a denominator of 1
        draws = ScriptedDraws([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        monkeypatch.setattr(normortho.geometry, "SplitMix64", lambda seed: draws)
        got = norm_equiv_constant(L1, LINF, AlphaBeta(0.3, 0.1), SampleConfig(seed=1, count=2))
        assert got == ExtremeEstimate(got.value, (1.0, 0.0), (0.0, 1.0), 2, 1)
        assert got.value == pytest.approx(0.2, rel=1e-12)

    def test_l1_sup_pair_in_band(self):
        got = norm_equiv_constant(L1, LINF, AB, SampleConfig(seed=1, count=10000))
        assert not got.unbounded
        assert 0.0 < got.value <= 5.0

    @BACKENDS
    def test_nan_ratio_raises(self, package_backend):
        # every ratio was NaN and dropped, and the constant read 0.0
        with pytest.raises(ValueError, match="^the equivalence constant overflows at this scale$"):
            norm_equiv_constant(L1, L2, AlphaBeta(0.3, 0.4), HUGE)


class TestSmoothnessBirkhoffLink:
    @pytest.mark.parametrize("family", ["l2", "lp(3)", "lp(1.5)"])
    def test_line_minimizer_is_rho_ab_orthogonal(self, family):
        """On smooth norms, the norm-minimizing shift makes rho_ab vanish.

        w = u + t* v with t* the minimizer of norm(u + t v) must satisfy
        every rho_ab orthogonality w _|_ v at once; this ties the
        derivative functionals to the metric geometry they encode.
        """
        ast = parse_norm(family, 2)
        ab = AlphaBeta(0.4, 0.25)
        rng = SplitMix64(83)
        gold = (math.sqrt(5.0) - 1.0) / 2.0
        done = 0
        while done < 60:
            u = random_vector(rng, 2, 1.5)
            v = random_vector(rng, 2, 1.5)
            nu, nv = eval_norm(ast, u), eval_norm(ast, v)
            if nu < 0.2 or nv < 0.2:
                continue
            phi = norm_on_line(ast, u, v)
            lo, hi = -4.0 * nu / nv, 4.0 * nu / nv
            a = hi - gold * (hi - lo)
            b = lo + gold * (hi - lo)
            fa, fb = phi(a), phi(b)
            for _ in range(200):
                if fa < fb:
                    hi, b, fb = b, a, fa
                    a = hi - gold * (hi - lo)
                    fa = phi(a)
                else:
                    lo, a, fa = a, b, fb
                    b = lo + gold * (hi - lo)
                    fb = phi(b)
            t_star = (lo + hi) / 2.0
            w = (u[0] + t_star * v[0], u[1] + t_star * v[1])
            nw = eval_norm(ast, w)
            if nw < 1e-6:
                continue
            got = rho_ab(ast, w, v, ab)
            assert abs(got) <= 1e-6 * max(1.0, nw * nv)
            done += 1


# The corner-then-random pair sources as they were written before they
# became itertools streams: one loop per phase, counters kept by hand.
# The streams must reproduce every pair, witness and count bit for bit.

def _reference_nonzero_vector(rng, prog, dim, scale):
    while True:
        x = rng.vector(dim, -scale, scale)
        if prog.value(x) != 0.0:
            return x


def _reference_normalized(prog, x):
    r = prog.value(x)
    return None if r == 0.0 else tuple([c / r for c in x])


def _reference_unit_vector(rng, prog, dim, scale):
    while True:
        x = _reference_normalized(prog, rng.vector(dim, -scale, scale))
        if x is not None:
            return x


def _reference_probe_pairs(splitmix, prog, dim, cfg):
    corners = corner_vectors(dim)
    yield from itertools.islice(itertools.product(corners, repeat=2), cfg.count)
    rng = splitmix(cfg.seed)
    for _ in range(cfg.count - len(corners) ** 2):
        u = _reference_nonzero_vector(rng, prog, dim, cfg.scale)
        yield u, _reference_nonzero_vector(rng, prog, dim, cfg.scale)


def _reference_strict_convexity(splitmix, prog, dim, cfg, min_separation=0.05):
    rng = splitmix(cfg.seed)
    used = 0

    def check(u, v):
        if prog.value(tuple(map(operator.sub, u, v))) <= min_separation:
            return None
        mid = prog.value(tuple([s / 2.0 for s in map(operator.add, u, v)]))
        if mid >= 1.0 - 1e-9:
            return mid
        return None

    corners = [_reference_normalized(prog, cv) for cv in corner_vectors(dim)]
    for i, u in enumerate(corners):
        for v in corners[i + 1:]:
            if used >= cfg.count:
                break
            used += 1
            mid = check(u, v)
            if mid is not None:
                return ("witness-found", u, v, mid, used)
    while used < cfg.count:
        u = _reference_unit_vector(rng, prog, dim, cfg.scale)
        v = _reference_unit_vector(rng, prog, dim, cfg.scale)
        used += 1
        mid = check(u, v)
        if mid is not None:
            return ("witness-found", u, v, mid, used)
    return ("pass", None, None, None, used)


# At dim 2 no two normalized corners share a flat face of this ball, so
# strict_convexity_probe finds its witness among the random pairs.
FACES_MISSED_BY_CORNERS = "max(l2, scale(0.9, l1))"


def _family_ast(family, dim):
    if dim == 3 and family.startswith("wlp"):
        family = "wlp(2; 1, 4, 0.5)"
    return parse_norm(family, dim)


def _budgets(corner_count):
    """One pair, one below, at and above the corner count, and 200."""
    return (1, corner_count - 1, corner_count, corner_count + 1, 200)


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
@pytest.mark.parametrize("family", FAMILIES + (FACES_MISSED_BY_CORNERS,))
class TestCornerThenRandomStreams:
    def test_probe_pairs_match_the_loops(self, family, package_backend):
        for dim in (2, 3):
            prog = get_program(_family_ast(family, dim))
            for count in _budgets(len(corner_vectors(dim)) ** 2):
                cfg = SampleConfig(seed=count, count=count, scale=2.5)
                got = tuple(_probe_pairs(prog, dim, cfg))
                want = tuple(_reference_probe_pairs(package_backend.SplitMix64, prog, dim, cfg))
                assert len(got) == count
                assert hexes(got) == hexes(want)

    def test_strict_convexity_matches_the_loops(self, family, package_backend):
        for dim in (2, 3):
            ast = _family_ast(family, dim)
            prog = get_program(ast)
            n = len(corner_vectors(dim))
            for count in _budgets(n * (n - 1) // 2):
                cfg = SampleConfig(seed=count, count=count, scale=2.5)
                r = strict_convexity_probe(ast, cfg)
                got = (r.verdict, r.witness_u, r.witness_v, r.diagnostic, r.samples_used)
                want = _reference_strict_convexity(package_backend.SplitMix64, prog, dim, cfg)
                assert hexes(got) == hexes(want)


# The five running-worst loops as they were written before they shared
# space._worst: the symmetry search, the equivalence constant and the three
# preserver conditions.  Where every measure is finite, each sampler must
# reproduce its loop's report bit for bit.

def _reference_symmetry_search(splitmix, ast, ab, cfg, threshold=1e-3):
    prog = get_program(ast)
    worst = 0.0
    witness = (None, None)
    for u, v in _reference_probe_pairs(splitmix, prog, ast.dim, cfg):
        res = abs(_rho_ab(prog, u, v, ab) - _rho_ab(prog, v, u, ab))
        if res > worst:
            worst = res
            witness = (u, v)
    if worst > threshold:
        return ProbeReport("witness-found", *witness, worst, cfg.count)
    return ProbeReport("pass", None, None, worst, cfg.count)


def _reference_norm_equiv_constant(splitmix, ast1, ast2, ab, cfg):
    prog1 = get_program(ast1)
    prog2 = get_program(ast2)
    rng = splitmix(cfg.seed)
    dim = ast1.dim
    floor = 1e-12 * cfg.scale * cfg.scale
    best = 0.0
    witness = (None, None)
    skipped = 0
    for _ in range(cfg.count):
        u = rng.vector(dim, -cfg.scale, cfg.scale)
        v = rng.vector(dim, -cfg.scale, cfg.scale)
        denom = min(prog1.value(u) * prog1.value(v), prog2.value(u) * prog2.value(v))
        if denom < floor:
            skipped += 1
            continue
        gap = abs(_rho_ab(prog1, u, v, ab) - _rho_ab(prog2, u, v, ab))
        ratio = gap / denom
        if ratio > best:
            best = ratio
            witness = (u, v)
    return ExtremeEstimate(best, *witness, cfg.count, skipped)


def _reference_preserver_check(splitmix, lin, ab, cfg):
    opn = _operator_norm(lin, cfg)
    tol = 1e-6 if opn.grade == "fine" else 1e-5
    dom = get_program(lin.domain_norm)
    cod = get_program(lin.codomain_norm)
    dim = lin.domain_norm.dim
    floor = 1e-12 * cfg.scale * cfg.scale
    root = splitmix(cfg.seed)

    def image(x):
        return cod.image(lin.matrix, x)

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
        tu = image(u)
        tw = image(w)
        denom = cod.value(tu) * cod.value(tw)
        if denom < floor:
            continue
        ratio = abs(_rho_ab(cod, tu, tw, ab)) / denom
        if ratio > worst1:
            worst1, wit1 = ratio, (u, w)

    rng = splitmix(root.substream(2).next_u64())
    worst2 = 0.0
    wit2 = None
    for _ in range(cfg.count):
        x = _reference_unit_vector(rng, dom, dim, cfg.scale)
        dev = abs(cod.value(image(x)) - opn.value) / opn.value
        if dev > worst2:
            worst2, wit2 = dev, x

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
        gap = abs(_rho_ab(cod, image(u), image(v), ab) - tsq * _rho_ab(dom, u, v, ab))
        ratio = gap / (ab.total * tsq * nu * nv)
        if ratio > worst3:
            worst3, wit3 = ratio, (u, v)

    return PreserverReport(
        opn,
        ConditionReport("orthogonality", worst1 <= tol, worst1, *wit1, tol),
        ConditionReport("norm_multiple", worst2 <= tol, worst2, wit2, None, tol),
        ConditionReport("rho_scaling", worst3 <= tol, worst3, *wit3, tol),
    )


def _assert_same_report(got, want):
    assert got == want
    assert hexes(got) == hexes(want)


AB_PIN = AlphaBeta(0.3, 0.4)
SHEAR = ((1.0, 0.4), (-0.3, 1.2))


@BACKENDS
class TestRunningWorstLoops:
    @pytest.mark.parametrize("family", FAMILIES + COMPOSITES)
    def test_samplers_match_the_loops(self, family, package_backend):
        # 100 pairs pass the 64 corner pairs of the plane, so the search
        # reaches its random pairs
        splitmix = package_backend.SplitMix64
        ast = parse_norm(family, 2)
        lin = LinearMap(SHEAR, ast, ast)
        for seed in (1, 2, 3):
            for scale in (1e-150, 1.0, 1e100):
                cfg = SampleConfig(seed=seed, count=100, scale=scale)
                _assert_same_report(symmetry_search(ast, AB_PIN, cfg),
                                    _reference_symmetry_search(splitmix, ast, AB_PIN, cfg))
                _assert_same_report(norm_equiv_constant(ast, LP3, AB_PIN, cfg),
                                    _reference_norm_equiv_constant(splitmix, ast, LP3, AB_PIN, cfg))
                _assert_same_report(preserver_check(lin, AB_PIN, cfg),
                                    _reference_preserver_check(splitmix, lin, AB_PIN, cfg))

    def test_scripted_draws_match_the_loops(self, package_backend, monkeypatch):
        # a zero draw redrawn among the symmetry search's random pairs; an
        # equivalence sample below the floor; a zero u redrawn and samples
        # below the floor in preserver conditions 1 and 3
        splitmix = package_backend.SplitMix64

        def scripted(*vectors):
            return lambda seed: ScriptedDraws(vectors)

        draws = scripted((0.0, 0.0), (1.0, 2.0), (3.0, -1.0))
        monkeypatch.setattr(normortho.geometry, "SplitMix64", draws)
        cfg = SampleConfig(seed=1, count=65)
        _assert_same_report(symmetry_search(L1, AB_PIN, cfg),
                            _reference_symmetry_search(draws, L1, AB_PIN, cfg))

        draws = scripted((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0))
        monkeypatch.setattr(normortho.geometry, "SplitMix64", draws)
        cfg = SampleConfig(seed=1, count=2)
        got = norm_equiv_constant(L1, LINF, AlphaBeta(0.3, 0.1), cfg)
        assert got.skipped == 1
        _assert_same_report(got, _reference_norm_equiv_constant(
            draws, L1, LINF, AlphaBeta(0.3, 0.1), cfg))

        def root(seed):
            if seed != 1:
                return splitmix(seed)
            return ScriptedDraws(substreams={
                1: ScriptedDraws([(0.0, 0.0), (5.0, 5.0), (1.0, 0.0), (0.0, 1.0),
                                  (1.0, 1.0), (0.0, 1.0)]),
                2: splitmix(2),
                3: ScriptedDraws([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
            })

        monkeypatch.setattr(normortho.explorer, "SplitMix64", root)
        lin = LinearMap(((1.0, 0.0), (0.0, 0.0)), L2, L2)
        _assert_same_report(preserver_check(lin, AB, cfg),
                            _reference_preserver_check(root, lin, AB, cfg))
