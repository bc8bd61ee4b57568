"""Norm evaluation, axiom audits, and sampling tests."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import normortho.space
from normortho import (
    MAX_SCALE,
    DimensionMismatchError,
    NormAudit,
    SampleConfig,
    SplitMix64,
    as_vector,
    audit_norm,
    corner_vectors,
    eval_norm,
    norm_on_line,
    parse_norm,
    random_vector,
    sphere_sample,
)
from normortho.space import _worst

from conftest import FAMILIES, ScriptedDraws


class _Table:
    """A Program stand-in whose value is looked up in a table."""

    def __init__(self, values):
        self.value = values.__getitem__


class TestEvalNorm:
    def test_atom_values(self):
        assert eval_norm(parse_norm("linf", 2), (1.0, 1.0)) == 1.0
        assert eval_norm(parse_norm("l1", 2), (1.0, 1.0)) == 2.0
        assert eval_norm(parse_norm("l2", 2), (3.0, 4.0)) == 5.0

    def test_combinator_value(self):
        ast = parse_norm("max(scale(0.5, l1), l2)", 2)
        # l2 wins: 0.5 * 7 = 3.5 < 5.
        assert eval_norm(ast, (3.0, 4.0)) == 5.0

    def test_weighted_lp_value(self):
        ast = parse_norm("wlp(2; 1, 4)", 2)
        assert math.isclose(eval_norm(ast, (1.0, 1.0)), math.sqrt(5.0), rel_tol=1e-15)

    def test_sum_value(self):
        ast = parse_norm("sum(l1, linf)", 2)
        assert eval_norm(ast, (1.0, -2.0)) == 5.0

    def test_zero_vector(self):
        for family in FAMILIES:
            assert eval_norm(parse_norm(family, 2), (0.0, 0.0)) == 0.0

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            eval_norm(parse_norm("l2", 2), (1.0, 2.0, 3.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            eval_norm(parse_norm("l2", 2), (1.0, math.nan))


class TestNormOnLine:
    def test_matches_pointwise_eval(self):
        ast = parse_norm("sum(l1, linf)", 2)
        u, v = (0.3, -1.2), (0.7, 0.4)
        phi = norm_on_line(ast, u, v)
        for k in range(-6, 7):
            t = 0.5 * k
            direct = eval_norm(ast, (u[0] + t * v[0], u[1] + t * v[1]))
            assert math.isclose(phi(t), direct, rel_tol=1e-15, abs_tol=1e-15)

    def test_convex_along_line(self):
        ast = parse_norm("lp(1.5)", 2)
        phi = norm_on_line(ast, (1.0, -0.5), (0.2, 0.9))
        for k in range(-10, 10):
            a, b = 0.3 * k, 0.3 * (k + 2)
            mid = phi((a + b) / 2)
            assert mid <= (phi(a) + phi(b)) / 2 + 1e-12


class TestAudit:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_pass_audit(self, family):
        ast = parse_norm(family, 2)
        report = audit_norm(ast, SampleConfig(seed=1, count=1000))
        assert report.samples == 1000
        assert report.violations == 0
        assert report.worst_kind is None

    @pytest.mark.parametrize("family", ["l1", "sum(l1, linf)"])
    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e10])
    def test_audit_is_scale_free(self, family, scale):
        # float roundoff in N(u + v) grows with the sampling box and must
        # not read as a triangle violation
        ast = parse_norm(family, 2)
        report = audit_norm(ast, SampleConfig(seed=1, count=2000, scale=scale))
        assert report.violations == 0, (report.worst_kind, report.worst_defect)

    @pytest.mark.parametrize("count, want", [
        # one homogeneity defect: norm(3 u) = 2 against 3 norm(u) = 3
        (1, (1, 1, "homogeneity", 1.0, (1.0, 0.0), None, 3.0)),
        # then a triangle defect of 3, the new worst, and a positivity
        # violation at a nonzero u of norm 0, whose defect of 0 is not
        (2, (2, 3, "triangle", 3.0, (0.0, 2.0), (2.0, 0.0), None)),
    ])
    def test_violations_are_counted_and_the_worst_kept(self, monkeypatch, count, want):
        values = {(1.0, 0.0): 1.0, (0.0, 1.0): 1.0, (3.0, 0.0): 2.0, (1.0, 1.0): 2.0,
                  (0.0, 2.0): 0.0, (2.0, 0.0): 2.0, (2.0, 2.0): 5.0}
        draws = ScriptedDraws([(1.0, 0.0), (0.0, 1.0), (0.0, 2.0), (2.0, 0.0)], [3.0, 1.0])
        monkeypatch.setattr(normortho.space, "get_program", lambda ast: _Table(values))
        monkeypatch.setattr(normortho.space, "SplitMix64", lambda seed: draws)
        report = audit_norm(parse_norm("l2", 2), SampleConfig(seed=1, count=count))
        assert report == NormAudit(*want)

    @pytest.mark.parametrize("values", [
        # norm(u) overflows: |norm(3 u) - 3 norm(u)| is inf - inf, a NaN
        {(1.0, 0.0): math.inf, (0.0, 1.0): 1.0, (3.0, 0.0): math.inf},
        # norm(u + v) overflows alone: a triangle defect of +inf
        {(1.0, 0.0): 1.0, (0.0, 1.0): 1.0, (3.0, 0.0): 3.0, (1.0, 1.0): math.inf},
    ], ids=["nan-homogeneity", "inf-triangle"])
    def test_a_non_finite_defect_raises(self, monkeypatch, values):
        draws = ScriptedDraws([(1.0, 0.0), (0.0, 1.0)], [3.0])
        monkeypatch.setattr(normortho.space, "get_program", lambda ast: _Table(values))
        monkeypatch.setattr(normortho.space, "SplitMix64", lambda seed: draws)
        with pytest.raises(ValueError, match="^the norm audit overflows at this scale$"):
            audit_norm(parse_norm("l2", 2), SampleConfig(seed=1, count=1))

    def test_audit_dim3(self):
        ast = parse_norm("max(l1, scale(2, l2))", 3)
        report = audit_norm(ast, SampleConfig(seed=4, count=500))
        assert report.violations == 0


class TestSampling:
    @pytest.mark.parametrize("family", ["l2", "linf", "lp(1.5)", "sum(l1, linf)"])
    def test_sphere_sample_normalized(self, family):
        ast = parse_norm(family, 2)
        pts = sphere_sample(ast, SampleConfig(seed=9, count=200))
        assert len(pts) == 200
        for x in pts:
            assert abs(eval_norm(ast, x) - 1.0) <= 1e-12

    def test_sphere_sample_deterministic(self):
        ast = parse_norm("lp(3)", 2)
        a = sphere_sample(ast, SampleConfig(seed=5, count=50))
        b = sphere_sample(ast, SampleConfig(seed=5, count=50))
        assert a == b
        c = sphere_sample(ast, SampleConfig(seed=6, count=50))
        assert a != c

    def test_random_vector_deterministic(self):
        a = random_vector(SplitMix64(3), 2, 1.0)
        b = random_vector(SplitMix64(3), 2, 1.0)
        assert a == b

    def test_random_vector_scale(self):
        rng = SplitMix64(1)
        for _ in range(100):
            x = random_vector(rng, 2, 0.25)
            assert max(abs(c) for c in x) <= 0.25

    def test_corner_vectors(self):
        pts = corner_vectors(2)
        assert len(pts) == 8
        assert (0.0, 0.0) not in pts
        assert (1.0, -1.0) in pts

    def test_corner_vectors_dim3(self):
        pts = corner_vectors(3)
        assert len(pts) == 26
        assert all(any(c != 0.0 for c in p) for p in pts)


class TestValidation:
    def test_as_vector_coerces(self):
        assert as_vector([1, 2]) == (1.0, 2.0)

    def test_as_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_vector((1.0, math.inf))
        with pytest.raises(ValueError):
            as_vector((math.nan,))

    @pytest.mark.parametrize("kwargs", [{"count": 0}, {"scale": 0.0}, {"scale": -1.0}])
    def test_sample_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SampleConfig(**kwargs)

    def test_the_largest_scale_draws_finite_coordinates(self):
        # a draw in [-scale, scale] spans 2 * scale, which is finite up to
        # MAX_SCALE and +inf past it, where every coordinate drawn was +inf
        assert MAX_SCALE == sys.float_info.max / 2
        assert SampleConfig(scale=MAX_SCALE).scale == MAX_SCALE
        rng = SplitMix64(0)
        assert all(map(math.isfinite, rng.vector(64, -MAX_SCALE, MAX_SCALE)))
        assert SplitMix64(0).vector(2, -1e308, 1e308) == (math.inf, math.inf)


class TestAxiomsDirect:
    """Spot checks of the axioms with directed inputs, beyond the audit."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_absolute_homogeneity(self, family):
        ast = parse_norm(family, 2)
        rng = SplitMix64(11)
        for _ in range(200):
            u = random_vector(rng, 2, 2.0)
            t = rng.uniform(-10.0, 10.0)
            lhs = eval_norm(ast, (t * u[0], t * u[1]))
            rhs = abs(t) * eval_norm(ast, u)
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_triangle_inequality(self, family):
        ast = parse_norm(family, 2)
        rng = SplitMix64(12)
        for _ in range(200):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            s = (u[0] + v[0], u[1] + v[1])
            assert eval_norm(ast, s) <= eval_norm(ast, u) + eval_norm(ast, v) + 1e-12

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_positivity_l1(self, x, y):
        val = eval_norm(parse_norm("l1", 2), (x, y))
        assert val >= 0.0
        assert (val == 0.0) == (x == 0.0 and y == 0.0)


def _worst_of(*measures):
    """_worst over the pairs ("u0", "v0"), ("u1", "v1"), ..., the i-th of
    which measures measures[i]."""
    pairs = [(f"u{i}", f"v{i}") for i in range(len(measures))]
    table = dict(zip(pairs, measures))
    return _worst(pairs, lambda u, v: table[u, v], "the scripted check")


class TestRunningWorst:
    def test_a_tie_keeps_the_first_witness(self):
        assert _worst_of(1.0, 3.0, 2.0, 3.0) == (3.0, ("u1", "v1"), 0)

    def test_no_negative_or_zero_measure_becomes_the_witness(self):
        assert _worst_of(-1.0, 0.0, -0.0, -math.inf) == (0.0, (None, None), 0)
        assert _worst_of(-2.0, 0.5, 0.0, -1.0) == (0.5, ("u1", "v1"), 0)

    def test_none_skips_and_is_counted(self):
        assert _worst_of(None, 1.0, None, None) == (1.0, ("u1", "v1"), 3)
        assert _worst_of(None, None) == (0.0, (None, None), 2)

    @pytest.mark.parametrize("measures", [(math.nan,), (1.0, math.nan, 2.0),
                                          (math.inf, math.nan), (None, -1.0, math.nan)],
                             ids=["first", "after-finite", "after-inf", "after-skip"])
    def test_nan_raises_with_the_name(self, measures):
        with pytest.raises(ValueError, match="^the scripted check overflows at this scale$"):
            _worst_of(*measures)

    @pytest.mark.parametrize("measures", [(math.inf,), (1.0, math.inf, 2.0, math.inf),
                                          (None, math.inf)],
                             ids=["first", "after-finite", "after-skip"])
    def test_an_infinite_measure_raises_with_the_name(self, measures):
        # an infinite worst is an overflow, as a NaN one is; -inf, a
        # negative measure, is never the worst (see above)
        with pytest.raises(ValueError, match="^the scripted check overflows at this scale$"):
            _worst_of(*measures)
