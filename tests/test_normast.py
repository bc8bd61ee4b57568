"""Parser and printer tests for the norm expression language."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from normortho import (
    L1,
    LInf,
    Lp,
    Max,
    ParseError,
    Scale,
    SplitMix64,
    Sum,
    WLp,
    eval_norm,
    parse_norm,
    print_norm,
)

from conftest import FAMILIES, gen_ast, mutate


class TestParseExamples:
    def test_atoms(self):
        assert parse_norm("l1", 2) == L1(2)
        assert parse_norm("linf", 3) == LInf(3)
        assert parse_norm("lp(3)", 2) == Lp(2, 3.0)

    def test_l2_is_lp2_alias(self):
        assert parse_norm("l2", 2) == Lp(2, 2.0)
        assert parse_norm("l2", 2) == parse_norm("lp(2)", 2)

    def test_nested_combinator(self):
        ast = parse_norm("max(scale(0.5, l1), l2)", 2)
        assert ast == Max(Scale(0.5, L1(2)), Lp(2, 2.0))

    def test_weighted_lp(self):
        ast = parse_norm("wlp(2; 1, 4)", 2)
        assert ast == WLp(2.0, (1.0, 4.0))

    def test_weighted_l1(self):
        ast = parse_norm("wlp(1; 2, 3)", 2)
        assert ast == WLp(1.0, (2.0, 3.0))
        for x, y in ((1.5, -2.0), (-0.25, 0.0), (0.0, 7.0)):
            assert eval_norm(ast, (x, y)) == 2 * abs(x) + 3 * abs(y)

    def test_weighted_sup(self):
        ast = parse_norm("wlp(inf; 1, 2)", 2)
        assert ast.p == math.inf
        assert print_norm(ast) == "wlp(inf; 1, 2)"

    def test_whitespace_insensitive(self):
        a = parse_norm(" max ( l1 , sum( l2 , linf ) ) ", 2)
        assert a == Max(L1(2), Sum(Lp(2, 2.0), LInf(2)))

    def test_dim_threads_through(self):
        ast = parse_norm("sum(l1, scale(2, linf))", 4)
        assert ast.dim == 4
        assert ast.right.inner.dim == 4


class TestPrintExamples:
    def test_atoms(self):
        assert print_norm(L1(2)) == "l1"
        assert print_norm(LInf(2)) == "linf"
        assert print_norm(Lp(2, 2.0)) == "lp(2)"
        assert print_norm(Lp(2, 1.5)) == "lp(1.5)"

    def test_combinators(self):
        assert print_norm(Sum(L1(2), Lp(2, 2.0))) == "sum(l1, lp(2))"
        assert print_norm(Scale(0.5, LInf(2))) == "scale(0.5, linf)"

    def test_integral_floats_render_bare(self):
        assert print_norm(Scale(2.0, L1(2))) == "scale(2, l1)"
        assert print_norm(WLp(2.0, (1.0, 4.0))) == "wlp(2; 1, 4)"


class TestRejection:
    @pytest.mark.parametrize(
        "text",
        [
            "lp(1.0)",
            "lp(0.5)",
            "lp(-3)",
            "lp(nan)",
            "l9",
            "",
            "l1(",
            "l1)",
            "max(l1 l2)",
            "max(l1)",
            "scale(-1, l2)",
            "scale(0, l2)",
            "wlp(2; 1, -4)",
            "wlp(0.5; 1, 1)",
            "l1 l2",
            "@",
        ],
    )
    def test_invalid_text_raises_with_offset(self, text):
        with pytest.raises(ParseError) as exc:
            parse_norm(text, 2)
        assert 0 <= exc.value.offset <= len(text)
        assert "offset" in str(exc.value)

    def test_wlp_arity_checked_against_dim(self):
        with pytest.raises(ParseError):
            parse_norm("wlp(2; 1, 2, 3)", 2)
        assert parse_norm("wlp(2; 1, 2, 3)", 3) == WLp(2.0, (1.0, 2.0, 3.0))

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            parse_norm("l1", 1)
        with pytest.raises(ValueError):
            parse_norm("l1", True)


class TestNodeValidation:
    def test_lp_exponent_domain(self):
        with pytest.raises(ValueError):
            Lp(2, 1.0)
        with pytest.raises(ValueError):
            Lp(2, math.inf)

    def test_wlp_weights_positive(self):
        with pytest.raises(ValueError):
            WLp(2.0, (1.0, 0.0))
        with pytest.raises(ValueError):
            WLp(2.0, ())

    def test_scale_factor_positive(self):
        with pytest.raises(ValueError):
            Scale(0.0, L1(2))
        with pytest.raises(ValueError):
            Scale(-2.0, L1(2))

    def test_combinator_dim_agreement(self):
        with pytest.raises(ValueError):
            Max(L1(2), L1(3))
        with pytest.raises(ValueError):
            Sum(LInf(4), Lp(2, 2.0))


class TestRoundTrip:
    def test_families_round_trip(self):
        for text in FAMILIES:
            ast = parse_norm(text, 2)
            assert parse_norm(print_norm(ast), 2) == ast

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_asts_round_trip(self, dim):
        rng = SplitMix64(2024 + dim)
        for _ in range(300):
            ast = gen_ast(rng, dim, 4)
            assert parse_norm(print_norm(ast), dim) == ast

    def test_mutations_rejected(self):
        rng = SplitMix64(99)
        for _ in range(300):
            ast = gen_ast(rng, 2, 3)
            text = mutate(print_norm(ast), rng)
            with pytest.raises(ParseError) as exc:
                parse_norm(text, 2)
            assert 0 <= exc.value.offset <= len(text)

    @given(st.text(max_size=40))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_norm(text, 2)
        except ParseError as e:
            assert 0 <= e.offset <= len(text)
