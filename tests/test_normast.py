"""Parser and printer tests for the norm expression language."""

import dataclasses
import math
import pickle

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

from normortho.kernels import get_program
from normortho.program import compile_ast

from conftest import FAMILIES, gen_ast, mutate

# Every ParseError the parser raises, pinned to its exact text and offset
# (dimension 2): each raise site, each "expected ..." form with a token
# found and at the end of input, and whitespace other than a space.
PARSE_ERRORS = [
    # unexpected character; the whole text is lexed before parsing starts
    ("@", "unexpected character '@' (at offset 0)", 0),
    ("l1 $", "unexpected character '$' (at offset 3)", 3),
    ("foo $", "unexpected character '$' (at offset 4)", 4),
    ("lp(+1)", "unexpected character '+' (at offset 3)", 3),
    ("-", "unexpected character '-' (at offset 0)", 0),
    ("\u00e9", "unexpected character '\u00e9' (at offset 0)", 0),
    # numbers are ASCII decimal literals: an Arabic-Indic three and a
    # fullwidth two are not digits
    ("lp(\u0663)", "unexpected character '\u0663' (at offset 3)", 3),
    ("scale(\uff12, l1)", "unexpected character '\uff12' (at offset 6)", 6),
    # expected punctuation
    ("lp x", "expected '(', found 'x' (at offset 3)", 3),
    ("lp", "expected '(', found 'end of input' (at offset 2)", 2),
    ("lp(3 x", "expected ')', found 'x' (at offset 5)", 5),
    ("lp(3", "expected ')', found 'end of input' (at offset 4)", 4),
    ("max(l1 l2)", "expected ',', found 'l2' (at offset 7)", 7),
    ("max(l1", "expected ',', found 'end of input' (at offset 6)", 6),
    ("wlp(2 1, 1)", "expected ';', found '1' (at offset 6)", 6),
    ("wlp(2", "expected ';', found 'end of input' (at offset 5)", 5),
    # expected a number
    ("lp(x)", "expected a number, found 'x' (at offset 3)", 3),
    ("lp(", "expected a number, found 'end of input' (at offset 3)", 3),
    ("lp(nan)", "expected a number, found 'nan' (at offset 3)", 3),
    ("wlp(nan; 1, 1)", "expected a number, found 'nan' (at offset 4)", 4),
    # expected a norm expression
    ("(", "expected a norm expression, found '(' (at offset 0)", 0),
    ("1e5", "expected a norm expression, found '1e5' (at offset 0)", 0),
    ("", "expected a norm expression, found 'end of input' (at offset 0)", 0),
    ("max(l1,", "expected a norm expression, found 'end of input' (at offset 7)", 7),
    # unknown norm; names are lowercased
    ("l9", "unknown norm 'l9' (at offset 0)", 0),
    ("Max(L1, Foo)", "unknown norm 'foo' (at offset 8)", 8),
    # parameter checks
    ("lp(1)", "lp exponent must be finite and > 1, got 1.0 (at offset 3)", 3),
    ("lp(-3)", "lp exponent must be finite and > 1, got -3.0 (at offset 3)", 3),
    ("lp(1e999)", "lp exponent must be finite and > 1, got inf (at offset 3)", 3),
    ("wlp(0.5; 1, 1)", "wlp exponent must be >= 1 or inf, got 0.5 (at offset 4)", 4),
    ("wlp(2; 1, -4)", "wlp weights must be positive, got -4.0 (at offset 10)", 10),
    ("wlp(2; 0, 1)", "wlp weights must be positive, got 0.0 (at offset 7)", 7),
    ("wlp(2; 1e999, 1)", "wlp weights must be positive, got inf (at offset 7)", 7),
    ("scale(0, l2)", "scale factor must be positive, got 0.0 (at offset 6)", 6),
    ("scale(1e999, l1)", "scale factor must be positive, got inf (at offset 6)", 6),
    # wlp weight count
    ("wlp(2; 1, 2, 3)",
     "wlp expects 2 weights for a 2-dimensional space, got 3 (at offset 7)", 7),
    ("wlp(inf; 5)",
     "wlp expects 2 weights for a 2-dimensional space, got 1 (at offset 9)", 9),
    # trailing input
    ("l1 l2", "trailing input 'l2' (at offset 3)", 3),
    ("l1)", "trailing input ')' (at offset 2)", 2),
    # a tab, an information separator and an em space between tokens
    ("max(l1,\tl2) x", "trailing input 'x' (at offset 12)", 12),
    ("l1\x1cl2", "trailing input 'l2' (at offset 3)", 3),
    ("l1\u2003@", "unexpected character '@' (at offset 3)", 3),
]


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

    @pytest.mark.parametrize("text, message, offset", PARSE_ERRORS)
    def test_error_text_and_offset_pinned(self, text, message, offset):
        with pytest.raises(ParseError) as exc:
            parse_norm(text, 2)
        assert str(exc.value) == message
        assert exc.value.offset == offset

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

    def test_wlp_exponent_domain(self):
        with pytest.raises(ValueError, match=r"^wlp exponent must be >= 1 or inf, got 0\.5$"):
            WLp(0.5, (1.0, 2.0))

    @pytest.mark.parametrize("walk", [print_norm, compile_ast])
    def test_non_node_is_a_type_error(self, walk):
        with pytest.raises(TypeError, match="^not a norm node: <object object at "):
            walk(object())

    def test_scale_factor_positive(self):
        with pytest.raises(ValueError):
            Scale(0.0, L1(2))
        with pytest.raises(ValueError):
            Scale(-2.0, L1(2))

    def test_combinator_dim_agreement(self):
        with pytest.raises(ValueError, match="^max children disagree on dimension: 2 vs 3$"):
            Max(L1(2), L1(3))
        with pytest.raises(ValueError, match="^sum children disagree on dimension: 4 vs 2$"):
            Sum(LInf(4), Lp(2, 2.0))


class TestNodeIdentity:
    """Max/Sum and L1/LInf hold the same fields but are different norms."""

    PAIRS = [
        (L1(2), LInf(2)),
        (Max(L1(2), Lp(2, 2.0)), Sum(L1(2), Lp(2, 2.0))),
    ]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_equal_fields_distinct_nodes(self, a, b):
        assert hash(a) == hash(b)
        assert a != b and b != a
        assert get_program(a) is not get_program(b)
        assert eval_norm(a, (1.0, -2.0)) != eval_norm(b, (1.0, -2.0))

    def test_repr(self):
        assert repr(L1(2)) == "L1(dim=2)"
        assert repr(LInf(3)) == "LInf(dim=3)"
        assert repr(Max(L1(2), LInf(2))) == "Max(left=L1(dim=2), right=LInf(dim=2))"
        assert repr(Sum(L1(2), LInf(2))) == "Sum(left=L1(dim=2), right=LInf(dim=2))"

    @pytest.mark.parametrize("text", FAMILIES)
    def test_pickle_round_trip(self, text):
        ast = parse_norm(text, 2)
        back = pickle.loads(pickle.dumps(ast))
        assert type(back) is type(ast)
        assert back == ast and hash(back) == hash(ast)

    def test_replace(self):
        node = Max(L1(2), LInf(2))
        swapped = dataclasses.replace(node, right=Lp(2, 3.0))
        assert swapped == Max(L1(2), Lp(2, 3.0))
        assert hash(swapped) == hash(Max(L1(2), Lp(2, 3.0)))
        assert dataclasses.replace(LInf(2), dim=3) == LInf(3)
        with pytest.raises(ValueError, match="sum children disagree on dimension: 2 vs 3"):
            dataclasses.replace(Sum(L1(2), LInf(2)), right=LInf(3))
        with pytest.raises(ValueError, match="ambient dimension"):
            dataclasses.replace(L1(2), dim=1)

    def test_frozen(self):
        for node in (L1(2), LInf(2), Max(L1(2), L1(2)), Sum(L1(2), L1(2))):
            assert [f.name for f in dataclasses.fields(node)] in (["dim"], ["left", "right"])
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.dim = 3
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.extra = 0


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
