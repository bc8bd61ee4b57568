"""The public entries' vector boundary, `Program.vectors`, on both backends.

`Program.vectors(*coords)` converts each argument as
`tuple(map(float, coords))` does, rejects a NaN or infinite entry, and
then checks every length against the norm's dimension.  Every public
entry that takes vectors validates through it, once.  The public numeric
parameters are checked at entry too, before any sampling or sweep.
"""

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normortho
from normortho import (
    AlphaBeta,
    DimensionMismatchError,
    Lambda,
    Relation,
    SampleConfig,
    ab_orthogonalizer,
    angle_ab,
    angle_homogeneity_check,
    audit_norm,
    birkhoff_oracle,
    birkhoff_t_interval,
    dir_deriv_exact,
    eval_norm,
    is_orthogonal,
    norm_on_line,
    ortho_locus,
    parse_norm,
    quartic_identity_residual,
    relation_residual,
    rho,
    rho_ab,
    rho_lambda,
    rho_pair,
    rho_pm_numeric,
    sip,
    strict_convexity_probe,
    symmetry_residual,
    symmetry_search,
)
from normortho.cli import run
from normortho import _kernels_py
from normortho.program import compile_ast

BACKENDS = pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)

NAN, INF = math.nan, math.inf
FINITE = "vector coordinates must be finite, got {}"
LENGTH = "norm consumes 2 coordinates but vector has {}"


class Real(float):
    """A float subclass; vectors holds plain floats."""


class Point(NamedTuple):
    """A tuple subclass; vectors returns plain tuples."""

    x: float
    y: float


def reference_vectors(dim, *coords):
    """The boundary the public entries ran before Program.vectors:
    space.as_vector of each argument, then the dimension check."""

    def as_vector(coords):
        vec = tuple(map(float, coords))
        for c in vec:
            if not math.isfinite(c):
                raise ValueError(f"vector coordinates must be finite, got {c!r}")
        return vec

    vecs = tuple(map(as_vector, coords))
    for vec in vecs:
        if len(vec) != dim:
            raise DimensionMismatchError(
                f"norm consumes {dim} coordinates but vector has {len(vec)}"
            )
    return vecs


def _outcome(call, *args):
    """The float.hex of every coordinate and whether all are plain floats
    in plain tuples, or the exception's type and text."""
    try:
        out = call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (tuple(tuple(c.hex() for c in vec) for vec in out),
            type(out) is tuple and all(type(vec) is tuple for vec in out)
            and all(type(c) is float for vec in out for c in vec))


def _hexes(*vecs):
    return tuple(tuple(float(c).hex() for c in vec) for vec in vecs), True


# (arguments, or a function making them; expected outcome)
VECTOR_CASES = {
    "floats": (((0.6, -0.8), (0.3, 0.9)), _hexes((0.6, -0.8), (0.3, 0.9))),
    "signed-zero": (((-0.0, 0.0),), _hexes((-0.0, 0.0))),
    "floats-list": (([0.5, -0.25], [1e300, 5e-324]), _hexes((0.5, -0.25), (1e300, 5e-324))),
    "ints-list": (([1, -2], (3, 4)), _hexes((1, -2), (3, 4))),
    "tuple-subclass": ((Point(0.5, 2.0),), _hexes((0.5, 2.0))),
    "numeric-strings": ((("1.5", " -2 "),), _hexes((1.5, -2.0))),
    "bools": (((True, False),), _hexes((1.0, 0.0))),
    "float-subclass": (((Real(0.25), 1),), _hexes((0.25, 1.0))),
    "generator": (lambda: ((x for x in (1, 2)),), _hexes((1.0, 2.0))),
    "no-vectors": ((), ((), True)),
    "nan": (((NAN, 0.0),), ("ValueError", FINITE.format("nan"))),
    "nan-string": ((("nan", 0.0),), ("ValueError", FINITE.format("nan"))),
    "inf": (((0.0, INF),), ("ValueError", FINITE.format("inf"))),
    "-inf": (((-INF, 0.0),), ("ValueError", FINITE.format("-inf"))),
    "none": (((None, 0.0),), (
        "TypeError", "float() argument must be a string or a real number, not 'NoneType'")),
    "junk-string": ((("abc", 0.0),), ("ValueError", "could not convert string to float: 'abc'")),
    "huge-int": (((10 ** 400, 0.0),), ("OverflowError", "int too large to convert to float")),
    "not-iterable": ((5,), ("TypeError", "'int' object is not iterable")),
    "too-long": (((1.0, 2.0, 3.0),), ("DimensionMismatchError", LENGTH.format(3))),
    "too-short-v": (((1.0, 2.0), (1.0,)), ("DimensionMismatchError", LENGTH.format(1))),
    # error order: a vector converts whole, then its entries must be
    # finite, and only then does the next vector convert; lengths last
    "convert-before-finite": (((NAN, "abc"),), (
        "ValueError", "could not convert string to float: 'abc'")),
    "u-finite-before-v-convert": (((INF, 0.0), (None, 0.0)), (
        "ValueError", FINITE.format("inf"))),
    "u-convert-before-v-finite": ((("x", 0.0), (NAN, 0.0)), (
        "ValueError", "could not convert string to float: 'x'")),
    "v-finite-before-u-length": (((1.0,), (0.0, NAN)), ("ValueError", FINITE.format("nan"))),
    "v-convert-before-u-length": (((1.0, 2.0, 3.0), (0.0, None)), (
        "TypeError", "float() argument must be a string or a real number, not 'NoneType'")),
    "u-length-before-v-length": (((1.0,), (1.0, 2.0, 3.0)), (
        "DimensionMismatchError", LENGTH.format(1))),
}


@BACKENDS
@pytest.mark.parametrize("args, want", VECTOR_CASES.values(), ids=VECTOR_CASES.keys())
def test_vectors_table(backend, args, want):
    prog = backend.Program(*compile_ast(parse_norm("l2", 2)))
    make = args if callable(args) else lambda: args
    assert _outcome(prog.vectors, *make()) == want
    assert _outcome(reference_vectors, 2, *make()) == want


@BACKENDS
def test_dimension_error_is_the_package_class(backend):
    prog = backend.Program(*compile_ast(parse_norm("l1", 3)))
    with pytest.raises(DimensionMismatchError):
        prog.vectors((1.0, 2.0))


_ENTRY = st.one_of(
    st.floats(),
    st.integers(-10 ** 6, 10 ** 6),
    st.booleans(),
    st.none(),
    st.just(10 ** 400),
    st.sampled_from(["1.5", " -2e3 ", "nan", "-inf", "abc", "", "0x1"]),
)


@settings(max_examples=300)
@given(dim=st.integers(2, 4), coords=st.lists(st.lists(_ENTRY, max_size=5), max_size=3))
def test_vectors_match_reference(compiled_kernels, dim, coords):
    tape = compile_ast(parse_norm("l2", dim))
    want = _outcome(reference_vectors, dim, *coords)
    for backend in (_kernels_py, compiled_kernels):
        assert _outcome(backend.Program(*tape).vectors, *coords) == want, backend.__name__


AB = AlphaBeta(0.3, 0.4)

# every public entry that takes vectors, called on (ast, u, v); the
# single-vector entries ignore v
ENTRIES = {
    "eval_norm": lambda ast, u, v: eval_norm(ast, u),
    "norm_on_line": norm_on_line,
    "rho_pair": rho_pair,
    "rho": rho,
    "rho_lambda": lambda ast, u, v: rho_lambda(ast, u, v, Lambda(0.25)),
    "rho_ab": lambda ast, u, v: rho_ab(ast, u, v, AB),
    "sip": lambda ast, u, v: sip(ast, v, u),
    "dir_deriv_exact": lambda ast, u, v: dir_deriv_exact(ast, u, v, "plus"),
    "rho_pm_numeric": lambda ast, u, v: rho_pm_numeric(ast, u, v, "minus", 1e-9),
    "relation_residual": lambda ast, u, v: relation_residual(Relation("rho"), ast, u, v),
    "is_orthogonal": lambda ast, u, v: is_orthogonal(Relation("birkhoff"), ast, u, v),
    "birkhoff_oracle": birkhoff_oracle,
    "ab_orthogonalizer": lambda ast, u, v: ab_orthogonalizer(ast, u, v, AB),
    "birkhoff_t_interval": birkhoff_t_interval,
    "ortho_locus": lambda ast, u, v: ortho_locus(ast, u, Relation("isosceles"), 16),
    "angle_ab": lambda ast, u, v: angle_ab(ast, u, v, AB),
    "angle_homogeneity_check":
        lambda ast, u, v: angle_homogeneity_check(ast, u, v, 2.0, -3.0, AB),
    "quartic_identity_residual": lambda ast, u, v: quartic_identity_residual(ast, u, v, AB),
    "symmetry_residual": lambda ast, u, v: symmetry_residual(ast, u, v, AB),
}
SINGLE = {"eval_norm", "ortho_locus"}
GOOD_U, GOOD_V = (0.6, -0.8), (0.3, 0.9)


def _error(call, *args):
    try:
        call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


@BACKENDS
@pytest.mark.parametrize("name", ENTRIES)
def test_every_entry_validates_its_vectors(package_backend, name):
    entry = ENTRIES[name]
    ast = parse_norm("sum(l1, l2)", 2)
    assert _error(entry, ast, GOOD_U, GOOD_V) is None
    bad = [((NAN, 0.0), GOOD_V, ("ValueError", FINITE.format("nan"))),
           ((1.0, 2.0, 3.0), GOOD_V, ("DimensionMismatchError", LENGTH.format(3)))]
    if name not in SINGLE:
        bad += [(GOOD_U, (0.0, -INF), ("ValueError", FINITE.format("-inf"))),
                (GOOD_U, (1.0,), ("DimensionMismatchError", LENGTH.format(1)))]
    for u, v, want in bad:
        assert _error(entry, ast, u, v) == want, (u, v)


@pytest.mark.parametrize("name", ENTRIES)
def test_every_entry_fetches_its_program_once(name, monkeypatch):
    calls = []
    real = normortho.kernels.get_program

    def counting(ast):
        calls.append(ast)
        return real(ast)

    for mod in (normortho.space, normortho.derivs, normortho.ortho, normortho.geometry):
        monkeypatch.setattr(mod, "get_program", counting)
    ENTRIES[name](parse_norm("l2", 2), GOOD_U, GOOD_V)
    assert len(calls) == 1


CFG = SampleConfig(seed=1, count=200)
L1, L2, LP3 = parse_norm("l1", 2), parse_norm("l2", 2), parse_norm("lp(3)", 2)
NONNEG = "{} must be finite and nonnegative, got {}"
SEPARATION = "min_separation must lie in [0, 2), got {}"
NONZERO = "{} must be finite and nonzero, got {}"
SCALED = "{} = {} scales a coordinate out of the normal float range"
POSITIVE = "{} must be a positive integer, got {}"
POSITIVE_FINITE = "tol must be positive and finite, got {}"

# (call, expected error): each parameter value gave a wrong verdict, a
# misleading error or a meaningless count before it was checked
PARAMETER_CASES = {
    "audit-tol-nan": (lambda: audit_norm(L1, CFG, tol=NAN), NONNEG.format("tol", "nan")),
    "audit-tol-negative": (lambda: audit_norm(L1, CFG, tol=-1.0),
                           NONNEG.format("tol", "-1.0")),
    "audit-tol-inf": (lambda: audit_norm(L1, CFG, tol=INF), NONNEG.format("tol", "inf")),
    "symmetry-threshold-nan": (lambda: symmetry_search(LP3, AB, CFG, threshold=NAN),
                               NONNEG.format("threshold", "nan")),
    "symmetry-threshold-negative": (lambda: symmetry_search(LP3, AB, CFG, threshold=-1e-3),
                                    NONNEG.format("threshold", "-0.001")),
    "symmetry-threshold-inf": (lambda: symmetry_search(LP3, AB, CFG, threshold=INF),
                               NONNEG.format("threshold", "inf")),
    "convexity-separation-2": (lambda: strict_convexity_probe(L1, CFG, min_separation=2.0),
                               SEPARATION.format("2.0")),
    "convexity-separation-3": (lambda: strict_convexity_probe(L1, CFG, min_separation=3.0),
                               SEPARATION.format("3.0")),
    "convexity-separation-inf": (lambda: strict_convexity_probe(L1, CFG, min_separation=INF),
                                 SEPARATION.format("inf")),
    "convexity-separation-nan": (lambda: strict_convexity_probe(L1, CFG, min_separation=NAN),
                                 SEPARATION.format("nan")),
    "convexity-separation-negative": (
        lambda: strict_convexity_probe(L1, CFG, min_separation=-0.1), SEPARATION.format("-0.1")),
    "angle-a-nan": (lambda: angle_homogeneity_check(L2, (1, 0), (0.3, 1), NAN, 1.0, AB),
                    NONZERO.format("a", "nan")),
    "angle-a-inf": (lambda: angle_homogeneity_check(L2, (1, 0), (0.3, 1), INF, 1.0, AB),
                    NONZERO.format("a", "inf")),
    "angle-a-zero": (lambda: angle_homogeneity_check(L2, (1, 0), (0.3, 1), 0.0, 1.0, AB),
                     NONZERO.format("a", "0.0")),
    "angle-b-nan": (lambda: angle_homogeneity_check(L2, (1, 0), (0.3, 1), 2.0, NAN, AB),
                    NONZERO.format("b", "nan")),
    "angle-b-negative-inf": (
        lambda: angle_homogeneity_check(L2, (1, 0), (0.3, 1), 2.0, -INF, AB),
        NONZERO.format("b", "-inf")),
    # b v underflows to (0.0, 5e-324), which points another way: the check
    # reported a defect of 0.29
    "angle-b-underflow": (
        lambda: angle_homogeneity_check(L2, (1, 0), (0.3, 1), -1e300, 5e-324, AB),
        SCALED.format("b", "5e-324")),
    "angle-b-subnormal": (
        lambda: angle_homogeneity_check(L2, (1, 0), (0.3, 1), 1.0, 1e-308, AB),
        SCALED.format("b", "1e-308")),
    "angle-a-overflow": (
        lambda: angle_homogeneity_check(L2, (3, 0), (0.3, 1), 1e308, 1.0, AB),
        SCALED.format("a", "1e+308")),
    "angle-a-overflow-negative": (
        lambda: angle_homogeneity_check(L2, (1, -2), (0.3, 1), -1e308, 1.0, AB),
        SCALED.format("a", "-1e+308")),
    # a 2-point search whose residual could be negative, a bool taken as
    # 1, and a TypeError from range
    "oracle-iters-negative": (lambda: birkhoff_oracle(L2, (1, 0), (0, 1), iters=-5),
                              POSITIVE.format("iters", "-5")),
    "oracle-iters-zero": (lambda: birkhoff_oracle(L2, (1, 0), (0, 1), iters=0),
                          POSITIVE.format("iters", "0")),
    "oracle-iters-true": (lambda: birkhoff_oracle(L2, (1, 0), (0, 1), iters=True),
                          POSITIVE.format("iters", "True")),
    "oracle-iters-float": (lambda: birkhoff_oracle(L2, (1, 0), (0, 1), iters=2.5),
                           POSITIVE.format("iters", "2.5")),
    "oracle-iters-integral-float": (lambda: birkhoff_oracle(L2, (1, 0), (0, 1), iters=200.0),
                                    POSITIVE.format("iters", "200.0")),
    "oracle-iters-none": (lambda: birkhoff_oracle(L2, (1, 0), (0, 1), iters=None),
                          POSITIVE.format("iters", "None")),
    # True ran as tol = 1 and inf stopped the ladder at its second rung:
    # both gave 0.3024 +- 0.0048 where rho_+ is 0.3
    "numeric-tol-true": (lambda: rho_pm_numeric(L2, (1, 0), (0.3, 1), "plus", True),
                         POSITIVE_FINITE.format("True")),
    "numeric-tol-inf": (lambda: rho_pm_numeric(L2, (1, 0), (0.3, 1), "plus", INF),
                        POSITIVE_FINITE.format("inf")),
    "numeric-tol-negative-inf": (lambda: rho_pm_numeric(L2, (1, 0), (0.3, 1), "plus", -INF),
                                 POSITIVE_FINITE.format("-inf")),
    "numeric-tol-nan": (lambda: rho_pm_numeric(L2, (1, 0), (0.3, 1), "plus", NAN),
                        POSITIVE_FINITE.format("nan")),
    "numeric-tol-zero": (lambda: rho_pm_numeric(L2, (1, 0), (0.3, 1), "plus", 0.0),
                         POSITIVE_FINITE.format("0.0")),
    "numeric-tol-negative": (lambda: rho_pm_numeric(L2, (1, 0), (0.3, 1), "minus", -1e-9),
                             POSITIVE_FINITE.format("-1e-09")),
}


@BACKENDS
@pytest.mark.parametrize("case", PARAMETER_CASES)
def test_numeric_parameters_are_checked(package_backend, case):
    call, message = PARAMETER_CASES[case]
    assert _error(call) == ("ValueError", message)


# (SampleConfig keywords, expected error): a bool is an int to isinstance,
# and SampleConfig(seed=True, count=True) made audit_norm report True samples
SAMPLE_CONFIG_CASES = {
    "seed-true": ({"seed": True}, "seed must be an unsigned 64-bit integer, got True"),
    "seed-negative": ({"seed": -1}, "seed must be an unsigned 64-bit integer, got -1"),
    "seed-2**64": ({"seed": 2 ** 64},
                   "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
    "count-true": ({"count": True}, POSITIVE.format("count", "True")),
    "scale-true": ({"scale": True}, "scale must be positive and finite, got True"),
}


@pytest.mark.parametrize("case", SAMPLE_CONFIG_CASES)
def test_sample_config_is_checked(case):
    kwargs, message = SAMPLE_CONFIG_CASES[case]
    assert _error(lambda: SampleConfig(**kwargs)) == ("ValueError", message)


@BACKENDS
def test_checked_parameters_keep_their_edges(package_backend):
    assert audit_norm(L1, CFG, tol=0.0).samples == 200
    assert symmetry_search(LP3, AB, CFG, threshold=0.0).verdict == "witness-found"
    assert strict_convexity_probe(L1, CFG, min_separation=0.0).verdict == "witness-found"
    assert strict_convexity_probe(L1, CFG, min_separation=1.99).verdict == "witness-found"
    assert angle_homogeneity_check(L2, (1, 0), (0.3, 1), -1e100, 1e-100, AB) <= 1e-12
    # zero coordinates scale to zero, and the smallest normal is kept
    assert angle_homogeneity_check(L2, (1, 0), (0, 1), 1e300, 2.2250738585072014e-308,
                                   AB) <= 1e-12
    assert angle_homogeneity_check(L2, (1, 0), (0.3, 1), 1e307, -1e-300, AB) <= 1e-12
    assert birkhoff_oracle(L2, (1, 0), (0, 1), iters=1).holds


class _NoSweep:
    """A Program whose locus sweep must not start."""

    def __init__(self, prog):
        self._prog = prog

    def __getattr__(self, name):
        return getattr(self._prog, name)

    def locus(self, *args):
        raise AssertionError("the sweep started")


@pytest.fixture
def no_sweep(package_backend, monkeypatch):
    real = normortho.kernels.get_program
    monkeypatch.setattr(normortho.ortho, "get_program", lambda ast: _NoSweep(real(ast)))


@BACKENDS
@pytest.mark.parametrize("resolution", [2 ** 20 + 1, 10 ** 11])
def test_locus_resolution_is_bounded_before_the_sweep(no_sweep, resolution):
    assert _error(ortho_locus, L2, (1, 0), Relation("rho"), resolution) == (
        "ValueError", f"resolution must be <= 1048576, got {resolution}")


@BACKENDS
def test_locus_resolution_bound_is_inclusive(no_sweep):
    assert _error(ortho_locus, L2, (1, 0), Relation("rho"), 2 ** 20) == (
        "AssertionError", "the sweep started")


@BACKENDS
@pytest.mark.parametrize("resolution", [2 ** 20 + 1, 10 ** 11])
def test_cli_locus_resolution_is_a_usage_error(no_sweep, capsys, resolution):
    code = run(["locus", "--u", "1,0", "--relation", "rho", "--resolution", str(resolution)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "normortho: --resolution must be at most 1048576\n")
