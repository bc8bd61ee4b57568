"""Linear maps, operator norms, preserver checks, and relation mining."""

import collections
import functools
import math
import operator
import tracemalloc
from itertools import chain

import pytest

import normortho.explorer
import normortho.kernels

from normortho import (
    AlphaBeta,
    DimensionMismatchError,
    LinearMap,
    OperatorNormEstimate,
    RELATION_TAGS,
    Relation,
    SampleConfig,
    SplitMix64,
    apply_map,
    corner_vectors,
    eval_norm,
    is_orthogonal,
    mine_incomparability,
    operator_norm,
    parse_norm,
    preserver_check,
    relation_residual,
    rho_ab,
    sphere_sample,
)
from normortho import _kernels_py
from normortho.explorer import _operator_norm
from normortho.kernels import get_program

from conftest import (
    COMPOSITES, FAMILIES, ProgramProxy, ScriptedDraws, circle_reference, hexes,
    operator_norm_reference,
)

L1 = parse_norm("l1", 2)
L2 = parse_norm("l2", 2)
LINF = parse_norm("linf", 2)

AB = AlphaBeta(0.3, 0.3)

BACKENDS = pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return ((c, -s), (s, c))


class TestLinearMap:
    def test_matrix_coerced_to_floats(self):
        lin = LinearMap(((1, 2), (3, 4)), L2, L2)
        assert lin.matrix == ((1.0, 2.0), (3.0, 4.0))

    def test_shape_checked_against_norms(self):
        with pytest.raises(DimensionMismatchError):
            LinearMap(((1.0, 2.0),), L2, L2)
        with pytest.raises(DimensionMismatchError):
            LinearMap(((1.0, 2.0), (3.0, 4.0)), parse_norm("l2", 3), L2)

    def test_rectangular_map_allowed(self):
        lin = LinearMap(((1.0, 0.0, 1.0), (0.0, 1.0, -1.0)), parse_norm("l1", 3), L2)
        assert apply_map(lin, (1.0, 2.0, 3.0)) == (4.0, -1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LinearMap(((math.nan, 0.0), (0.0, 1.0)), L2, L2)

    def test_is_zero(self):
        assert LinearMap(((0.0, 0.0), (0.0, 0.0)), L2, L2).is_zero
        assert not LinearMap(((0.0, 1.0), (0.0, 0.0)), L2, L2).is_zero

    def test_apply_checks_dimension(self):
        lin = LinearMap(((1.0, 0.0), (0.0, 1.0)), L2, L2)
        with pytest.raises(DimensionMismatchError):
            apply_map(lin, (1.0, 2.0, 3.0))


    @pytest.mark.parametrize("matrix", [
        ((-0.0, 1.5), (5e-324, -2.0)),
        ((1.0, -0.0), (0.0, 0.0), (-3e-310, 2.5)),
        ((1e16, 1.0, -1e16), (-0.0, 1e-300, 7.0)),
        ((0.1, 0.2, 0.3), (-0.0, -0.0, -0.0), (1e16, 1.0, -1e16)),
    ])
    @BACKENDS
    def test_apply_is_fsum_of_row_products(self, matrix, package_backend):
        rows, cols = len(matrix), len(matrix[0])
        lin = LinearMap(matrix, parse_norm("l2", cols), parse_norm("l2", rows))
        xs = [(1.0,) * cols, (-0.0,) * cols, (5e-324, -1.0, 3.0)[:cols],
              (-2.5, 1e-310, 0.7)[:cols], (1e300, -1e300, 1.0)[:cols]]
        for x in xs:
            got = apply_map(lin, x)
            want = [math.fsum([r * c for r, c in zip(row, x)]) for row in lin.matrix]
            assert [g.hex() for g in got] == [w.hex() for w in want]

    def test_apply_sums_without_cancellation(self):
        # a plain left-to-right sum gives 0.0 here
        lin = LinearMap(((1e16, 1.0, -1e16), (1.0, 1e16, -1e16)), parse_norm("l2", 3), L2)
        assert apply_map(lin, (1.0, 1.0, 1.0)) == (1.0, 1.0)


class TestOperatorNorm:
    def test_identity(self):
        lin = LinearMap(((1.0, 0.0), (0.0, 1.0)), L2, L2)
        got = operator_norm(lin, SampleConfig(seed=1, count=40))
        assert got.grade == "fine"
        assert abs(got.value - 1.0) <= 1e-9

    def test_diagonal_stretch(self):
        lin = LinearMap(((2.0, 0.0), (0.0, 1.0)), L2, L2)
        got = operator_norm(lin, SampleConfig(seed=1, count=40))
        assert abs(got.value - 2.0) <= 1e-6
        # maximizing direction lines up with the stretched axis
        assert abs(abs(got.direction[0]) - 1.0) <= 1e-3

    def test_rotation_into_sup_norm(self):
        lin = LinearMap(_rotation(math.pi / 4), LINF, LINF)
        got = operator_norm(lin, SampleConfig(seed=1, count=40))
        assert abs(got.value - math.sqrt(2.0)) <= 1e-6

    def test_shear_golden_ratio(self):
        lin = LinearMap(((1.0, 1.0), (0.0, 1.0)), L2, L2)
        got = operator_norm(lin, SampleConfig(seed=1, count=40))
        want = (1.0 + math.sqrt(5.0)) / 2.0
        assert abs(got.value - want) <= 1e-6

    def test_scaling_multiplies_estimate(self):
        base = LinearMap(((1.0, 1.0), (0.0, 1.0)), L2, L2)
        scaled = LinearMap(((3.7, 3.7), (0.0, 3.7)), L2, L2)
        a = operator_norm(base, SampleConfig(seed=1, count=40))
        b = operator_norm(scaled, SampleConfig(seed=1, count=40))
        assert abs(b.value - 3.7 * a.value) <= 1e-9 * b.value

    def test_lower_estimate_from_witness(self):
        lin = LinearMap(((1.0, 0.4), (-0.3, 1.2)), L1, LINF)
        got = operator_norm(lin, SampleConfig(seed=2, count=40))
        x = got.direction
        ratio = eval_norm(LINF, apply_map(lin, x)) / eval_norm(L1, x)
        assert ratio <= got.value + 1e-12
        assert got.value <= ratio + 1e-9

    @pytest.mark.parametrize("matrix", [((1.0, 0.4), (-0.3, 1.2)),
                                        ((1.0, 0.5), (0.0, 1.0), (-0.3, 0.2))])
    def test_planar_value_is_gain_at_direction(self, matrix):
        cod = parse_norm("linf", len(matrix))
        lin = LinearMap(matrix, L1, cod)
        got = operator_norm(lin, SampleConfig(seed=2, count=40))
        assert got.grade == "fine"
        assert got.value == eval_norm(cod, apply_map(lin, got.direction))

    def test_dim3_coarse_grade(self):
        l2_3 = parse_norm("l2", 3)
        ident = LinearMap(
            ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), l2_3, l2_3
        )
        got = operator_norm(ident, SampleConfig(seed=1, count=30))
        assert got.grade == "coarse"
        assert abs(got.value - 1.0) <= 1e-12
        stretch = LinearMap(
            ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), l2_3, l2_3
        )
        got = operator_norm(stretch, SampleConfig(seed=1, count=30))
        assert 1.9 <= got.value <= 2.0 + 1e-9

    def test_zero_map_rejected(self):
        lin = LinearMap(((0.0, 0.0), (0.0, 0.0)), L2, L2)
        with pytest.raises(ValueError):
            operator_norm(lin, SampleConfig(seed=1, count=10))


class _Reference:
    """A Program whose circle, image and planar operator_norm are computed
    with Python's math, from its value, math.fsum row sums and
    operator_norm_reference, as references for the kernel's."""

    def __init__(self, prog):
        self._prog = prog

    def __getattr__(self, name):
        return getattr(self._prog, name)

    def circle(self, theta):
        return circle_reference(self._prog, theta)

    def image(self, matrix, x):
        return tuple([math.fsum(map(operator.mul, row, x)) for row in matrix])

    def operator_norm(self, circle, matrix):
        return operator_norm_reference(circle, self, matrix)


class _FailsNarrowly:
    """A Program whose residual and residuals for one relation are a fixed value."""

    def __init__(self, prog, tag, residual):
        self._prog = prog
        self._code = RELATION_TAGS.index(tag)
        self._residual = residual

    def __getattr__(self, name):
        return getattr(self._prog, name)

    def residual(self, code, a, b, u, v):
        if code == self._code:
            return self._residual
        return self._prog.residual(code, a, b, u, v)

    def residuals(self, code, a, b, u, resolution):
        if code == self._code:
            return [self._residual] * resolution
        return self._prog.residuals(code, a, b, u, resolution)


class _Counting:
    """A Program that counts the calls of each of its methods into calls."""

    def __init__(self, prog, calls):
        self._prog = prog
        self._calls = calls

    def __getattr__(self, name):
        method = getattr(self._prog, name)

        def call(*args):
            self._calls[name] += 1
            return method(*args)

        return call


def _hexed(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        return tuple(_hexed(o) for o in obj)
    return obj


@pytest.mark.parametrize("matrix, dom, cod", [
    (((1.0, 0.4), (-0.3, 1.2)), "l1", "linf"),
    (((1.0, 0.5), (0.0, 1.0), (-0.3, 0.2)), "lp(3)", "max(l1, l2)"),
    # three columns: the coarse path, where each image row sums three products
    (((0.7, -1.1, 0.2), (0.3, 0.9, -0.4)), "sum(l1, linf)", "l2"),
    (((1.0, 0.2, 0.0), (-0.5, 1.0, 0.3), (0.1, 0.1, 1.5)), "l2", "lp(1.5)"),
], ids=["2x2", "3x2", "2x3", "3x3"])
def test_map_paths_same_bits_on_both_backends(matrix, dom, cod, compiled_kernels,
                                              monkeypatch):
    lin = LinearMap(matrix, parse_norm(dom, len(matrix[0])), parse_norm(cod, len(matrix)))
    cfg = SampleConfig(seed=4, count=6)

    def run():
        get_program.cache_clear()
        return _hexed((operator_norm(lin, cfg), preserver_check(lin, AB, cfg)))

    results = []
    try:
        for mod in (compiled_kernels, _kernels_py):
            monkeypatch.setattr(normortho.kernels, "_impl", mod)
            results.append(run())
            with monkeypatch.context() as m:
                m.setattr(normortho.explorer, "get_program",
                          lambda ast: _Reference(get_program(ast)))
                results.append(run())
    finally:
        get_program.cache_clear()
    assert results[0][0][2] == ("fine" if len(matrix[0]) == 2 else "coarse")
    assert results[1:] == results[:1] * 3


# codomains of the 3 x 2 pins: the planar texts whose weights fit dim 3
_PINS_DIM3 = ("l1", "l2", "linf", "lp(3)", "lp(1.5)", "wlp(2; 1, 4, 2)", "max(l1, l2)",
              "sum(l1, linf)", "scale(0.7, l2)", "max(l2, scale(0.9, l1))")


def _pin_maps(i, dom):
    """n x 2 maps on the domain dom, to a codomain other than dom, at n = 2
    and 3, with entries of order 1 and near +-1e300."""
    rng = SplitMix64(300 + i)
    texts = FAMILIES + COMPOSITES
    maps = []
    for rows, cod in ((2, texts[(i + 1) % len(texts)]), (3, _PINS_DIM3[i % len(_PINS_DIM3)])):
        for scale in (1.0, 1e300):
            matrix = tuple(tuple(scale * rng.uniform(-2.0, 2.0) for _ in range(2))
                           for _ in range(rows))
            maps.append(LinearMap(matrix, parse_norm(dom, 2), parse_norm(cod, rows)))
    return maps


@BACKENDS
@pytest.mark.parametrize("i, dom", list(enumerate(FAMILIES + COMPOSITES)))
def test_planar_operator_norm_keeps_its_bits(package_backend, i, dom, monkeypatch):
    # the kernel's sweep against the plain-Python loop it replaced, also
    # through a proxy like the tracer's, which hands out the real circle
    cfg = SampleConfig(seed=1, count=1)
    for lin in _pin_maps(i, dom):
        want = operator_norm_reference(get_program(lin.domain_norm).circle,
                                       get_program(lin.codomain_norm), lin.matrix)
        assert abs(want[0]) < math.inf
        for wrap in (None, ProgramProxy):
            with monkeypatch.context() as m:
                if wrap is not None:
                    m.setattr(normortho.explorer, "get_program",
                              lambda ast, wrap=wrap: wrap(get_program(ast)))
                got = operator_norm(lin, cfg)
            assert got.grade == "fine"
            assert hexes((got.value, got.direction)) == hexes(want), (lin, wrap)


@BACKENDS
@pytest.mark.parametrize("wrap", [None, ProgramProxy])
def test_planar_operator_norm_errors_keep_their_place(package_backend, wrap, monkeypatch):
    if wrap is not None:
        monkeypatch.setattr(normortho.explorer, "get_program", lambda ast: wrap(get_program(ast)))
    cfg = SampleConfig(seed=1, count=1)
    with pytest.raises(ValueError, match="^operator norm of the zero map is trivially 0; "):
        operator_norm(LinearMap(((0.0, -0.0), (0.0, 0.0)), L2, L1), cfg)
    # a row whose exact sum overflows partway through the grid
    lin = LinearMap(((1.7e308, 1.7e308), (0.0, 1.0)), L2, L2)
    with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
        operator_norm_reference(get_program(L2).circle, get_program(L2), lin.matrix)
    with pytest.raises(ValueError, match="^the operator norm overflows at this scale$"):
        operator_norm(lin, cfg)


@BACKENDS
def test_overflowing_image_is_one_value_error(package_backend):
    # an image row whose exact sum overflows, in the planar sweep, the hill
    # climb and a single image
    planar = LinearMap(((1.7e308, 1.7e308), (0.0, 1.0)), L2, L2)
    l2_3 = parse_norm("l2", 3)
    spatial = LinearMap(((1.7e308, 1.7e308, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), l2_3, l2_3)
    for lin in (planar, spatial):
        with pytest.raises(ValueError, match="^the operator norm overflows at this scale$"):
            operator_norm(lin, SampleConfig(seed=1, count=5))
    with pytest.raises(ValueError, match="^the map's image overflows at this scale$"):
        apply_map(planar, (1, 1))
    assert apply_map(planar, (1.0, -1.0)) == (0.0, -1.0)


@BACKENDS
def test_non_finite_estimate_is_a_value_error(package_backend):
    # every image row sums exactly to a finite double, but an image norm
    # overflows: the planar sweep and the hill climb both found inf
    l1_3 = parse_norm("l1", 3)
    big = 1e308
    planar = LinearMap(((big, big), (big, big)), L1, L1)
    spatial = LinearMap(((big, big, big), (big, big, big), (0.0, 0.0, 1.0)), l1_3, l1_3)
    for lin, count in ((planar, 5), (spatial, 2)):
        assert _operator_norm(lin, SampleConfig(seed=1, count=count)).value == math.inf
        with pytest.raises(ValueError, match="^the operator norm overflows at this scale$"):
            operator_norm(lin, SampleConfig(seed=1, count=count))


class TestPreserverCheck:
    def test_rotation_preserves_euclidean_structure(self):
        lin = LinearMap(_rotation(0.7), L2, L2)
        got = preserver_check(lin, AB, SampleConfig(seed=1, count=400))
        assert got.orthogonality.passed
        assert got.norm_multiple.passed
        assert got.rho_scaling.passed
        assert got.all_pass

    def test_uniform_scaling_passes(self):
        lin = LinearMap(((2.0, 0.0), (0.0, 2.0)), L2, L2)
        got = preserver_check(lin, AB, SampleConfig(seed=1, count=400))
        assert got.all_pass
        assert abs(got.operator_norm.value - 2.0) <= 1e-9

    def test_shear_fails_every_condition(self):
        lin = LinearMap(((1.0, 1.0), (0.0, 1.0)), L2, L2)
        got = preserver_check(lin, AB, SampleConfig(seed=1, count=400))
        assert not got.orthogonality.passed
        assert not got.norm_multiple.passed
        assert not got.rho_scaling.passed
        assert not got.all_pass
        opn = got.operator_norm.value

        # each reported witness replays outside the tolerance
        u, w = got.orthogonality.witness_u, got.orthogonality.witness_v
        assert abs(rho_ab(L2, u, w, AB)) <= 1e-9
        tu, tw = apply_map(lin, u), apply_map(lin, w)
        defect = abs(rho_ab(L2, tu, tw, AB)) / (
            eval_norm(L2, tu) * eval_norm(L2, tw)
        )
        assert defect > got.orthogonality.tol
        assert defect == pytest.approx(got.orthogonality.worst, rel=1e-12)

        x = got.norm_multiple.witness_u
        dev = abs(eval_norm(L2, apply_map(lin, x)) - opn) / opn
        assert dev > got.norm_multiple.tol

        u, v = got.rho_scaling.witness_u, got.rho_scaling.witness_v
        lhs = rho_ab(L2, apply_map(lin, u), apply_map(lin, v), AB)
        rhs = opn * opn * rho_ab(L2, u, v, AB)
        denom = AB.total * opn * opn * eval_norm(L2, u) * eval_norm(L2, v)
        assert abs(lhs - rhs) / denom > got.rho_scaling.tol

    @pytest.mark.parametrize("scale", [1e-150, 1e-7, 1.0, 1e100])
    def test_verdicts_do_not_depend_on_scale(self, scale):
        # the skip floor is relative to scale^2: at small scales an absolute
        # floor skipped every sample and the shear passed vacuously
        ab = AlphaBeta(0.3, 0.5)
        cfg = SampleConfig(seed=3, count=200, scale=scale)
        shear = LinearMap(((1.0, 0.7), (0.0, 1.0)), L2, L2)
        got = preserver_check(shear, ab, cfg)
        ref = preserver_check(shear, ab, SampleConfig(seed=3, count=200))
        assert not got.orthogonality.passed
        assert not got.rho_scaling.passed
        assert got.orthogonality.worst == pytest.approx(ref.orthogonality.worst, rel=1e-9)
        assert got.rho_scaling.worst == pytest.approx(ref.rho_scaling.worst, rel=1e-9)
        assert preserver_check(LinearMap(_rotation(0.7), L2, L2), ab, cfg).all_pass
        assert preserver_check(LinearMap(((0.0, -1.0), (1.0, 0.0)), L1, L1), ab, cfg).all_pass

    @BACKENDS
    @pytest.mark.parametrize("opn", [math.inf, 1e200], ids=["norm-multiple", "rho-scaling"])
    def test_nan_ratio_raises_in_every_condition(self, package_backend, opn, monkeypatch):
        # an operator norm of inf makes condition 2's deviation inf / inf;
        # one of 1e200 leaves it finite but overflows condition 3's
        # norm(T)^2, so its ratio is inf / inf.  Condition 1 reads no
        # operator norm and passes.
        monkeypatch.setattr(normortho.explorer, "_operator_norm",
                            lambda lin, cfg: OperatorNormEstimate(opn, (1.0, 0.0), "fine"))
        with pytest.raises(ValueError, match="^the preserver check overflows at this scale$"):
            preserver_check(LinearMap(_rotation(0.7), L2, L2), AB, SampleConfig(seed=1, count=20))

    def test_singular_map_fails_norm_multiple(self):
        lin = LinearMap(((1.0, 0.0), (0.0, 0.0)), L2, L2)
        got = preserver_check(lin, AB, SampleConfig(seed=1, count=400))
        assert not got.norm_multiple.passed
        # kernel direction collapses, giving a near-total deviation
        assert got.norm_multiple.worst > 0.5

    def test_deterministic(self):
        lin = LinearMap(_rotation(0.3), L2, L2)
        a = preserver_check(lin, AB, SampleConfig(seed=9, count=200))
        b = preserver_check(lin, AB, SampleConfig(seed=9, count=200))
        assert a == b

    def test_zero_u_redrawn_and_floor_samples_skipped(self, monkeypatch):
        # T projects onto the first axis.  Condition 1 redraws the zero u,
        # then skips u = e1, whose orthogonal partner w = e2 maps to 0; the
        # next pair u = (1, 1), v = e2 gives w = (-1/2, 1/2) and the ratio
        # 0.3 / (1 * 1/2).  Condition 3 skips the zero u, then u = (1, 1),
        # v = e2 gives |0 - 0.6| / (0.6 sqrt 2).  Without the redraw and the
        # skips, each would divide by zero.
        root = ScriptedDraws(substreams={
            1: ScriptedDraws([(0.0, 0.0), (5.0, 5.0), (1.0, 0.0), (0.0, 1.0),
                              (1.0, 1.0), (0.0, 1.0)]),
            2: SplitMix64(2),
            3: ScriptedDraws([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
        })
        monkeypatch.setattr(normortho.explorer, "SplitMix64",
                            lambda seed: root if seed == 1 else SplitMix64(seed))
        lin = LinearMap(((1.0, 0.0), (0.0, 0.0)), L2, L2)
        got = preserver_check(lin, AB, SampleConfig(seed=1, count=2))
        assert got.orthogonality.worst == pytest.approx(0.6, rel=1e-12)
        assert got.orthogonality.witness_u == (1.0, 1.0)
        assert got.orthogonality.witness_v == pytest.approx((-0.5, 0.5), rel=1e-12)
        assert got.rho_scaling.worst == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert (got.rho_scaling.witness_u, got.rho_scaling.witness_v) == ((1.0, 1.0), (0.0, 1.0))

    @BACKENDS
    @pytest.mark.parametrize("dom", ["l1", "l2", "linf", "max(l2, scale(0.9, l1))"])
    @pytest.mark.parametrize("matrix", [
        ((1.0, 0.4), (-0.3, 1.2)),
        ((1.0, 0.2, 0.0), (-0.5, 1.0, 0.3), (0.1, 0.1, 1.5)),
    ], ids=["2x2", "3x3"])
    def test_norm_multiple_draws_what_sphere_sample_drew(self, package_backend, dom, matrix,
                                                          monkeypatch):
        # condition 2 as it ran through the public sampler: a SampleConfig
        # seeded from substream 2, and sphere_sample over it.  It reads only
        # the operator norm's value, so a fixed one stands in for the
        # hill climb a 3x3 map would run.
        opn = 1.5
        monkeypatch.setattr(normortho.explorer, "_operator_norm",
                            lambda lin, cfg: OperatorNormEstimate(opn, None, "coarse"))
        dim = len(matrix)
        lin = LinearMap(matrix, parse_norm(dom, dim), parse_norm("lp(3)", dim))
        cod = get_program(lin.codomain_norm)
        for count in (1, 7, 200):
            for seed in (0, 5):
                got = preserver_check(lin, AB, SampleConfig(seed=seed, count=count))
                root = package_backend.SplitMix64(seed)
                spread = SampleConfig(seed=root.substream(2).next_u64(), count=count)
                worst, wit = 0.0, None
                for x in sphere_sample(lin.domain_norm, spread):
                    dev = abs(cod.value(cod.image(lin.matrix, x)) - opn) / opn
                    if dev > worst:
                        worst, wit = dev, x
                assert wit is not None
                assert hexes((got.norm_multiple.worst, got.norm_multiple.witness_u)) == \
                    hexes((worst, wit)), (count, seed)

    @BACKENDS
    def test_norm_multiple_holds_no_sample_list(self, package_backend):
        lin = LinearMap(((1.0, 0.4), (-0.3, 1.2)), L2, L2)
        preserver_check(lin, AB, SampleConfig(seed=1, count=10))  # fills the program cache
        peaks = []
        for count in (1000, 10000):
            tracemalloc.start()
            try:
                preserver_check(lin, AB, SampleConfig(seed=1, count=count))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 100_000, peaks


class TestMineIncomparability:
    def test_rho_minus_does_not_imply_rho_ab_on_l1(self):
        report = mine_incomparability(
            L1,
            Relation("rho_minus"),
            Relation("rho_ab", ab=AlphaBeta(0.3, 0.4)),
            SampleConfig(seed=1, count=400),
        )
        assert report.witness_ab is not None
        u, v = report.witness_ab
        assert is_orthogonal(Relation("rho_minus"), L1, u, v, tol=1e-7).holds
        resid = relation_residual(
            Relation("rho_ab", ab=AlphaBeta(0.3, 0.4)), L1, u, v
        )
        assert abs(resid) > 1e-5

    def test_rho_ab_splits_from_rho_at_sup_corners(self):
        report = mine_incomparability(
            LINF,
            Relation("rho_ab", ab=AlphaBeta(0.3, 0.4)),
            Relation("rho"),
            SampleConfig(seed=1, count=400),
        )
        assert report.witness_ab is not None or report.witness_ba is not None

    def test_euclidean_relations_coincide(self):
        report = mine_incomparability(
            L2,
            Relation("birkhoff"),
            Relation("rho_ab", ab=AB),
            SampleConfig(seed=1, count=300),
        )
        assert report.witness_ab is None
        assert report.witness_ba is None
        assert report.budget_used <= report.budget

    def test_witnesses_replay(self):
        rel_a = Relation("birkhoff")
        rel_b = Relation("rho_ab", ab=AlphaBeta(0.2, 0.5))
        report = mine_incomparability(LINF, rel_a, rel_b, SampleConfig(seed=4, count=400))
        for pair, hold_rel, fail_rel in (
            (report.witness_ab, rel_a, rel_b),
            (report.witness_ba, rel_b, rel_a),
        ):
            if pair is None:
                continue
            u, v = pair
            assert is_orthogonal(hold_rel, LINF, u, v, tol=1e-7).holds
            assert not is_orthogonal(fail_rel, LINF, u, v, tol=1e-7).holds

    def test_deterministic(self):
        args = (
            LINF,
            Relation("rho_ab", ab=AlphaBeta(0.3, 0.4)),
            Relation("rho"),
            SampleConfig(seed=12, count=300),
        )
        assert mine_incomparability(*args) == mine_incomparability(*args)

    def test_narrow_failures_are_discarded(self, monkeypatch):
        # isosceles reads 5 tol everywhere: it fails the tolerance at every
        # rho crossing, but not by the 100 tol margin, so each of the four
        # candidates the first half of the budget buys is discarded; the
        # constant residual has no crossing, so each base of the reverse
        # search costs one unit and yields nothing
        tol = 1e-7
        monkeypatch.setattr(normortho.explorer, "get_program",
                            lambda ast: _FailsNarrowly(get_program(ast), "isosceles", 5 * tol))
        report = mine_incomparability(L2, Relation("rho"), Relation("isosceles"),
                                      SampleConfig(seed=1, count=8), tol=tol)
        assert (report.witness_ab, report.witness_ba) == (None, None)
        assert (report.budget_used, report.discarded) == (8, 4)

    @BACKENDS
    @pytest.mark.parametrize("rel_a, rel_b", [("birkhoff", "rho"), ("rho", "isosceles")])
    def test_scan_takes_one_residuals_call_per_base(self, rel_a, rel_b, package_backend,
                                                    monkeypatch):
        # each base is scanned by one residuals call on the Program's ring,
        # circle is called only at the k crossings, and residual only by
        # the verdicts on the k candidates, each at its one circle point
        calls = collections.Counter()
        monkeypatch.setattr(normortho.explorer, "get_program",
                            lambda ast: _Counting(get_program(ast), calls))
        verdict = normortho.explorer._verdict
        verdicts = []

        def counting(*args):
            verdicts.append(args)
            return verdict(*args)

        monkeypatch.setattr(normortho.explorer, "_verdict", counting)
        mine_incomparability(LINF, Relation(rel_a), Relation(rel_b),
                             SampleConfig(seed=3, count=12))
        k = calls["crossing"]
        assert k > 0
        assert calls["circle"] == k
        assert calls["residual"] == len(verdicts) >= k
        assert calls["residuals"] >= 2

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            mine_incomparability(LINF, Relation("birkhoff"), Relation("rho"),
                                 SampleConfig(seed=1, count=10), tol=tol)

    def test_dim3_rejected(self):
        with pytest.raises(DimensionMismatchError):
            mine_incomparability(
                parse_norm("l2", 3),
                Relation("birkhoff"),
                Relation("rho"),
                SampleConfig(seed=1, count=10),
            )


def _reference_search_direction(prog, rel_hold, rel_test, rng, budget, tol):
    """explorer._search_direction as it scanned a base before it walked
    zipped pairs: index by index, the last point's neighbour wrapped with
    % _SCAN and the budget checked at every point.  What the scan must
    equal, witness, budget used and discards alike."""
    ex = normortho.explorer
    used = 0
    discarded = 0
    hold_args = rel_hold._residual_args
    draw = functools.partial(rng.vector, 2, -1.0, 1.0)
    for base in chain(corner_vectors(2), iter(draw, None)):
        if used >= budget:
            break
        u = ex._normalized(prog, base)
        if u is None:
            continue
        residuals = prog.residuals(*hold_args, u, ex._SCAN)
        found_candidate = False
        for j in range(ex._SCAN):
            if used >= budget:
                break
            r0 = residuals[j]
            r1 = residuals[(j + 1) % ex._SCAN]
            if r0 != 0.0 and r1 != 0.0 and (r0 > 0.0) == (r1 > 0.0):
                continue
            lo = j * ex._STEP
            theta = prog.crossing(*hold_args, u, lo, r0, lo + ex._STEP, 1e-12)
            v = prog.circle(theta)
            found_candidate = True
            used += 1
            if not ex._verdict(rel_hold, prog, u, v, tol).holds:
                discarded += 1
                continue
            verdict = ex._verdict(rel_test, prog, u, v, tol)
            if verdict.holds:
                continue
            if ex._violation(rel_test, verdict.residual) > 100.0 * tol:
                return (u, v), used, discarded
            discarded += 1
        if not found_candidate:
            used += 1
    return None, used, discarded


@BACKENDS
@pytest.mark.parametrize("norm, hold, test, zero_ends, witness", [
    # corner scans with no crossing, then a witness on the second candidate
    ("l1", "birkhoff", "rho", False, True),
    # exact-zero grid points at some corner bases, and discarded candidates
    ("linf", "rho", "birkhoff", True, False),
    ("max(l1, l2)", "isosceles", "rho", True, False),
    # exact zeros at the diagonal corners
    ("l2", "birkhoff", "rho", True, False),
    ("l1", "rho_minus", "rho_ab", False, True),
])
def test_mining_scan_matches_the_per_index_loop(package_backend, norm, hold, test,
                                                zero_ends, witness):
    # budgets 1-8 run out partway through a base's scan of up to 4 candidates
    prog = get_program(parse_norm(norm, 2))
    rel_hold = Relation(hold, ab=AlphaBeta(0.3, 0.4)) if hold == "rho_ab" else Relation(hold)
    rel_test = Relation(test, ab=AlphaBeta(0.3, 0.4)) if test == "rho_ab" else Relation(test)
    grids = [prog.residuals(*rel_hold._residual_args, normortho.explorer._normalized(prog, c),
                            normortho.explorer._SCAN) for c in corner_vectors(2)]
    assert any(0.0 in grid for grid in grids) == zero_ends
    found = discarded = False
    for budget in range(1, 9):
        for seed in (1, 2):
            rngs = SplitMix64(seed), SplitMix64(seed)
            got = normortho.explorer._search_direction(prog, rel_hold, rel_test, rngs[0],
                                                       budget, 1e-7)
            want = _reference_search_direction(prog, rel_hold, rel_test, rngs[1], budget, 1e-7)
            assert hexes(got) == hexes(want), (budget, seed)
            # the random bases drawn are the same too
            assert rngs[0].next_u64() == rngs[1].next_u64()
            found |= got[0] is not None
            discarded |= got[2] > 0
    assert found == witness
    assert discarded == (norm in ("linf", "max(l1, l2)"))
