"""One-sided derivative functionals: fixed values and structural laws."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import normortho.derivs
from normortho import (
    AlphaBeta,
    Lambda,
    NonSmoothPointError,
    SplitMix64,
    ZeroVectorError,
    dir_deriv_exact,
    eval_norm,
    norm_on_line,
    parse_norm,
    random_vector,
    rho,
    rho_ab,
    rho_lambda,
    rho_pair,
    rho_pm,
    rho_pm_numeric,
    sip,
)

from conftest import FAMILIES, SMOOTH_FAMILIES, ProgramProxy

L1 = parse_norm("l1", 2)
L2 = parse_norm("l2", 2)
LINF = parse_norm("linf", 2)
LP3 = parse_norm("lp(3)", 2)


def _asts():
    return [parse_norm(f, 2) for f in FAMILIES]


class TestFixedValues:
    def test_linf_corner_both_sides(self):
        u, v = (1.0, 1.0), (1.0, -1.0)
        assert rho_pm(LINF, u, v, "plus").value == 1.0
        assert rho_pm(LINF, u, v, "minus").value == -1.0

    def test_linf_corner_ab_combination(self):
        u, v = (1.0, 1.0), (1.0, -1.0)
        got = rho_ab(LINF, u, v, AlphaBeta(0.5, 1.0 / 3.0))
        assert abs(got - (-1.0 / 6.0)) <= 1e-15

    def test_linf_annihilating_direction(self):
        # v = (-1/(2 alpha), 1/(2 beta)) makes the two sides cancel exactly.
        for alpha, beta in [(0.3, 0.4), (0.1, 0.2), (0.45, 0.45)]:
            v = (-1.0 / (2.0 * alpha), 1.0 / (2.0 * beta))
            got = rho_ab(LINF, (1.0, 1.0), v, AlphaBeta(alpha, beta))
            assert abs(got) <= 1e-12

    def test_l1_smooth_point(self):
        u = (1.0, 0.0)
        rm, rp = rho_pair(L1, u, (1.0, 1.0))
        assert (rm, rp) == (0.0, 2.0)
        rm, rp = rho_pair(L1, u, (-1.0, 1.0))
        assert (rm, rp) == (-2.0, 0.0)

    def test_l1_axis_direction(self):
        u, v = (1.0, 0.0), (0.0, 2.0)
        rm, rp = rho_pair(L1, u, v)
        assert (rm, rp) == (-2.0, 2.0)
        assert rho(L1, u, v) == 0.0

    def test_lp3_value(self):
        got = rho_pm(LP3, (1.0, 1.0), (1.0, 0.0), "plus")
        assert got.method == "exact"
        assert got.enclosure_width == 0.0
        assert abs(got.value - 2.0 ** (-1.0 / 3.0)) <= 1e-14

    def test_lp3_against_difference_quotient(self):
        u, v = (1.0, 1.0), (1.0, 0.0)
        phi = norm_on_line(LP3, u, v)
        nu = eval_norm(LP3, u)
        h = 1e-7
        quotient = nu * (phi(h) - phi(0.0)) / h
        got = rho_pm(LP3, u, v, "plus").value
        assert abs(got - quotient) <= 1e-6

    def test_zero_base_point(self):
        for ast in _asts():
            assert rho_pm(ast, (0.0, 0.0), (1.0, 2.0), "plus").value == 0.0
            assert rho_pm(ast, (0.0, 0.0), (1.0, 2.0), "minus").value == 0.0

    def test_dir_deriv_at_zero_is_signed_norm(self):
        v = (3.0, -1.0)
        for ast in _asts():
            nv = eval_norm(ast, v)
            assert dir_deriv_exact(ast, (0.0, 0.0), v, "plus") == nv
            assert dir_deriv_exact(ast, (0.0, 0.0), v, "minus") == -nv

    def test_euclidean_collapses_to_inner_product(self):
        rng = SplitMix64(21)
        for _ in range(300):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            if eval_norm(L2, u) == 0.0:
                continue
            dot = u[0] * v[0] + u[1] * v[1]
            rm, rp = rho_pair(L2, u, v)
            assert abs(rm - dot) <= 1e-10
            assert abs(rp - dot) <= 1e-10

    def test_side_argument_validated(self):
        with pytest.raises(ValueError):
            rho_pm(L2, (1.0, 0.0), (0.0, 1.0), "up")
        with pytest.raises(ValueError):
            dir_deriv_exact(L2, (1.0, 0.0), (0.0, 1.0), "")


class TestParameterValidation:
    @pytest.mark.parametrize(
        "alpha,beta",
        [(0.0, 0.0), (0.5, 0.5), (-0.1, 0.3), (0.3, -0.1), (1.0, 0.0), (0.6, 0.5),
         ("0.3", 0.4)],
    )
    def test_alpha_beta_rejects(self, alpha, beta):
        with pytest.raises(ValueError):
            AlphaBeta(alpha, beta)

    def test_alpha_beta_boundary_allowed(self):
        # One coefficient may vanish as long as the sum stays in (0, 1).
        assert AlphaBeta(0.0, 0.5).total == 0.5
        assert AlphaBeta(0.5, 0.0).total == 0.5

    def test_alpha_beta_swapped(self):
        ab = AlphaBeta(0.2, 0.7)
        assert ab.swapped == AlphaBeta(0.7, 0.2)

    @pytest.mark.parametrize("lam", [-0.01, 1.01, math.nan])
    def test_lambda_rejects(self, lam):
        with pytest.raises(ValueError):
            Lambda(lam)

    def test_lambda_endpoints_allowed(self):
        u, v = (1.0, 1.0), (1.0, -1.0)
        assert rho_lambda(LINF, u, v, Lambda(1.0)) == -1.0
        assert rho_lambda(LINF, u, v, Lambda(0.0)) == 1.0
        assert rho_lambda(LINF, u, v, Lambda(0.5)) == rho(LINF, u, v)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_alpha_beta_domain_law(self, alpha, beta):
        valid = 0 <= alpha < 1 and 0 <= beta < 1 and 0 < alpha + beta < 1
        try:
            ab = AlphaBeta(alpha, beta)
        except ValueError:
            assert not valid
        else:
            assert valid
            assert ab.total == alpha + beta


class TestStructuralLaws:
    """The algebraic identities satisfied by rho_ab for every norm."""

    def test_diagonal_value(self):
        ab = AlphaBeta(0.25, 0.35)
        rng = SplitMix64(31)
        for ast in _asts():
            for _ in range(100):
                u = random_vector(rng, 2, 2.0)
                nu = eval_norm(ast, u)
                want = ab.total * nu * nu
                got = rho_ab(ast, u, u, ab)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_nonnegative_homogeneity_both_slots(self):
        ab = AlphaBeta(0.3, 0.4)
        rng = SplitMix64(32)
        for ast in _asts():
            for _ in range(100):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                s = rng.uniform(0.0, 3.0)
                t = rng.uniform(0.0, 3.0)
                want = s * t * rho_ab(ast, u, v, ab)
                got = rho_ab(ast, (s * u[0], s * u[1]), (t * v[0], t * v[1]), ab)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_negative_scaling_swaps_coefficients(self):
        ab = AlphaBeta(0.2, 0.55)
        rng = SplitMix64(33)
        for ast in _asts():
            for _ in range(100):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                t = -rng.uniform(0.1, 3.0)
                want = t * rho_ab(ast, u, v, ab.swapped)
                got = rho_ab(ast, u, (t * v[0], t * v[1]), ab)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_shift_along_base_vector(self):
        ab = AlphaBeta(0.45, 0.1)
        rng = SplitMix64(34)
        for ast in _asts():
            for _ in range(100):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                t = rng.uniform(-5.0, 5.0)
                nu = eval_norm(ast, u)
                want = ab.total * t * nu * nu + rho_ab(ast, u, v, ab)
                got = rho_ab(ast, u, (t * u[0] + v[0], t * u[1] + v[1]), ab)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_cauchy_schwarz_style_bound(self):
        ab = AlphaBeta(0.3, 0.3)
        rng = SplitMix64(35)
        for ast in _asts():
            for _ in range(100):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                bound = ab.total * eval_norm(ast, u) * eval_norm(ast, v)
                assert abs(rho_ab(ast, u, v, ab)) <= bound + 1e-10

    def test_side_order(self):
        rng = SplitMix64(36)
        for ast in _asts():
            for _ in range(200):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                rm, rp = rho_pair(ast, u, v)
                assert rm <= rp + 1e-15

    def test_rho_is_midpoint(self):
        rng = SplitMix64(37)
        for ast in (L1, LINF, LP3):
            for _ in range(100):
                u = random_vector(rng, 2, 2.0)
                v = random_vector(rng, 2, 2.0)
                rm, rp = rho_pair(ast, u, v)
                assert math.isclose(
                    rho(ast, u, v), 0.5 * (rm + rp), rel_tol=1e-15, abs_tol=1e-15
                )


@pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
def test_blends_round_as_their_formulas(package_backend):
    """rho, rho_lambda and rho_ab give the bits of their formulas applied
    to rho_pair's values, down to signed zeros, overflow and NaN."""
    ab, lam = AlphaBeta(0.3, 0.4), Lambda(0.3)
    rng = SplitMix64(41)
    vecs = [(1.0, 0.0), (1.0, 1.0), (0.0, -1.0), (0.0, 0.0)]
    vecs += [random_vector(rng, 2, 2.0) for _ in range(6)]
    for ast in _asts():
        for s in (1e-300, 1.0, 1e300):
            for u in vecs:
                su = tuple([s * c for c in u])
                for v in vecs:
                    sv = tuple([s * c for c in v])
                    rm, rp = rho_pair(ast, su, sv)
                    assert rho(ast, su, sv).hex() == ((rm + rp) / 2.0).hex()
                    assert (rho_lambda(ast, su, sv, lam).hex()
                            == (lam.lam * rm + (1.0 - lam.lam) * rp).hex())
                    assert (rho_ab(ast, su, sv, ab).hex()
                            == (ab.alpha * rm + ab.beta * rp).hex())


class TestNumericEnclosure:
    def test_l2_plus(self):
        got = rho_pm_numeric(L2, (1.0, 1.0), (1.0, 0.0), "plus", tol=1e-8)
        assert got.method == "numeric"
        assert abs(got.value - 1.0) <= 1e-6
        assert got.enclosure_width <= 1e-6

    def test_linf_minus_contains_exact(self):
        got = rho_pm_numeric(LINF, (1.0, 1.0), (1.0, -1.0), "minus", tol=1e-7)
        # enclosure convention: [value - width, value + width]
        assert got.value - got.enclosure_width <= -1.0 <= got.value + got.enclosure_width

    def test_lp3_contains_exact(self):
        exact = rho_pm(LP3, (1.0, 1.0), (1.0, 0.0), "plus").value
        got = rho_pm_numeric(LP3, (1.0, 1.0), (1.0, 0.0), "plus", tol=1e-7)
        w = got.enclosure_width
        assert got.value - w <= exact <= got.value + w

    @pytest.mark.parametrize("family", FAMILIES)
    def test_containment_random(self, family):
        ast = parse_norm(family, 2)
        rng = SplitMix64(41)
        for _ in range(60):
            u = random_vector(rng, 2, 1.5)
            v = random_vector(rng, 2, 1.5)
            if eval_norm(ast, u) < 1e-6 or eval_norm(ast, v) < 1e-6:
                continue
            for side in ("plus", "minus"):
                exact = rho_pm(ast, u, v, side).value
                got = rho_pm_numeric(ast, u, v, side, tol=1e-7)
                w = got.enclosure_width
                assert got.value - w <= exact <= got.value + w

    @pytest.mark.parametrize("family", SMOOTH_FAMILIES)
    def test_smooth_widths_small(self, family):
        ast = parse_norm(family, 2)
        rng = SplitMix64(42)
        for _ in range(40):
            u = random_vector(rng, 2, 1.5)
            v = random_vector(rng, 2, 1.5)
            if eval_norm(ast, u) < 0.05 or eval_norm(ast, v) < 0.05:
                continue
            got = rho_pm_numeric(ast, u, v, "plus", tol=1e-7)
            assert got.enclosure_width <= 1e-6

    def test_zero_base_point(self):
        got = rho_pm_numeric(L2, (0.0, 0.0), (1.0, 0.0), "plus", tol=1e-8)
        assert got.value == 0.0
        assert got.enclosure_width == 0.0

    @pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)
    def test_ladder_stops_at_its_floor(self, package_backend, monkeypatch):
        # no quotient change gets below this tolerance, so t halves down to
        # the 1e-14 floor; at a tiny u the quotients still move there
        steps = []

        class Recording(ProgramProxy):
            def line_evaluator(self, u, v):
                phi = self._prog.line_evaluator(u, v)

                def recorded(t):
                    steps.append(abs(t))
                    return phi(t)
                return recorded

        real = normortho.derivs.get_program
        monkeypatch.setattr(normortho.derivs, "get_program", lambda ast: Recording(real(ast)))
        got = rho_pm_numeric(parse_norm("lp(1.5)", 2), (1e-6, 0.0), (0.0, 1.0), "plus", 1e-300)
        assert 1e-14 <= min(steps) < 2e-14
        # rho_+ is exactly 0 here, and the enclosure holds it
        assert got.value - got.enclosure_width <= 0.0 <= got.value + got.enclosure_width

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            rho_pm_numeric(L2, (1.0, 0.0), (0.0, 1.0), "plus", tol=0.0)


class TestSip:
    def test_euclidean(self):
        assert abs(sip(L2, (1.0, 0.0), (1.0, 1.0)) - 1.0) <= 1e-12

    def test_lp3_diagonal(self):
        got = sip(LP3, (1.0, 1.0), (1.0, 1.0))
        assert abs(got - 2.0 ** (2.0 / 3.0)) <= 1e-12

    @pytest.mark.parametrize("s", [1e-300, 1e-13, 1.0, 1e300])
    def test_corner_raises(self, s):
        # rho_pm scale with u, so the smoothness band must be relative
        with pytest.raises(NonSmoothPointError):
            sip(LINF, (1.0, -1.0), (s, s))

    def test_zero_second_argument_raises(self):
        with pytest.raises(ZeroVectorError):
            sip(L2, (1.0, 0.0), (0.0, 0.0))

    def test_homogeneous_in_first_slot(self):
        rng = SplitMix64(51)
        for _ in range(100):
            u = random_vector(rng, 2, 2.0)
            v = random_vector(rng, 2, 2.0)
            if eval_norm(L2, u) < 1e-6:
                continue
            t = rng.uniform(-3.0, 3.0)
            want = t * sip(LP3, v, u)
            got = sip(LP3, (t * v[0], t * v[1]), u)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestZeroVectorGuards:
    def test_rho_v_zero(self):
        for ast in _asts():
            assert rho_pair(ast, (1.0, 1.0), (0.0, 0.0)) == (0.0, 0.0)
