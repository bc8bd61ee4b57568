"""Command-line interface tests: exit codes, schemas, determinism."""

import contextlib
import csv
import errno
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normortho import LocusPoint, Relation, cli, ortho_locus, parse_norm
from normortho.cli import run
from normortho.kernels import get_program

from make_cli_golden import corpus, equals_spelling

BACKENDS = pytest.mark.parametrize("backend", ["_kernels_py", "_kernels"], indirect=True)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = _run(capsys, "rho", "--norm", "l2", "--u", "1,0", "--v", "0,1")
        assert code == 0
        assert out.endswith("\n")

    def test_unknown_command(self, capsys):
        assert _run(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert _run(capsys, "rho", "--norm", "l2", "--frob", "1")[0] == 2

    def test_missing_required_vector(self, capsys):
        code, _, err = _run(capsys, "rho", "--norm", "l2", "--u", "1,0")
        assert code == 2
        assert err == "normortho: --v is required for 'rho'\n"

    def test_norm_parse_error(self, capsys):
        code, _, err = _run(capsys, "rho", "--norm", "lp(0.5)", "--u", "1,0", "--v", "0,1")
        assert code == 2
        assert err == "normortho: lp exponent must be finite and > 1, got 0.5 (at offset 3)\n"

    @BACKENDS
    def test_subnormal_wlp_weight_exits_two(self, capsys, package_backend):
        # a subnormal weight can overflow the derivative's coefficients
        code, out, err = _run(capsys, "rho", "--norm", "wlp(40; 1e-320, 1)",
                              "--u", "1,0", "--v", "0,1")
        assert (code, out) == (2, "")
        assert err == ("normortho: wlp weights must be at least 2.2250738585072014e-308, "
                       "got 1e-320 (at offset 8)\n")

    def test_trailing_garbage_in_norm(self, capsys):
        code, _, err = _run(capsys, "audit", "--norm", "l1(")
        assert code == 2
        assert "offset" in err

    def test_bad_vector_literal(self, capsys):
        code, _, err = _run(capsys, "rho", "--norm", "l2", "--u", "1;0", "--v", "0,1")
        assert code == 2
        assert err.endswith(
            "normortho: error: argument --u: expected comma-separated numbers, got '1;0'\n"
        )

    @pytest.mark.parametrize("argv, flag, value", [
        (("--u", "nan,0", "--v", "0,1"), "--u", "nan"),
        (("--u", "1,0", "--v=1,inf"), "--v", "inf"),
    ], ids=["u-nan", "v-inf"])
    def test_non_finite_vector_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = _run(capsys, "rho", "--norm", "l2", *argv)
        assert code == 2
        assert out == ""
        assert err.endswith(
            f"normortho: error: argument {flag}: vector coordinates must be finite, "
            f"got {value}\n"
        )

    def test_domain_error_exits_one(self, capsys):
        code, _, err = _run(
            capsys, "angle", "--norm", "l2", "--u", "0,0", "--v", "1,0",
            "--alpha", "0.3", "--beta", "0.3",
        )
        assert code == 1
        assert err == "normortho: angle needs nonzero u and v\n"

    @pytest.mark.parametrize("argv", [
        ("angle", "--norm", "l2", "--u", "1e155,1e155", "--v=1e155,-1e155"),
        ("constant", "--norm", "l2", "--norm2", "l1", "--kind", "angular",
         "--scale", "1e300"),
        ("identity", "--kind", "quartic", "--norm", "linf", "--u", "1e78,0",
         "--v", "0,1e78"),
    ], ids=["angle", "constant", "identity"])
    def test_overflow_exits_one_with_one_line(self, capsys, argv):
        code, out, err = _run(capsys, *argv, "--alpha", "0.3", "--beta", "0.4")
        assert code == 1
        assert out == ""
        assert err.startswith("normortho: ") and err.count("\n") == 1
        assert "overflow" in err and "Traceback" not in err

    @BACKENDS
    @pytest.mark.parametrize("argv, name", [
        (("probe", "--kind", "symmetry", "--norm", "l1"), "the symmetry search"),
        (("probe", "--kind", "symmetry", "--norm", "l2"), "the symmetry search"),
        (("constant", "--kind", "equivalence", "--norm", "l1", "--norm2", "l2"),
         "the equivalence constant"),
    ], ids=["symmetry-l1", "symmetry-l2", "equivalence"])
    def test_nan_running_worst_exits_one_with_one_line(self, package_backend, capsys, argv,
                                                       name):
        # rho_ab overflows at this scale, and a NaN asymmetry or ratio, which
        # no comparison would keep, used to print Infinity, a pass or 0.0
        code, out, err = _run(capsys, *argv, "--alpha", "0.3", "--beta", "0.4",
                              "--samples", "300", "--scale", "1e200")
        assert (code, out) == (1, "")
        assert err == f"normortho: {name} overflows at this scale\n"

    @BACKENDS
    def test_infinite_running_worst_exits_one_with_one_line(self, package_backend, capsys):
        # an infinite asymmetry, met before any NaN one, used to print a
        # bare Infinity, which JSON does not allow, with exit 0
        code, out, err = _run(capsys, "probe", "--kind", "symmetry", "--norm", "l1",
                              "--alpha", "0.3", "--beta", "0.4", "--samples", "65",
                              "--seed", "1", "--scale", "2e154")
        assert (code, out) == (1, "")
        assert err == "normortho: the symmetry search overflows at this scale\n"

    @BACKENDS
    def test_overflowing_smoothness_probe_exits_one_with_one_line(self, package_backend, capsys):
        # 236 of the 300 gaps are NaN here, and the probe used to print a pass
        code, out, err = _run(capsys, "probe", "--kind", "smoothness", "--norm", "l2",
                              "--samples", "300", "--scale", "1e200")
        assert (code, out) == (1, "")
        assert err == "normortho: the smoothness probe overflows at this scale\n"

    @BACKENDS
    def test_overflowing_audit_exits_one_with_one_line(self, package_backend, capsys):
        # most samples overflow a homogeneity or triangle defect to NaN or
        # +inf, which no bound keeps, and the audit used to report 0
        # violations
        code, out, err = _run(capsys, "audit", "--norm", "l1", "--scale", "8e307",
                              "--samples", "50")
        assert (code, out) == (1, "")
        assert err == "normortho: the norm audit overflows at this scale\n"

    @BACKENDS
    @pytest.mark.parametrize("s", ["1e200", "1e-200"])
    def test_interval_at_far_scales_is_the_unit_interval(self, package_backend, capsys, s):
        # N(u)^2 used to overflow to a NaN interval at 1e200, which is not
        # JSON, and underflow to a ZeroDivisionError at 1e-200
        got = _run_json(capsys, "interval", "--norm", "linf", f"--u={s},{s}", f"--v={s},-{s}")
        assert (got["t_lo"], got["t_hi"], got["width"]) == (-1.0, 1.0, 2.0)

    @BACKENDS
    @pytest.mark.parametrize("argv, name", [
        (("angle", "--u=1e-170,0", "--v=0,1e-170"), "the angle"),
        (("constant", "--kind=angular", "--norm2=l1", "--scale=1e-170"), "the angle"),
        (("solve", "--u=1e-200,0", "--v=0,1e-200"), "the orthogonalizer"),
        (("preserver", "--matrix=0,-1;1,0", "--scale=1e-200"), "the orthogonalizer"),
        (("preserver", "--matrix=1e-10,0;0,1e-10", "--scale=1e-158"), "the preserver check"),
        (("preserver", "--matrix=1e-170,0;0,1e-170"), "the preserver check"),
        (("constant", "--kind=equivalence", "--norm2=l1", "--scale=1e-200"),
         "the equivalence constant"),
    ], ids=["angle", "angular", "solve", "preserver-pairs", "preserver-1", "preserver-3",
            "equivalence"])
    def test_underflowing_denominator_exits_one_with_one_line(self, package_backend, capsys,
                                                              argv, name):
        # a product of norms of nonzero vectors underflows to 0, and so does
        # the scale floor below which a sampler skips a sample: the division
        # used to end in a ZeroDivisionError traceback.  The two preserver
        # maps reach condition 1 past the orthogonalizer and condition 3
        code, out, err = _run(capsys, *argv, "--alpha=0.3", "--beta=0.4", "--samples=20")
        assert (code, out) == (1, "")
        assert err == f"normortho: {name} underflows at this scale\n"

    @pytest.mark.parametrize("argv", [
        ("rho", "--norm=--", "--u=1,0", "--v=0,1"),
        ("audit", "--dim=--"),
        ("preserver", "--matrix=--", "--alpha=0.3", "--beta=0.4"),
        ("rho", "--format=--", "--u=1,0", "--v=0,1"),
    ], ids=["norm", "dim", "matrix", "format"])
    def test_dash_dash_value_is_a_usage_error(self, capsys, argv):
        # argparse stores a --flag=-- value as [], past the flag's type and
        # choices: it used to reach a command and end in a traceback, or
        # print a table with exit 0
        code, out, err = _run(capsys, *argv)
        flag = argv[1].partition("=")[0]
        assert (code, out) == (2, "")
        assert err.startswith("usage: normortho ")
        assert err.endswith(f"normortho: error: argument {flag}: expected one argument\n")

    def test_corner_semi_relation_exits_one(self, capsys):
        code, _, err = _run(
            capsys, "ortho", "--norm", "linf", "--u", "1,1", "--v=1,-1",
            "--relation", "semi",
        )
        assert code == 1

    def test_dimension_mismatch_exits_one(self, capsys):
        code, _, _ = _run(
            capsys, "rho", "--norm", "l2", "--dim", "3", "--u", "1,0", "--v", "0,1"
        )
        assert code == 1

    def test_bad_alpha_beta_exits_two(self, capsys):
        code, _, _ = _run(
            capsys, "rho", "--norm", "l2", "--u", "1,0", "--v", "0,1",
            "--alpha", "0.6", "--beta", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("audit", "--norm", "l2", "--dim", "1"), "--dim must be at least 2"),
        (("ortho", "--norm", "l2", "--u", "1,0", "--v", "0,1", "--relation", "birkhoff",
          "--tol", "0"), "--tol must be positive and finite"),
        (("ortho", "--norm", "l2", "--u", "1,0", "--v", "0,1", "--relation", "birkhoff",
          "--tol", "nan"), "--tol must be positive and finite"),
        (("audit", "--norm", "l2", "--scale", "0"), "--scale must be positive and finite"),
        (("audit", "--norm", "l2", "--scale", "inf"), "--scale must be positive and finite"),
        (("audit", "--norm", "l2", "--scale", "1e308"),
         "--scale must be at most 8.988465674311579e+307"),
        (("audit", "--norm", "l2", "--seed", "-1"), "--seed must fit in 64 bits"),
        (("audit", "--norm", "l2", "--seed", "18446744073709551616"),
         "--seed must fit in 64 bits"),
        (("rho", "--norm", "l2", "--u", "1,0", "--v", "0,1", "--lambda", "1.5"),
         "lambda must lie in [0, 1], got 1.5"),
    ], ids=["dim-1", "tol-0", "tol-nan", "scale-0", "scale-inf", "scale-1e308",
            "seed-negative", "seed-2**64", "lambda-1.5"])
    def test_bad_flag_values_are_usage_errors(self, capsys, argv, message):
        assert _run(capsys, *argv) == (2, "", f"normortho: {message}\n")

    def test_nonpositive_samples_rejected(self, capsys):
        assert _run(capsys, "audit", "--norm", "l2", "--samples", "0")[0] == 2

    def test_low_resolution_rejected(self, capsys):
        code, _, _ = _run(
            capsys, "locus", "--norm", "l2", "--u", "1,0", "--relation", "rho",
            "--resolution", "4",
        )
        assert code == 2

    def test_removed_flags_are_usage_errors(self, capsys):
        for flag in (("--threads", "1"), ("--w", "1,0")):
            code, _, _ = _run(
                capsys, "rho", "--norm", "l2", "--u", "1,0", "--v", "0,1", *flag,
            )
            assert code == 2, flag

    @pytest.mark.parametrize("command", [
        ("rho", "--norm", "l2", "--u", "1,0", "--v", "0,1"),
        ("locus", "--norm", "l2", "--u", "1,0", "--relation", "rho", "--resolution", "8"),
    ])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, command):
        for target, reason in ((tmp_path / "missing" / "x.json", errno.ENOENT),
                               (tmp_path, errno.EISDIR)):
            code, out, err = _run(capsys, *command, "--out", str(target))
            assert code == 2
            assert out == ""
            assert err == f"normortho: cannot write {target}: {os.strerror(reason)}\n"
        assert list(tmp_path.iterdir()) == []


class TestRhoCommand:
    def test_exact_payload(self, capsys):
        got = _run_json(
            capsys, "rho", "--norm", "linf", "--u", "1,1", "--v=1,-1",
            "--alpha", "0.5", "--beta", "0.33333333333333331",
        )
        assert got["rho_minus"] == -1.0
        assert got["rho_plus"] == 1.0
        assert got["method"] == "exact"
        assert abs(got["rho_ab"] - (-1.0 / 6.0)) <= 1e-15

    def test_annihilating_direction(self, capsys):
        got = _run_json(
            capsys, "rho", "--norm", "linf", "--u", "1,1",
            "--v=-1.6666666666666667,1.25", "--alpha", "0.3", "--beta", "0.4",
        )
        assert got["rho_ab"] == 0.0

    def test_numeric_method_carries_widths(self, capsys):
        got = _run_json(
            capsys, "rho", "--norm", "l2", "--u", "1,1", "--v", "1,0",
            "--method", "numeric", "--tol", "1e-8",
        )
        assert got["method"] == "numeric"
        assert got["rho_plus_width"] <= 1e-6
        assert abs(got["rho_plus"] - 1.0) <= 1e-6

    def test_dim_inferred_from_vectors(self, capsys):
        got = _run_json(
            capsys, "rho", "--norm", "l1", "--u", "1,0,2", "--v", "0,1,1"
        )
        assert got["u"] == [1.0, 0.0, 2.0]

    def test_lambda_combination(self, capsys):
        got = _run_json(
            capsys, "rho", "--norm", "linf", "--u", "1,1", "--v=1,-1",
            "--lambda", "0.25",
        )
        assert got["rho_lambda"] == 0.5


class TestOrthoCommand:
    def test_birkhoff_holds(self, capsys):
        got = _run_json(
            capsys, "ortho", "--norm", "l2", "--u", "1,0", "--v", "0,1",
            "--relation", "birkhoff",
        )
        assert got["holds"] is True
        assert got["residual"] == 0.0

    def test_oracle_tag(self, capsys):
        got = _run_json(
            capsys, "ortho", "--norm", "linf", "--u", "1,1", "--v=1,-1",
            "--relation", "birkhoff_oracle", "--tol", "1e-7",
        )
        assert got["relation"] == "birkhoff_oracle"
        assert got["holds"] is True

    def test_oracle_tag_restricted_to_ortho(self, capsys):
        code, _, _ = _run(
            capsys, "locus", "--norm", "l2", "--u", "1,0",
            "--relation", "birkhoff_oracle",
        )
        assert code == 2

    def test_pythagorean_at_huge_scale_exits_zero(self, capsys):
        got = _run_json(
            capsys, "ortho", "--norm", "l2", "--u", "1e200,0", "--v", "0,1e200",
            "--relation", "pythagorean",
        )
        assert got["relation"] == "pythagorean"

    def test_relation_requires_parameters(self, capsys):
        code, _, err = _run(
            capsys, "ortho", "--norm", "l2", "--u", "1,0", "--v", "0,1",
            "--relation", "rho_ab",
        )
        assert code == 2
        assert "alpha" in err


class TestSolveCommand:
    def test_projection(self, capsys):
        got = _run_json(
            capsys, "solve", "--norm", "l2", "--u", "1,0", "--v", "1,1",
            "--alpha", "0.3", "--beta", "0.3",
        )
        assert got["s"] == -1.0
        assert got["w"] == [0.0, 1.0]
        assert got["birkhoff_holds"] is True

    def test_corner_shift(self, capsys):
        got = _run_json(
            capsys, "solve", "--norm", "linf", "--u", "1,1", "--v=1,-1",
            "--alpha", "0.5", "--beta", "0.33333333333333331",
        )
        assert abs(got["s"] - 0.2) <= 1e-15
        assert abs(got["rho_ab_residual"]) <= 1e-15


class TestIntervalCommand:
    def test_corner_interval(self, capsys):
        got = _run_json(capsys, "interval", "--norm", "linf", "--u", "1,1", "--v=1,-1")
        assert got["t_lo"] == -1.0
        assert got["t_hi"] == 1.0
        assert got["width"] == 2.0


class TestAngleCommand:
    def test_right_angle(self, capsys):
        got = _run_json(
            capsys, "angle", "--norm", "l2", "--u", "1,0", "--v", "0,1",
            "--alpha", "0.3", "--beta", "0.3",
        )
        assert abs(got["theta"] - math.pi / 2) <= 1e-12
        assert abs(got["degrees"] - 90.0) <= 1e-9


class TestProbeCommand:
    def test_default_kind_smoothness(self, capsys):
        got = _run_json(capsys, "probe", "--norm", "linf", "--samples", "50")
        assert got["kind"] == "smoothness"
        assert got["verdict"] == "witness-found"
        assert got["seed"] == 0
        assert got["budget"] == 50

    def test_convexity_kind(self, capsys):
        got = _run_json(
            capsys, "probe", "--norm", "lp(3)", "--kind", "convexity",
            "--samples", "200",
        )
        assert got["verdict"] == "pass"

    def test_symmetry_kind(self, capsys):
        got = _run_json(
            capsys, "probe", "--norm", "l1", "--kind", "symmetry",
            "--samples", "2000", "--alpha", "0.3", "--beta", "0.3",
        )
        assert got["verdict"] == "witness-found"
        assert got["diagnostic"] > 1e-3

    def test_bad_kind(self, capsys):
        assert _run(capsys, "probe", "--norm", "l2", "--kind", "roundness")[0] == 2


class TestIdentityCommand:
    def test_quartic_default(self, capsys):
        got = _run_json(
            capsys, "identity", "--norm", "linf", "--u", "1,1", "--v=1,-1",
            "--alpha", "0.3", "--beta", "0.4",
        )
        assert got["kind"] == "quartic"
        assert abs(got["residual"] - (-1.6)) <= 1e-12

    def test_symmetry_kind(self, capsys):
        got = _run_json(
            capsys, "identity", "--norm", "l1", "--u", "1,0", "--v", "1,1",
            "--alpha", "0.2", "--beta", "0.2", "--kind", "symmetry",
        )
        assert abs(got["residual"] - (-0.4)) <= 1e-15


class TestConstantCommand:
    def test_angular_between_euclidean_and_lp3(self, capsys):
        got = _run_json(
            capsys, "constant", "--norm", "l2", "--norm2", "lp(3)",
            "--alpha", "0.3", "--beta", "0.3", "--samples", "500", "--seed", "1",
        )
        assert got["kind"] == "angular"
        assert got["unbounded"] is False
        assert got["value"] >= 1.0

    def test_equivalence_kind(self, capsys):
        got = _run_json(
            capsys, "constant", "--norm", "l1", "--norm2", "linf",
            "--alpha", "0.3", "--beta", "0.3", "--samples", "2000",
            "--seed", "1", "--kind", "equivalence",
        )
        assert 0.0 < got["value"] <= 5.0


class TestPreserverCommand:
    def test_shear_fails(self, capsys):
        got = _run_json(
            capsys, "preserver", "--matrix", "1,1;0,1", "--norm", "l2",
            "--alpha", "0.3", "--beta", "0.3", "--samples", "200",
        )
        assert got["all_pass"] is False
        names = [c["name"] for c in got["conditions"]]
        assert names == ["orthogonality", "norm_multiple", "rho_scaling"]
        assert all(c["passed"] is False for c in got["conditions"])
        assert abs(got["operator_norm"]["value"] - (1 + math.sqrt(5)) / 2) <= 1e-6

    def test_rotation_passes(self, capsys):
        got = _run_json(
            capsys, "preserver", "--matrix", "0.707106781186547,-0.707106781186547;"
            "0.707106781186547,0.707106781186547", "--norm", "l2",
            "--alpha", "0.3", "--beta", "0.3", "--samples", "200",
        )
        assert got["all_pass"] is True

    @BACKENDS
    @pytest.mark.parametrize("matrix", ["1.7e308,1.7e308;0,1", "1.7e308,1.7e308,0;0,1,0;0,0,1"],
                             ids=["planar", "3x3"])
    def test_overflowing_image_exits_one_with_one_line(self, package_backend, capsys, matrix):
        # an image row's exact sum overflows, in the operator-norm sweep or
        # the hill climb
        code, out, err = _run(capsys, "preserver", "--matrix", matrix, "--alpha", "0.3",
                              "--beta", "0.4", "--samples", "5")
        assert (code, out) == (1, "")
        assert err == "normortho: the preserver check overflows at this scale\n"

    @BACKENDS
    @pytest.mark.parametrize("matrix, scale, norm", [
        ("1e308,1e308;0,1", "1.5", "l2"), ("1e308,1e308;1e308,1e308", "1", "l1")],
        ids=["planar-l2", "infinite-operator-norm"])
    def test_nan_ratio_exits_one_with_one_line(self, package_backend, capsys, matrix, scale,
                                               norm):
        # every row sums finitely, but an image norm, a functional or the
        # operator norm overflows and a condition's ratio is NaN, which no
        # comparison would keep
        code, out, err = _run(capsys, "preserver", "--matrix", matrix, "--alpha", "0.3",
                              "--beta", "0.4", "--samples", "5", "--scale", scale,
                              "--norm", norm)
        assert (code, out) == (1, "")
        assert err == "normortho: the preserver check overflows at this scale\n"

    def test_square_map_parses_its_norm_once(self, capsys, monkeypatch):
        # without --norm2 a square map's codomain is its domain, parsed once;
        # a non-square map's codomain, or --norm2's, is a second parse
        import normortho.cli as cli
        texts = []

        def counted(text, dim):
            texts.append((text, dim))
            return parse_norm(text, dim)

        monkeypatch.setattr(cli, "parse_norm", counted)
        argv = ("preserver", "--matrix", "1,1;0,1", "--alpha", "0.3", "--beta", "0.5",
                "--samples", "8", "--seed", "2")
        once = _run(capsys, *argv, "--norm", "linf")
        assert texts == [("linf", 2)]
        # the same bytes as with the codomain parsed apart
        assert _run(capsys, *argv, "--norm", "linf", "--norm2", "linf") == once
        assert once[0] == 0 and texts[1:] == [("linf", 2), ("linf", 2)]
        texts.clear()
        assert _run(capsys, "preserver", "--matrix", "1,1;0,1;1,0", "--norm", "l2",
                    "--alpha", "0.3", "--beta", "0.5", "--samples", "8")[0] == 0
        assert texts == [("l2", 2), ("l2", 3)]

    def test_bad_matrix_literal(self, capsys):
        assert _run(capsys, "preserver", "--matrix", "1,1;0", "--norm", "l2")[0] == 2

    def test_non_numeric_matrix_entry_is_usage_error(self, capsys):
        code, out, err = _run(capsys, "preserver", "--matrix", "1,a;0,1", "--norm", "l2",
                              "--alpha", "0.3", "--beta", "0.3", "--samples", "5")
        assert (code, out) == (2, "")
        assert err.endswith("normortho: error: argument --matrix: expected rows 'a,b;c,d' "
                            "of numbers, got '1,a;0,1'\n")

    @pytest.mark.parametrize("matrix, value", [
        ("nan,0;0,1", "nan"), ("1,0;0,inf", "inf"), ("1,-inf;0,1", "-inf"),
    ], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_matrix_is_usage_error(self, capsys, matrix, value):
        code, out, err = _run(capsys, "preserver", "--matrix", matrix, "--norm", "l2",
                              "--alpha", "0.3", "--beta", "0.3", "--samples", "5")
        assert code == 2
        assert out == ""
        assert err.endswith(
            f"normortho: error: argument --matrix: matrix entries must be finite, "
            f"got {value}\n"
        )


class TestMineCommand:
    def test_witness_payload_and_replay(self, capsys):
        got = _run_json(
            capsys, "mine", "--norm", "linf", "--relation", "rho_ab",
            "--alpha", "0.3", "--beta", "0.4", "--relation2", "rho",
            "--samples", "300", "--seed", "1",
        )
        assert got["witness_ab"] is not None
        assert got["replay"].startswith("normortho mine ")
        assert "--seed 1" in got["replay"]

    def test_requires_second_relation(self, capsys):
        code, _, err = _run(
            capsys, "mine", "--norm", "linf", "--relation", "rho",
            "--samples", "100",
        )
        assert code == 2
        assert "--relation2" in err


class TestAuditCommand:
    def test_clean_audit(self, capsys):
        got = _run_json(capsys, "audit", "--norm", "sum(l1, linf)", "--samples", "300")
        assert got["violations"] == 0
        assert got["worst_kind"] is None


class TestLocusCommand:
    def test_rows_to_stdout(self, capsys):
        code, out, _ = _run(
            capsys, "locus", "--norm", "l1", "--u", "1,0", "--relation", "rho",
            "--resolution", "64",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) >= 64
        assert any(r["is_zero_crossing"] for r in rows)

    def test_out_file_splits_summary(self, capsys, tmp_path):
        target = tmp_path / "locus.jsonl"
        code, out, _ = _run(
            capsys, "locus", "--norm", "l2", "--u", "1,0", "--relation", "rho",
            "--resolution", "64", "--out", str(target),
        )
        assert code == 0
        summary = json.loads(out)
        lines = target.read_text().splitlines()
        assert summary["points"] == len(lines)
        assert summary["zero_crossings"] >= 2
        assert summary["out"] == str(target)

    @BACKENDS
    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_out_file_holds_the_stdout_bytes(self, package_backend, capsys, tmp_path, fmt):
        argv = ("locus", "--norm", "max(l2, scale(0.9, l1))", "--u", "1,0",
                "--relation", "rho_ab", "--alpha", "0.3", "--beta", "0.4",
                "--resolution", "64", "--format", fmt)
        code, shown, _ = _run(capsys, *argv)
        assert code == 0
        target = tmp_path / "locus.out"
        code, summary, err = _run(capsys, *argv, "--out", str(target))
        assert (code, err) == (0, "")
        assert target.read_bytes() == shown.encode()
        rows = [json.loads(line) for line in _run(capsys, *argv[:-1], "json")[1].splitlines()]
        fields = {"norm": "max(l2, scale(0.9, l1))", "relation": "rho_ab", "resolution": 64,
                  "points": len(rows),
                  "zero_crossings": sum(r["is_zero_crossing"] for r in rows),
                  "out": str(target)}
        if fmt == "json":
            want = json.dumps(fields) + "\n"
        elif fmt == "csv":
            want = ("norm,relation,resolution,points,zero_crossings,out\n"
                    f'"max(l2, scale(0.9, l1))",rho_ab,64,{len(rows)},'
                    f"{fields['zero_crossings']},{target}\n")
        else:
            want = "".join(f"{k:<14}  {v}\n" for k, v in fields.items())
        assert summary == want

    @BACKENDS
    def test_memory_is_bounded_by_the_library_call(self, package_backend, tmp_path):
        # rows are written as they render, so the command holds no more
        # than the LocusPoint list that ortho_locus returns
        text, resolution = "l2", 16384
        ast = parse_norm(text, 2)
        get_program(ast)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        library = peak(lambda: ortho_locus(ast, (1.0, 0.0), Relation("rho"), resolution))
        ratios = {fmt: peak(lambda: run(["locus", "--norm", text, "--u", "1,0",
                                         "--relation", "rho", "--resolution", str(resolution),
                                         "--format", fmt, "--out", str(tmp_path / fmt)]))
                  / library
                  for fmt in ("json", "table", "csv")}
        assert max(ratios.values()) <= 1.2, ratios


class TestOutputFormats:
    def test_table(self, capsys):
        code, out, _ = _run(
            capsys, "rho", "--norm", "l2", "--u", "1,1", "--v", "1,0",
            "--format", "table",
        )
        assert code == 0
        assert "rho_minus" in out
        assert "1.0" in out

    def test_csv_parses(self, capsys):
        code, out, _ = _run(
            capsys, "rho", "--norm", "l2", "--u", "1,1", "--v", "1,0",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["rho"]) == 1.0

    def test_float_precision_survives_round_trip(self, capsys):
        from normortho import parse_norm, rho_pm

        want = rho_pm(parse_norm("lp(3)", 2), (1.0, 1.0), (1.0, 0.0), "plus").value
        got = _run_json(
            capsys, "rho", "--norm", "lp(3)", "--u", "1,1", "--v", "1,0"
        )
        # 17 significant digits reproduce the double bit for bit
        assert got["rho_plus"] == want


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        args = (
            "mine", "--norm", "linf", "--relation", "rho_ab", "--alpha", "0.3",
            "--beta", "0.4", "--relation2", "rho", "--samples", "200", "--seed", "7",
        )
        _, first, _ = _run(capsys, *args)
        _, second, _ = _run(capsys, *args)
        assert first == second

    def test_failed_runs_leave_no_state(self, capsys):
        # the parser is built once per process and reused by every run
        args = ("rho", "--norm", "lp(3)", "--u", "1,2", "--v", "3,-1")
        code, first, _ = _run(capsys, *args)
        assert code == 0
        assert _run(capsys, "audit", "--format", "csv", "--samples", "0")[0] == 2
        assert _run(capsys, "rho", "--method", "numeric", "--u", "1;0")[0] == 2
        assert _run(capsys, "angle", "--u", "0,0", "--v", "1,0", "--alpha", "0.3",
                    "--beta", "0.3")[0] == 1
        assert _run(capsys, *args) == (0, first, "")


_COMMAND_HELP = (
    ("rho", "one-sided derivatives rho_minus/rho_plus and their blends"),
    ("ortho", "decide an orthogonality relation for a pair of vectors"),
    ("solve", "closed-form rho_ab orthogonalization of v against u"),
    ("interval", "Birkhoff orthogonality interval of t for u and t*u+v"),
    ("locus", "trace a relation's zero locus around the planar unit circle"),
    ("angle", "rho_ab angle between two vectors"),
    ("probe", "smoothness, strict-convexity, or symmetry probe"),
    ("identity", "quartic inner-product identity or symmetry residual"),
    ("constant", "angular or norm-equivalence constant between two norms"),
    ("preserver", "check a linear map for rho_ab-orthogonality preservation"),
    ("mine", "mine incomparability witnesses between two relations"),
    ("audit", "sample-check norm axioms for a combinator expression"),
)


class TestEntryPoint:
    def test_help_exits_zero(self):
        out = subprocess.run(
            [sys.executable, "-m", "normortho.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "normortho" in out.stdout
        lines = [line.split(None, 1) for line in out.stdout.splitlines()]
        for name, description in _COMMAND_HELP:
            assert [name, description] in lines, name

    def test_subcommand_help(self, capsys):
        # every command shares the one help, which lists all commands
        code, shared, _ = _run(capsys, "--help")
        assert code == 0
        for name, _ in _COMMAND_HELP:
            assert _run(capsys, name, "--help") == (0, shared, "")

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "normortho", "rho", "--norm", "l2", "--u", "1,0", "--v", "0,1"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout)
        assert (got["rho_minus"], got["rho_plus"], got["rho"]) == (0.0, 0.0, 0.0)

    def test_console_script_target_is_callable(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["normortho"]
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

    @pytest.mark.skipif(
        shutil.which("normortho") is None,
        reason="no normortho console script on PATH (it exists only after pip install)",
    )
    def test_installed_script(self):
        out = subprocess.run(
            ["normortho", "rho", "--norm", "l2", "--u", "1,0", "--v", "0,1"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["rho"] == 0.0


# ---------------------------------------------------------------------------
# the plain-argv reader against argparse


def _outcome(argv):
    """(exit code, stdout, stderr) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _argparse_outcome(argv):
    """What run gives when argparse reads argv, as it did before the reader."""
    with mock.patch.object(cli, "_read_plain", lambda argv: None):
        return _outcome(argv)


def _fields(ns):
    # by repr, so that a NaN value compares equal to itself
    return repr(sorted(vars(ns).items()))


def _echo(args):
    # a usage error, so run writes no --out file; its text is the Namespace
    raise cli._Usage(_fields(args))


@contextlib.contextmanager
def _echoing_commands():
    with mock.patch.dict(cli._COMMANDS,
                         {name: (_echo, text) for name, (_, text) in cli._COMMANDS.items()}):
        yield


def _check_reader(argv):
    """Either the reader's Namespace is argparse's, or it declines; either
    way run gives argparse's exit code, stdout and stderr.  Whether it read
    argv itself."""
    read = cli._read_plain(list(argv))
    if read is not None:
        assert _fields(read) == _fields(cli._PARSER.parse_args(list(argv))), argv
    assert _outcome(list(argv)) == _argparse_outcome(list(argv)), argv
    return read is not None


_UV = ("--u=1,0", "--v=0,1")

# argv, and whether the reader takes it (True) or leaves it to argparse
_EDGES = [
    (("rho", "--res=48", *_UV), False),
    (("locus", "--resolution=48", "--u=1,0", "--relation=rho"), True),
    (("constant", "--norm", "l1", "--norm2", "l2", "--kind", "angular",
      "--alpha", "0.3", "--beta", "0.4", "--samples", "8"), True),
    (("constant", "--norm=l1", "--norm2=l2", "--kind=angular", "--alpha=0.3",
      "--beta=0.4", "--samples=8"), True),
    (("mine", "--norm=l2", "--relation=rho", "--relation2=birkhoff", "--samples=4"), True),
    (("mine", "--norm=l2", "--relation", "rho", "--relation2", "birkhoff",
      "--samples", "4"), True),
    (("mine", "--norm=l2", "--rel=rho", "--relation2=birkhoff"), False),
    (("mine", "--norm=l2", "--relation=rho", "--relation2=bogus"), False),
    (("rho", "--no=l1", *_UV), False),
    (("rho", "--norm", "l1", "--norm", "linf", "--norm=lp(3)", *_UV), True),
    (("rho", "--u=5,5", "--u=1,0", "--v=0,1"), True),
    (("rho", "--u=1;0", "--u=1,0", "--v=0,1"), False),
    (("rho", "--", "--norm=l1", *_UV), False),
    (("rho", "--norm=l1", "--", *_UV), False),
    (("rho", "--norm=--", *_UV), False),
    (("rho", "--norm", "--", *_UV), False),
    (("-h",), False),
    (("--help",), False),
    (("rho", "-h"), False),
    (("rho", "--help"), False),
    (("rho", "--help=x"), False),
    (("--norm=l1", "rho", *_UV), False),
    (("--norm", "l1", "rho", *_UV), False),
    (("rho", *_UV, "extra"), False),
    (("rho", "rho", *_UV), False),
    (("frobnicate", *_UV), False),
    (("rho", "--frob=1", *_UV), False),
    (("rho", "--frob", "1", *_UV), False),
    (("rho", "--u=", "--v=0,1"), False),
    (("rho", "--u=1,0", "--v="), False),
    (("rho", "--norm=", *_UV), True),
    (("rho", "--norm", "", *_UV), True),
    (("rho", *_UV, "--alpha", "-0.3", "--beta", "0.4"), False),
    (("rho", *_UV, "--alpha=-0.3", "--beta=0.4"), True),
    (("rho", "--u=1,0", "--v", "-1,0"), False),
    (("rho", "--u=1,0", "--v=-1,0"), True),
    (("rho", "--norm", "max(l1, l2)", *_UV), True),
    (("rho", "--norm=max(l1, l2)", *_UV), True),
    (("rho", "--norm", " l2", *_UV), True),
    (("rho", "--dim=x", *_UV), False),
    (("rho", "--dim", "2.5", *_UV), False),
    (("rho", "--dim", "3", *_UV), True),
    (("rho", "--alpha=x", *_UV), False),
    (("rho", "--tol", "1e-", *_UV), False),
    (("rho", "--tol", "1e-7", *_UV), True),
    (("rho", "--method=fast", *_UV), False),
    (("rho", "--method=numeric", *_UV), True),
    (("rho", "--format", "xml", *_UV), False),
    (("ortho", "--relation=nope", *_UV), False),
    (("preserver", "--matrix=1,0;0", "--alpha=0.3", "--beta=0.4"), False),
    (("preserver", "--matrix=1,0;0,1", "--alpha=0.3", "--beta=0.4", "--samples=4"), True),
    (("rho", *_UV, "--dim"), False),
    (("rho", *_UV, "--alpha"), False),
    (("rho",), True),
    (("audit", "--samples", "8"), True),
    ((), False),
]


@pytest.mark.parametrize("argv, read", _EDGES, ids=[" ".join(a) or "(empty)" for a, _ in _EDGES])
def test_reader_edges_match_argparse(argv, read):
    with _echoing_commands():
        assert _check_reader(argv) is read


def test_reader_writes_out_as_argparse_does(tmp_path):
    target = tmp_path / "rho.json"
    argv = ["rho", f"--out={target}", *_UV]
    assert _check_reader(argv)
    assert target.read_text() == _outcome(argv[:1] + argv[2:])[1]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_reader_defaults_are_argparse_defaults(command):
    with _echoing_commands():
        assert _check_reader([command])


def test_reader_matches_argparse_on_the_golden_argv():
    argvs = corpus()
    with _echoing_commands():
        for argv in argvs:
            # the reader leaves a --flag=-- value, a usage error, to argparse
            plain = not any(arg.endswith("=--") for arg in argv)
            assert _check_reader(argv) == plain
            assert _check_reader(equals_spelling(argv)) == plain


@pytest.mark.parametrize("argv", [
    ["normortho", "rho", "--norm=l1", *_UV],
    ["normortho", "rho", "--norm", "l1", "--u", "1,0", "--v", "-1,0"],
    ["normortho", "--help"],
], ids=["read", "declined", "help"])
def test_run_without_argv_reads_sys_argv(monkeypatch, argv):
    want = _outcome(argv[1:])
    monkeypatch.setattr(sys, "argv", argv)
    assert _outcome(None) == want


_FLAG_VALUES = ("1,0", "0.6,-0.8", "-1,0", "3", "-2", "0.25", "-0.3", "1e-7", "nan", "inf",
                "abc", "", " 2", "l1", "max(l1, l2)", "rho_ab", "birkhoff_oracle", "json",
                "csv", "numeric", "angular", "0,-1;1,0", "1,2;3", "1,0;0,inf", "--", "-h",
                "a=b", "x y")
_ODD_TOKENS = ("--", "-h", "--help", "--res", "--norm2", "--rel", "rho", "extra", "-x",
               "--help=x", "--=1", "=")


@st.composite
def _argvs(draw):
    argv = [draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "--u=1,0"]))]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(sorted(cli._FLAGS)))
        value = draw(st.sampled_from(_FLAG_VALUES))
        shape = draw(st.integers(0, 4))
        if shape == 0:
            argv.append(f"{flag}={value}")
        elif shape == 1:
            argv += [flag, value]
        elif shape == 2:
            argv.append(flag)
        elif shape == 3:
            argv.append(draw(st.sampled_from(_ODD_TOKENS)))
        else:
            argv.insert(draw(st.integers(0, len(argv))), f"{flag}={value}")
    return argv


@settings(max_examples=400)
@given(_argvs())
def test_reader_matches_argparse_on_drawn_argv(argv):
    with _echoing_commands():
        _check_reader(argv)


# ---------------------------------------------------------------------------
# rendering


def _fmt_float_reference(x):
    """_fmt_float as it was before it formatted once."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


_EDGE_FLOATS = (0.0, -0.0, 1.0, -1.0, 2.5, 0.1, -1e-20, 1e-320, 5e-324, 1e16, 1e17, -1e17,
                2.0 ** 53, 2.0 ** 53 - 1.0, 0.5 + 2.0 ** 51, 1.7976931348623157e308,
                math.nan, -math.nan, math.inf, -math.inf)


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_fmt_float_matches_its_reference(x):
    assert cli._fmt_float(x) == _fmt_float_reference(x)


def test_fmt_float_matches_its_reference_at_the_edges():
    assert [cli._fmt_float(x) for x in _EDGE_FLOATS] == list(map(_fmt_float_reference,
                                                               _EDGE_FLOATS))


class _Pair(NamedTuple):
    a: float
    b: float


class _Sub(float):
    pass


def _reference_line(row):
    """A record's JSON line as _jdump writes its fields one by one."""
    return "{" + ", ".join(f"{json.dumps(k)}: {cli._jdump(v)}"
                           for k, v in zip(row._fields, row)) + "}\n"


def test_json_rows_match_jdump():
    # each edge float (signed zeros, integral, subnormal, huge, NaN and
    # infinite ones among them) in each float field of a LocusPoint, the
    # other fields plain, and in all four, with either flag
    plain = (0.3, -7.25e-9, 0.6, 1.5e-3)
    rows = [LocusPoint(*(x if i == k else p for i, p in enumerate(plain)), flag)
            for x in _EDGE_FLOATS for k in range(4) for flag in (False, True)]
    rows += [LocusPoint(x, x, x, x, flag) for x in _EDGE_FLOATS for flag in (False, True)]
    out = io.StringIO()
    cli._write_rows(rows, "json", out)
    assert out.getvalue() == "".join(map(_reference_line, rows))
    for line in out.getvalue().splitlines():
        json.loads(line)


class _Count(int):
    pass


class _Text(str):
    pass


class _Map(dict):
    pass


@pytest.mark.parametrize("obj, base", [
    (_Sub(2.0), 2.0), (_Sub(math.inf), math.inf), (_Count(7), 7), (_Text("a\nb"), "a\nb"),
    (_Pair(0.5, -1.0), (0.5, -1.0)), (_Map(k=[1, None, True]), {"k": [1, None, True]}),
], ids=["float", "inf", "int", "str", "tuple", "dict"])
def test_jdump_renders_a_subclass_as_its_base(obj, base):
    assert cli._jdump(obj) == cli._jdump(base)
