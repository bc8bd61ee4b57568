"""Regenerate tests/cli_golden.jsonl, the fixed-seed CLI golden corpus.

Each line is one command: its argv, the exit code of ``normortho.cli.run``
and the sha256 of everything it wrote to stdout.  The corpus covers all
twelve subcommands over the test FAMILIES plus a few composites, at small
budgets and with unit-scale vectors, and the table and csv renderings of
every command that prints a result record.  Regenerate it only when an output
change is intended, and say why in the change that does:

    PYTHONPATH=src python tests/make_cli_golden.py > tests/cli_golden.jsonl
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from conftest import FAMILIES

COMPOSITES = (
    "max(sum(l1, lp(3)), scale(1.5, wlp(2; 1, 4)))",
    "max(l1, scale(0.5, l2))",
    "sum(max(l2, scale(0.8, linf)), wlp(inf; 1, 2))",
)
NORMS = FAMILIES + COMPOSITES
PAIRS = (
    ("1,0", "0,1"),
    ("1,1", "1,-1"),
    ("0.6,-0.8", "0.3,0.7"),
    ("1,0.5", "-0.25,1"),
    ("-1,1", "1,0"),
)
TAGS = ("birkhoff", "rho_plus", "rho_minus", "rho", "rho_lambda", "rho_ab",
        "isosceles", "pythagorean", "semi", "birkhoff_oracle")
AB = ("--alpha", "0.3", "--beta", "0.5")
LAM = ("--lambda", "0.25")
MATRICES = ("0,-1;1,0", "2,0;0,2", "1,1;0,1", "0.6,-0.8;0.8,0.6")
FORMATS = ("json", "table", "csv")


def corpus() -> list[list[str]]:
    cmds: list[tuple[str, ...]] = []
    for i, norm in enumerate(NORMS):
        n = ("--norm", norm)
        u, v = PAIRS[i % len(PAIRS)]
        u2, v2 = PAIRS[(i + 2) % len(PAIRS)]
        uv = ("--u=" + u, "--v=" + v)
        fmt = ("--format", FORMATS[i % len(FORMATS)])
        cmds.append(("rho", *n, *uv, *AB, *LAM, *fmt))
        cmds.append(("rho", *n, "--u=" + u2, "--v=" + v2, "--method", "numeric"))
        for j, tag in enumerate(TAGS):
            a, b = PAIRS[(i + j) % len(PAIRS)]
            cmds.append(("ortho", *n, "--u=" + a, "--v=" + b, "--relation", tag, *AB, *LAM))
        cmds.append(("solve", *n, *uv, *AB))
        cmds.append(("interval", *n, "--u=" + u2, "--v=" + v2))
        cmds.append(("locus", *n, "--u=" + u, "--relation", TAGS[i % 9], *AB, *LAM,
                     "--resolution", "48"))
        cmds.append(("angle", *n, *uv, *AB))
        cmds.append(("angle", *n, "--u=" + u2, "--v=" + v2, "--alpha", "0.1", "--beta", "0.2"))
        for kind in ("smoothness", "convexity", "symmetry"):
            cmds.append(("probe", *n, "--kind", kind, *AB, "--samples", "40",
                         "--seed", str(i)))
        for kind in ("quartic", "symmetry"):
            cmds.append(("identity", *n, "--kind", kind, *uv, *AB))
        other = NORMS[(i + 4) % len(NORMS)]
        for kind in ("angular", "equivalence"):
            cmds.append(("constant", *n, "--norm2", other, "--kind", kind, *AB,
                         "--samples", "40", "--seed", str(i + 7)))
        cmds.append(("preserver", *n, "--matrix", MATRICES[i % len(MATRICES)], *AB,
                     "--samples", "8", "--seed", str(i)))
        a, b = TAGS[i % 9], TAGS[(i + 3) % 9]
        cmds.append(("mine", *n, "--relation", a, "--relation2", b, *AB, *LAM,
                     "--samples", "6", "--seed", str(i), "--tol", "1e-7"))
        cmds.append(("audit", *n, "--samples", "40", "--seed", str(i)))
    # three dimensions, a rectangular map, and the error paths
    for norm in ("l1", "l2", "max(l1, l2)", "wlp(3; 1, 2, 3)"):
        n = ("--norm", norm, "--dim", "3")
        cmds.append(("rho", *n, "--u", "1,0,1", "--v", "0,1,-1"))
        cmds.append(("probe", *n, "--kind", "smoothness", "--samples", "40"))
        cmds.append(("audit", *n, "--samples", "40", "--seed", "5"))
        cmds.append(("preserver", *n, "--matrix", "0,1,0;0,0,1;1,0,0", *AB,
                     "--samples", "2", "--seed", "3"))
    cmds += [
        ("preserver", "--norm", "l2", "--norm2", "linf", "--matrix", "1,0;0,1;1,1",
         *AB, "--samples", "8"),
        ("rho", "--norm", "l2", "--u", "1,0,0", "--v", "0,1"),
        ("rho", "--norm", "l2(", "--u", "1,0", "--v", "0,1"),
        ("rho", "--norm", "l2", "--u", "1,0"),
        ("interval", "--norm", "l1", "--u", "0,0", "--v", "0,1"),
        ("ortho", "--norm", "l1", "--u", "1,0", "--v", "1,1", "--relation", "semi"),
        ("ortho", "--norm", "l2", "--u", "0,0", "--v", "1,1",
         "--relation", "birkhoff_oracle"),
        ("angle", "--norm", "linf", "--u", "1,0", "--v", "0,0", *AB),
        ("solve", "--norm", "l2", "--u", "1,0", "--v", "0,1",
         "--alpha", "0.6", "--beta", "0.5"),
        ("locus", "--norm", "l2", "--u", "0,0", "--relation", "birkhoff"),
        ("locus", "--norm", "l2", "--u", "1,0", "--relation", "rho",
         "--resolution", "4"),
        ("mine", "--norm", "l2", "--dim", "3", "--relation", "rho",
         "--relation2", "birkhoff", "--samples", "4"),
        ("probe", "--norm", "l2", "--kind", "bogus"),
        ("audit", "--norm", "l2", "--samples", "0"),
    ]
    # the table and csv renderings of every record command
    for norm in ("l2", "max(l1, scale(0.5, l2))"):
        n = ("--norm", norm)
        for fmt in ("table", "csv"):
            f = ("--format", fmt)
            cmds += [
                ("ortho", *n, "--u=1,0.5", "--v=-0.25,1", "--relation", "rho_ab", *AB, *f),
                ("ortho", *n, "--u=1,1", "--v=1,-1", "--relation", "birkhoff_oracle", *f),
                ("locus", *n, "--u=0.6,-0.8", "--relation", "rho_lambda", *LAM,
                 "--resolution", "16", *f),
                ("probe", *n, "--kind", "convexity", "--samples", "40", "--seed", "2", *f),
                ("probe", *n, "--kind", "symmetry", *AB, "--samples", "40", *f),
                ("constant", *n, "--norm2", "linf", "--kind", "angular", *AB,
                 "--samples", "40", "--seed", "3", *f),
                ("preserver", *n, "--matrix", "1,1;0,1", *AB, "--samples", "8", *f),
                ("audit", *n, "--samples", "40", "--seed", "4", *f),
                ("mine", *n, "--relation", "birkhoff", "--relation2", "isosceles",
                 "--samples", "6", "--seed", "1", "--tol", "1e-7", *f),
            ]
    return [list(c) for c in cmds]


def equals_spelling(argv: list[str]) -> list[str]:
    """argv with each "--flag value" pair written as one "--flag=value",
    the spelling the benchmark's cli workload sends."""
    out = argv[:1]
    rest = iter(argv[1:])
    for arg in rest:
        out.append(arg if "=" in arg else f"{arg}={next(rest)}")
    return out


def run_one(argv: list[str]) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one in-process CLI run."""
    from normortho import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> None:
    for argv in corpus():
        code, digest = run_one(argv)
        sys.stdout.write(json.dumps({"argv": argv, "exit": code, "stdout_sha256": digest})
                         + "\n")


if __name__ == "__main__":
    main()
