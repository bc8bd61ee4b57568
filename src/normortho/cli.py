"""Command-line interface.

Every subcommand prints a single deterministic payload (JSON by default,
optionally a key/value table or CSV) built only from the flags and the
seed, so repeated runs are byte-identical.  Floats are rendered with 17
significant digits, enough to round-trip doubles exactly.

Arguments: one argparse parser, ``_PARSER``, declares every flag with its
type, choices, default and help.  An argv of the plain shape, the command
name and then exact long flags, each as ``--flag=value`` or as
``--flag value`` with a value that does not start with ``-``, is read
straight from that parser's flag table by ``_read_plain``: each value goes
through the flag's own type and choices, and the result is the Namespace
argparse would build.  Every other argv (an abbreviated flag, ``-h``,
``--``, a value starting with ``-``, a missing value, an extra positional,
a bad value) goes to ``_PARSER.parse_args`` unchanged, so help, usage and
error texts, their order and their exit codes all come from argparse.  A
``--flag=--`` value, which argparse stores as an empty list, is reported
as argparse reports a missing value.

Exit codes: 0 on success, 2 for usage problems including norm-expression
parse errors and non-finite vector coordinates, 1 for domain errors (zero
vectors where forbidden, dimension mismatches, non-smooth evaluation
points).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .derivs import AlphaBeta, Lambda, rho_ab, rho_lambda, rho_pair, rho_pm_numeric
from .errors import EngineError, ParseError
from .explorer import LinearMap, mine_incomparability, preserver_check
from .geometry import (
    angle_ab,
    angular_constant,
    norm_equiv_constant,
    quartic_identity_residual,
    smoothness_probe,
    strict_convexity_probe,
    symmetry_residual,
    symmetry_search,
)
from .normast import parse_norm, print_norm
from .ortho import (
    RELATION_TAGS,
    Relation,
    _MAX_RESOLUTION,
    ab_orthogonalizer,
    birkhoff_oracle,
    birkhoff_t_interval,
    is_orthogonal,
    ortho_locus,
)
from .space import MAX_SCALE, SampleConfig, as_vector, audit_norm

__all__ = ["run", "main"]


class _Usage(Exception):
    """Flag combination or flag value problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# argument parsing

def _vec_arg(text: str):
    try:
        coords = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    try:
        return as_vector(coords)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _matrix_arg(text: str):
    try:
        rows = tuple(tuple(float(p) for p in row.split(","))
                     for row in text.split(";"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected rows 'a,b;c,d' of numbers, got {text!r}"
        ) from None
    if len({len(row) for row in rows}) != 1:
        raise argparse.ArgumentTypeError(
            f"matrix rows must all have the same length, got {text!r}"
        )
    for row in rows:
        for e in row:
            if not math.isfinite(e):
                # LinearMap's text, a usage error as a non-finite --u is
                raise argparse.ArgumentTypeError(f"matrix entries must be finite, got {e!r}")
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normortho",
        description="One-sided norm derivatives and orthogonality relations\n"
                    "in finite-dimensional real normed spaces.",
        epilog="commands:\n" + "".join(
            f"  {name:<10}  {help_text}\n"
            for name, (_, help_text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below; each accepts every flag")
    g = parser.add_argument_group("problem")
    g.add_argument("--norm", default="l2", help="norm expression (default: l2)")
    g.add_argument("--norm2", default=None, help="second norm expression")
    g.add_argument("--dim", type=int, default=None,
                   help="dimension (default: inferred from --u, else 2)")
    g.add_argument("--u", type=_vec_arg, default=None, help="vector, e.g. 1,2")
    g.add_argument("--v", type=_vec_arg, default=None, help="vector, e.g. 3,-1")
    g.add_argument("--alpha", type=float, default=None, help="rho_ab weight on rho_minus")
    g.add_argument("--beta", type=float, default=None, help="rho_ab weight on rho_plus")
    g.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="rho_lambda mixing weight in [0, 1]")
    g.add_argument("--relation", default=None,
                   choices=RELATION_TAGS + ("birkhoff_oracle",),
                   help="orthogonality relation tag")
    g.add_argument("--relation2", default=None, choices=RELATION_TAGS,
                   help="second relation tag (mine)")
    g.add_argument("--matrix", type=_matrix_arg, default=None,
                   help="linear map rows, e.g. '0,-1;1,0'")
    g.add_argument("--kind", default=None,
                   help="variant for probe/identity/constant commands")
    g.add_argument("--method", default="exact", choices=("exact", "numeric"),
                   help="derivative evaluation method (rho)")
    n = parser.add_argument_group("numerics")
    n.add_argument("--tol", type=float, default=1e-9, help="decision tolerance")
    n.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    n.add_argument("--samples", type=int, default=1000,
                   help="sample count / search budget")
    n.add_argument("--scale", type=float, default=1.0, help="sampling box half-width")
    n.add_argument("--resolution", type=int, default=720,
                   help=f"locus sweep resolution, 8 to {_MAX_RESOLUTION}")
    o = parser.add_argument_group("output")
    o.add_argument("--out", default=None, help="write output to this file")
    o.add_argument("--format", default="json", choices=("json", "table", "csv"))
    return parser


# ---------------------------------------------------------------------------
# deterministic rendering

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt_float(x: float) -> str:
    s = "%.17g" % x
    if "." in s or "e" in s:
        return s
    # nan, inf, -inf, or an integral value such as -0
    return _NON_FINITE.get(s) or s + ".0"


def _jlist(obj) -> str:
    return "[" + ", ".join(map(_jdump, obj)) + "]"


def _jdict(obj) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {_jdump(v)}" for k, v in obj.items()) + "}"


# the renderer of each exact type; subclasses take _jdump's isinstance chain
_JSON = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    float: _fmt_float,
    int: int.__repr__,
    str: json.dumps,
    list: _jlist,
    tuple: _jlist,
    dict: _jdict,
}


def _jdump(obj) -> str:
    render = _JSON.get(type(obj))
    if render is not None:
        return render(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return _jlist(obj)
    if isinstance(obj, dict):
        return _jdict(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")


def _scalar_text(v) -> str:
    """A table or csv cell: _jdump's text, except for None, strings and
    sequences."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)):
        return ",".join(map(_scalar_text, v))
    return _jdump(v)


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for key, value in payload.items():
        path = prefix + key
        if isinstance(value, dict):
            pairs.extend(_flatten(value, path + "."))
        elif (isinstance(value, (list, tuple)) and value
              and isinstance(value[0], dict)):
            for i, item in enumerate(value):
                pairs.extend(_flatten(item, f"{path}[{i}]."))
        else:
            pairs.append((path, _scalar_text(value)))
    return pairs


def _write_payload(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(_jdump(payload) + "\n")
        return
    pairs = _flatten(payload)
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(zip(*pairs))
    else:
        width = max(len(k) for k, _ in pairs)
        out.writelines(f"{k:<{width}}  {v}\n" for k, v in pairs)


# A LocusPoint row's JSON line, one per value of its bool: %.0s prints
# nothing, then the bool's word.  %.17g is _fmt_float's text for every
# float that is neither integral nor non-finite.
_LOCUS_JSON = tuple('{"theta": %.17g, "x": %.17g, "y": %.17g, "residual": %.17g, '
                    '"is_zero_crossing": %.0s' + word + '}\n' for word in ("false", "true"))


def _write_json_rows(rows: list, out) -> None:
    """Write each LocusPoint row as its _jdump JSON line.

    A line is one % on _LOCUS_JSON.  A row with a float that is integral
    or not finite, the values _fmt_float fixes up, takes _jdump: x % 1.0
    is then 0 or NaN, and lies in (0, 1] for every other float.
    """
    write = out.write
    for row in rows:
        theta, x, y, residual, crossing = row
        if theta % 1.0 * (x % 1.0) * (y % 1.0) * (residual % 1.0) > 0.0:
            write(_LOCUS_JSON[crossing] % row)
        else:
            write(_jdict(row._asdict()) + "\n")


def _write_rows(rows: list, fmt: str, out) -> None:
    """Write records of one NamedTuple type, each line as soon as it is
    rendered."""
    if fmt == "json":
        _write_json_rows(rows, out)
        return
    keys = rows[0]._fields
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(map(_scalar_text, row) for row in rows)
    else:
        out.write("  ".join(keys) + "\n")
        for row in rows:
            out.write("  ".join(map(_scalar_text, row)) + "\n")


# ---------------------------------------------------------------------------
# shared flag plumbing

def _need(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = "--lambda" if name == "lam" else f"--{name}"
            raise _Usage(f"{flag} is required for '{args.command}'")


def _infer_dim(args) -> int:
    if args.dim is not None:
        if args.dim < 2:
            raise _Usage("--dim must be at least 2")
        return args.dim
    for vec in (args.u, args.v):
        if vec is not None:
            return len(vec)
    return 2


def _ast(args, dim: int | None = None):
    return parse_norm(args.norm, dim if dim is not None else _infer_dim(args))


def _ab(args) -> AlphaBeta:
    _need(args, "alpha", "beta")
    try:
        return AlphaBeta(args.alpha, args.beta)
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def _lam(args) -> Lambda:
    _need(args, "lam")
    try:
        return Lambda(args.lam)
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def _relation(tag: str, args) -> Relation:
    if tag == "birkhoff_oracle":
        raise _Usage("birkhoff_oracle is only available with the ortho command")
    if tag == "rho_ab":
        return Relation(tag, ab=_ab(args))
    if tag == "rho_lambda":
        return Relation(tag, lam=_lam(args))
    return Relation(tag)


def _relation_fields(rel: Relation) -> dict:
    fields: dict = {}
    if rel.ab is not None:
        fields["alpha"] = rel.ab.alpha
        fields["beta"] = rel.ab.beta
    if rel.lam is not None:
        fields["lambda"] = rel.lam.lam
    return fields


def _tol(args) -> float:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise _Usage("--tol must be positive and finite")
    return args.tol


def _cfg(args) -> SampleConfig:
    if args.samples < 1:
        raise _Usage("--samples must be positive")
    if not (math.isfinite(args.scale) and args.scale > 0.0):
        raise _Usage("--scale must be positive and finite")
    if args.scale > MAX_SCALE:
        raise _Usage(f"--scale must be at most {MAX_SCALE!r}")
    if not 0 <= args.seed < 2 ** 64:
        raise _Usage("--seed must fit in 64 bits")
    return SampleConfig(seed=args.seed, count=args.samples, scale=args.scale)


def _kind(args, choices: tuple[str, ...]) -> str:
    kind = args.kind if args.kind is not None else choices[0]
    if kind not in choices:
        raise _Usage(f"--kind must be one of {', '.join(choices)} "
                     f"for '{args.command}'")
    return kind


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_rho(args) -> dict:
    _need(args, "u", "v")
    ast = _ast(args)
    payload: dict = {"norm": print_norm(ast), "u": args.u, "v": args.v,
                     "method": args.method}
    if args.method == "numeric":
        tol = _tol(args)
        lo = rho_pm_numeric(ast, args.u, args.v, "minus", tol)
        hi = rho_pm_numeric(ast, args.u, args.v, "plus", tol)
        payload["rho_minus"] = lo.value
        payload["rho_minus_width"] = lo.enclosure_width
        payload["rho_plus"] = hi.value
        payload["rho_plus_width"] = hi.enclosure_width
        payload["rho"] = 0.5 * (lo.value + hi.value)
        return payload
    rm, rp = rho_pair(ast, args.u, args.v)
    payload["rho_minus"] = rm
    payload["rho_plus"] = rp
    payload["rho"] = 0.5 * (rm + rp)
    if args.alpha is not None or args.beta is not None:
        ab = _ab(args)
        payload["alpha"] = ab.alpha
        payload["beta"] = ab.beta
        payload["rho_ab"] = rho_ab(ast, args.u, args.v, ab)
    if args.lam is not None:
        lam = _lam(args)
        payload["lambda"] = lam.lam
        payload["rho_lambda"] = rho_lambda(ast, args.u, args.v, lam)
    return payload


def _cmd_ortho(args) -> dict:
    _need(args, "u", "v", "relation")
    ast = _ast(args)
    tol = _tol(args)
    if args.relation == "birkhoff_oracle":
        verdict = birkhoff_oracle(ast, args.u, args.v, tol=tol)
        rel_fields: dict = {}
    else:
        rel = _relation(args.relation, args)
        verdict = is_orthogonal(rel, ast, args.u, args.v, tol)
        rel_fields = _relation_fields(rel)
    return {"norm": print_norm(ast), "relation": args.relation,
            **rel_fields, "u": args.u, "v": args.v, **verdict._asdict()}


def _cmd_solve(args) -> dict:
    _need(args, "u", "v")
    ast = _ast(args)
    ab = _ab(args)
    tol = _tol(args)
    s, w = ab_orthogonalizer(ast, args.u, args.v, ab)
    check = is_orthogonal(Relation("birkhoff"), ast, args.u, w, tol)
    return {"norm": print_norm(ast), "u": args.u, "v": args.v,
            "alpha": ab.alpha, "beta": ab.beta, "s": s, "w": w,
            "rho_ab_residual": rho_ab(ast, args.u, w, ab),
            "birkhoff_holds": check.holds,
            "birkhoff_residual": check.residual, "tol": tol}


def _cmd_interval(args) -> dict:
    _need(args, "u", "v")
    ast = _ast(args)
    lo, hi = birkhoff_t_interval(ast, args.u, args.v)
    return {"norm": print_norm(ast), "u": args.u, "v": args.v,
            "t_lo": lo, "t_hi": hi, "width": hi - lo}


def _cmd_locus(args) -> list:
    _need(args, "u", "relation")
    if args.resolution < 8:
        raise _Usage("--resolution must be at least 8")
    if args.resolution > _MAX_RESOLUTION:
        raise _Usage(f"--resolution must be at most {_MAX_RESOLUTION}")
    ast = _ast(args)
    rel = _relation(args.relation, args)
    return ortho_locus(ast, args.u, rel, resolution=args.resolution)


def _cmd_angle(args) -> dict:
    _need(args, "u", "v")
    ast = _ast(args)
    ab = _ab(args)
    res = angle_ab(ast, args.u, args.v, ab)
    return {"norm": print_norm(ast), "u": args.u, "v": args.v,
            "alpha": ab.alpha, "beta": ab.beta, "theta": res.theta,
            "degrees": math.degrees(res.theta),
            "cosine_argument": res.cosine_argument}


def _cmd_probe(args) -> dict:
    kind = _kind(args, ("smoothness", "convexity", "symmetry"))
    ast = _ast(args)
    cfg = _cfg(args)
    if kind == "smoothness":
        report = smoothness_probe(ast, cfg)
    elif kind == "convexity":
        report = strict_convexity_probe(ast, cfg)
    else:
        report = symmetry_search(ast, _ab(args), cfg)
    return {"norm": print_norm(ast), "kind": kind, **report._asdict(),
            "seed": cfg.seed, "budget": cfg.count}


def _cmd_identity(args) -> dict:
    kind = _kind(args, ("quartic", "symmetry"))
    _need(args, "u", "v")
    ast = _ast(args)
    ab = _ab(args)
    if kind == "quartic":
        residual = quartic_identity_residual(ast, args.u, args.v, ab)
    else:
        residual = symmetry_residual(ast, args.u, args.v, ab)
    return {"norm": print_norm(ast), "kind": kind, "u": args.u, "v": args.v,
            "alpha": ab.alpha, "beta": ab.beta, "residual": residual}


def _cmd_constant(args) -> dict:
    kind = _kind(args, ("angular", "equivalence"))
    _need(args, "norm2")
    dim = _infer_dim(args)
    ast1 = parse_norm(args.norm, dim)
    ast2 = parse_norm(args.norm2, dim)
    ab = _ab(args)
    cfg = _cfg(args)
    if kind == "angular":
        est = angular_constant(ast1, ast2, ab, cfg)
    else:
        est = norm_equiv_constant(ast1, ast2, ab, cfg)
    return {"norm": print_norm(ast1), "norm2": print_norm(ast2), "kind": kind,
            "alpha": ab.alpha, "beta": ab.beta, **est._asdict()}


def _cmd_preserver(args) -> dict:
    _need(args, "matrix")
    rows = len(args.matrix)
    cols = len(args.matrix[0])
    domain = parse_norm(args.norm, cols)
    if args.norm2 is None and rows == cols:
        codomain = domain
    else:
        codomain = parse_norm(args.norm2 if args.norm2 is not None else args.norm, rows)
    lin = LinearMap(args.matrix, domain, codomain)
    report = preserver_check(lin, _ab(args), _cfg(args))
    return {"matrix": args.matrix, "norm": print_norm(domain),
            "norm2": print_norm(codomain),
            "alpha": args.alpha, "beta": args.beta,
            "operator_norm": report.operator_norm._asdict(),
            "conditions": [c._asdict() for c in (report.orthogonality, report.norm_multiple,
                                             report.rho_scaling)],
            "all_pass": report.all_pass}


def _cmd_mine(args) -> dict:
    _need(args, "relation", "relation2")
    ast = _ast(args)
    rel_a = _relation(args.relation, args)
    rel_b = _relation(args.relation2, args)
    report = mine_incomparability(ast, rel_a, rel_b, _cfg(args), tol=_tol(args))

    def pair(w):
        return None if w is None else {"u": w[0], "v": w[1]}

    replay = (f"normortho mine --norm '{print_norm(ast)}' "
              f"--relation {rel_a.tag} --relation2 {rel_b.tag}")
    if args.alpha is not None and args.beta is not None:
        replay += f" --alpha {args.alpha!r} --beta {args.beta!r}"
    if args.lam is not None:
        replay += f" --lambda {args.lam!r}"
    replay += f" --seed {args.seed} --samples {args.samples} --tol {args.tol!r}"
    return {"norm": print_norm(ast), "relation_a": rel_a.tag,
            "relation_b": rel_b.tag,
            "witness_ab": pair(report.witness_ab),
            "witness_ba": pair(report.witness_ba),
            "seed": report.seed, "budget": report.budget,
            "budget_used": report.budget_used, "discarded": report.discarded,
            "replay": replay}


def _cmd_audit(args) -> dict:
    ast = _ast(args)
    report = audit_norm(ast, _cfg(args))
    return {"norm": print_norm(ast), **report._asdict()}


# name: (handler, one-line description for --help)
_COMMANDS = {
    "rho": (_cmd_rho, "one-sided derivatives rho_minus/rho_plus and their blends"),
    "ortho": (_cmd_ortho, "decide an orthogonality relation for a pair of vectors"),
    "solve": (_cmd_solve, "closed-form rho_ab orthogonalization of v against u"),
    "interval": (_cmd_interval, "Birkhoff orthogonality interval of t for u and t*u+v"),
    "locus": (_cmd_locus, "trace a relation's zero locus around the planar unit circle"),
    "angle": (_cmd_angle, "rho_ab angle between two vectors"),
    "probe": (_cmd_probe, "smoothness, strict-convexity, or symmetry probe"),
    "identity": (_cmd_identity, "quartic inner-product identity or symmetry residual"),
    "constant": (_cmd_constant, "angular or norm-equivalence constant between two norms"),
    "preserver": (_cmd_preserver, "check a linear map for rho_ab-orthogonality preservation"),
    "mine": (_cmd_mine, "mine incomparability witnesses between two relations"),
    "audit": (_cmd_audit, "sample-check norm axioms for a combinator expression"),
}

_PARSER = _build_parser()
# every flag that takes one value, by its long option string (not --help)
_FLAGS = {flag: action for action in _PARSER._actions if action.nargs is None
          for flag in action.option_strings}
# what argparse puts in a Namespace before it reads an argument
_DEFAULTS = {action.dest: action.default for action in _PARSER._actions
             if action.default is not argparse.SUPPRESS}


def _read_plain(argv: list):
    """The Namespace _PARSER.parse_args(argv) returns, for an argv of the
    command name and then exact long flags, each as --flag=value or as
    --flag value where value does not start with "-"; None for any other
    argv, and for a value the flag's type or choices reject."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = dict(_DEFAULTS, command=argv[0])
    i = 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        action = _FLAGS.get(flag)
        if action is None:
            return None
        if not eq:
            i += 1
            if i == len(argv) or argv[i].startswith("-"):
                return None
            value = argv[i]
        elif value == "--":
            return None  # argparse drops a "--" value and stores []
        i += 1
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


# ---------------------------------------------------------------------------
# entry points

def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        try:
            args = _PARSER.parse_args(argv)
            for flag, action in _FLAGS.items():
                # argparse stores a --flag=-- value as [], past type and choices
                if getattr(args, action.dest) == []:
                    _PARSER.error(f"argument {flag}: expected one argument")
        except SystemExit as exc:
            code = exc.code
            if code is None:
                return 0
            return code if isinstance(code, int) else 2
    try:
        result = _COMMANDS[args.command][0](args)
    except (ParseError, _Usage) as exc:
        print(f"normortho: {exc}", file=sys.stderr)
        return 2
    except (EngineError, ValueError) as exc:
        print(f"normortho: {exc}", file=sys.stderr)
        return 1
    # locus returns its LocusPoint records; every other command one payload
    write = _write_rows if isinstance(result, list) else _write_payload
    if args.out is None:
        write(result, args.format, sys.stdout)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(result, args.format, fh)
    except OSError as exc:
        print(f"normortho: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    if write is _write_rows:
        # Large row streams go to the file; stdout keeps a summary.
        _write_payload(
            {"norm": args.norm, "relation": args.relation,
             "resolution": args.resolution, "points": len(result),
             "zero_crossings": sum(p.is_zero_crossing for p in result),
             "out": args.out},
            args.format, sys.stdout)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
