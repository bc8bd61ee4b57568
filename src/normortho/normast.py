"""Norm-combinator expressions: node types, parser, printer.

Every expression denotes a genuine norm on R^dim by construction: the base
families (l1, lp, wlp, linf) are norms, and max, sum, and positive scaling
of norms are again norms.  Working with a closed combinator language keeps
one-sided differentiation exact and compositional.

Grammar (case-insensitive names; any Unicode whitespace between tokens)::

    norm   := "l1" | "l2" | "linf"
            | "lp" "(" number ")"                      # p > 1, finite
            | "wlp" "(" number-or-inf ";" number ("," number)* ")"
            | "max" "(" norm "," norm ")"
            | "sum" "(" norm "," norm ")"
            | "scale" "(" number "," norm ")"          # factor > 0
    number := ["-"] decimal literal [exponent]         # no leading "+"

"l2" is shorthand for "lp(2)".  A wlp weight list must have exactly one
weight per coordinate of the ambient space.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

from .errors import ParseError

__all__ = [
    "L1",
    "LInf",
    "Lp",
    "WLp",
    "Max",
    "Sum",
    "Scale",
    "NormAst",
    "parse_norm",
    "print_norm",
]


def _check_dim(dim: int) -> None:
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise ValueError(f"ambient dimension must be an integer >= 2, got {dim!r}")


# Nodes are immutable, so each stores the hash of its field tuple once, in
# __post_init__; a child's hash is then one lookup, and a cache lookup
# does not walk the tree.
def _seal(node, fields: tuple) -> None:
    object.__setattr__(node, "_hash", hash(fields))


def _cached_hash(node) -> int:
    return node._hash


@dataclass(frozen=True)
class _Leaf:
    """An unweighted norm whose only field is the dimension."""

    dim: int

    __hash__ = _cached_hash

    def __post_init__(self):
        _check_dim(self.dim)
        _seal(self, (self.dim,))


# Subclasses are decorated again so the frozen check covers their instances;
# eq=False keeps the base's __eq__ (exact classes) and cached __hash__.
@dataclass(frozen=True, eq=False)
class L1(_Leaf):
    """Sum of absolute coordinate values."""


@dataclass(frozen=True, eq=False)
class LInf(_Leaf):
    """Largest absolute coordinate value."""


@dataclass(frozen=True)
class Lp:
    """(sum |x_i|^p)^(1/p) for finite p > 1; smooth away from the origin."""

    dim: int
    p: float

    __hash__ = _cached_hash

    def __post_init__(self):
        _check_dim(self.dim)
        p = self.p
        if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 1):
            raise ValueError(f"lp exponent must be finite and > 1, got {p!r}")
        object.__setattr__(self, "p", float(p))
        _seal(self, (self.dim, self.p))


@dataclass(frozen=True)
class WLp:
    """Weighted p-norm (sum w_i |x_i|^p)^(1/p); p >= 1 or infinity.

    For p = inf the value is max w_i |x_i|.  The weight count fixes the
    ambient dimension.
    """

    p: float
    weights: tuple[float, ...]

    __hash__ = _cached_hash

    def __post_init__(self):
        p = self.p
        if not (isinstance(p, (int, float)) and p >= 1):
            raise ValueError(f"wlp exponent must be >= 1 or inf, got {p!r}")
        ws = tuple(float(w) for w in self.weights)
        if len(ws) < 2:
            raise ValueError("wlp needs one weight per coordinate, dimension >= 2")
        for w in ws:
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"wlp weights must be positive and finite, got {w!r}")
            # no subnormal weight: N(u) >= w_j^(1/p) |u_j|, so the base pass's
            # pow(|u_j| / N(u), p - 1) <= max(1, 1 / w_j) < 4.5e307 and no
            # coefficient w_j pow(...) overflows (1e-320 at p = 40 would)
            if w < sys.float_info.min:
                raise ValueError(
                    f"wlp weights must be at least {sys.float_info.min!r}, got {w!r}")
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "weights", ws)
        _seal(self, (self.p, ws))

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class _Pair:
    """A combination of two norms on the same space."""

    left: "NormAst"
    right: "NormAst"

    __hash__ = _cached_hash

    def __post_init__(self):
        if self.left.dim != self.right.dim:
            raise ValueError(
                f"{type(self).__name__.lower()} children disagree on dimension: "
                f"{self.left.dim} vs {self.right.dim}"
            )
        _seal(self, (self.left, self.right))

    @property
    def dim(self) -> int:
        return self.left.dim


@dataclass(frozen=True, eq=False)
class Max(_Pair):
    """Pointwise maximum of two norms on the same space."""


@dataclass(frozen=True, eq=False)
class Sum(_Pair):
    """Pointwise sum of two norms on the same space."""


@dataclass(frozen=True)
class Scale:
    """A norm multiplied by a positive constant."""

    c: float
    inner: "NormAst"

    __hash__ = _cached_hash

    def __post_init__(self):
        c = self.c
        if not (isinstance(c, (int, float)) and math.isfinite(c) and c > 0):
            raise ValueError(f"scale factor must be positive and finite, got {c!r}")
        object.__setattr__(self, "c", float(c))
        _seal(self, (self.c, self.inner))

    @property
    def dim(self) -> int:
        return self.inner.dim


NormAst = L1 | LInf | Lp | WLp | Max | Sum | Scale


# --- lexer -----------------------------------------------------------------

# One alternative per token kind, tried in this order after any whitespace;
# "bad" catches every other character.  Digits are [0-9], since \d would
# also match every other Unicode decimal digit.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<punct>[(),;])
  | (?P<number>-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[a-zA-Z][a-zA-Z0-9]*)
  | (?P<bad>\S))""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, idents lowercased, then an eof token."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m[kind]
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", m.start(kind))
        toks.append((kind, tok.lower() if kind == "ident" else tok, m.start(kind)))
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, dim: int):
        self.toks = _tokenize(text)
        self.pos = 0
        self.dim = dim

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    # Only punct tokens have the texts "(", ")", ",", ";", and only an ident
    # has the text "inf", so those tests need not look at the kind.
    def expect_punct(self, ch: str) -> None:
        _, text, offset = self.take()
        if text != ch:
            raise ParseError(f"expected {ch!r}, found {text or 'end of input'!r}", offset)

    def number(self) -> tuple[float, int]:
        kind, text, offset = self.take()
        if kind != "number":
            raise ParseError(f"expected a number, found {text or 'end of input'!r}", offset)
        return float(text), offset

    def norm(self) -> NormAst:
        kind, name, offset = self.take()
        if kind != "ident":
            raise ParseError(
                f"expected a norm expression, found {name or 'end of input'!r}", offset
            )
        if name == "l1":
            return L1(self.dim)
        if name == "linf":
            return LInf(self.dim)
        if name == "l2":
            return Lp(self.dim, 2.0)
        if name == "lp":
            self.expect_punct("(")
            p, off = self.number()
            self.expect_punct(")")
            if not (math.isfinite(p) and p > 1):
                raise ParseError(f"lp exponent must be finite and > 1, got {p}", off)
            return Lp(self.dim, p)
        if name == "wlp":
            return self._wlp()
        if name in ("max", "sum"):
            self.expect_punct("(")
            left = self.norm()
            self.expect_punct(",")
            right = self.norm()
            self.expect_punct(")")
            return Max(left, right) if name == "max" else Sum(left, right)
        if name == "scale":
            self.expect_punct("(")
            c, off = self.number()
            self.expect_punct(",")
            inner = self.norm()
            self.expect_punct(")")
            if not (math.isfinite(c) and c > 0):
                raise ParseError(f"scale factor must be positive, got {c}", off)
            return Scale(c, inner)
        raise ParseError(f"unknown norm {name!r}", offset)

    def _wlp(self) -> WLp:
        self.expect_punct("(")
        _, text, offset = self.peek()
        if text == "inf":
            self.take()
            p, p_off = math.inf, offset
        else:
            p, p_off = self.number()
        if not p >= 1:
            raise ParseError(f"wlp exponent must be >= 1 or inf, got {p}", p_off)
        self.expect_punct(";")
        first_off = self.peek()[2]
        weights = [self._weight()]
        while self.peek()[1] == ",":
            self.take()
            weights.append(self._weight())
        self.expect_punct(")")
        if len(weights) != self.dim:
            raise ParseError(
                f"wlp expects {self.dim} weights for a {self.dim}-dimensional space, "
                f"got {len(weights)}",
                first_off,
            )
        return WLp(p, tuple(weights))

    def _weight(self) -> float:
        w, off = self.number()
        if not (math.isfinite(w) and w > 0):
            raise ParseError(f"wlp weights must be positive, got {w}", off)
        if w < sys.float_info.min:  # as WLp: no subnormal weight
            raise ParseError(f"wlp weights must be at least {sys.float_info.min}, got {w}", off)
        return w


def parse_norm(text: str, dim: int) -> NormAst:
    """Parse an expression into a norm tree over a dim-dimensional space.

    Raises ParseError (with the character offset of the problem) on any syntax,
    arity, or parameter-domain violation; never returns a partial parse.
    """
    _check_dim(dim)
    parser = _Parser(text, dim)
    ast = parser.norm()
    kind, text, offset = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text!r}", offset)
    return ast


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def print_norm(ast: NormAst) -> str:
    """Canonical lowercase rendering; parse_norm(print_norm(a), a.dim) == a."""
    if isinstance(ast, _Leaf):
        return type(ast).__name__.lower()
    if isinstance(ast, Lp):
        return f"lp({_fmt(ast.p)})"
    if isinstance(ast, WLp):
        return f"wlp({_fmt(ast.p)}; " + ", ".join(_fmt(w) for w in ast.weights) + ")"
    if isinstance(ast, _Pair):
        return f"{type(ast).__name__.lower()}({print_norm(ast.left)}, {print_norm(ast.right)})"
    if isinstance(ast, Scale):
        return f"scale({_fmt(ast.c)}, {print_norm(ast.inner)})"
    raise TypeError(f"not a norm node: {ast!r}")
