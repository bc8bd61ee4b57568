"""Norm-combinator expressions: node types, parser, printer.

Every expression denotes a genuine norm on R^dim by construction: the base
families (l1, lp, wlp, linf) are norms, and max, sum, and positive scaling
of norms are again norms.  Working with a closed combinator language keeps
one-sided differentiation exact and compositional.

Grammar (whitespace-insensitive between tokens)::

    norm   := "l1" | "l2" | "linf"
            | "lp" "(" number ")"                      # p > 1, finite
            | "wlp" "(" number-or-inf ";" number ("," number)* ")"
            | "max" "(" norm "," norm ")"
            | "sum" "(" norm "," norm ")"
            | "scale" "(" number "," norm ")"          # factor > 0
    number := decimal literal, optional sign and exponent

"l2" is shorthand for "lp(2)".  A wlp weight list must have exactly one
weight per coordinate of the ambient space.
"""

from __future__ import annotations

import math
import re
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
class L1:
    """Sum of absolute coordinate values."""

    dim: int

    __hash__ = _cached_hash

    def __post_init__(self):
        _check_dim(self.dim)
        _seal(self, (self.dim,))


@dataclass(frozen=True)
class LInf:
    """Largest absolute coordinate value."""

    dim: int

    __hash__ = _cached_hash

    def __post_init__(self):
        _check_dim(self.dim)
        _seal(self, (self.dim,))


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
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "weights", ws)
        _seal(self, (self.p, ws))

    @property
    def dim(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Max:
    """Pointwise maximum of two norms on the same space."""

    left: "NormAst"
    right: "NormAst"

    __hash__ = _cached_hash

    def __post_init__(self):
        if self.left.dim != self.right.dim:
            raise ValueError(
                f"max children disagree on dimension: {self.left.dim} vs {self.right.dim}"
            )
        _seal(self, (self.left, self.right))

    @property
    def dim(self) -> int:
        return self.left.dim


@dataclass(frozen=True)
class Sum:
    """Pointwise sum of two norms on the same space."""

    left: "NormAst"
    right: "NormAst"

    __hash__ = _cached_hash

    def __post_init__(self):
        if self.left.dim != self.right.dim:
            raise ValueError(
                f"sum children disagree on dimension: {self.left.dim} vs {self.right.dim}"
            )
        _seal(self, (self.left, self.right))

    @property
    def dim(self) -> int:
        return self.left.dim


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

_NUMBER_RE = re.compile(r"-?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "punct" | "eof"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),;":
            toks.append(_Token("punct", ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            toks.append(_Token("number", m.group(0), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(_Token("ident", m.group(0).lower(), i))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Token("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, dim: int):
        self.toks = _tokenize(text)
        self.pos = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, ch: str) -> _Token:
        tok = self.take()
        if tok.kind != "punct" or tok.text != ch:
            raise ParseError(f"expected {ch!r}, found {tok.text or 'end of input'!r}", tok.offset)
        return tok

    def number(self) -> tuple[float, int]:
        tok = self.take()
        if tok.kind != "number":
            raise ParseError(f"expected a number, found {tok.text or 'end of input'!r}", tok.offset)
        return float(tok.text), tok.offset

    def norm(self) -> NormAst:
        tok = self.take()
        if tok.kind != "ident":
            raise ParseError(
                f"expected a norm expression, found {tok.text or 'end of input'!r}", tok.offset
            )
        name = tok.text
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
        raise ParseError(f"unknown norm {name!r}", tok.offset)

    def _wlp(self) -> WLp:
        self.expect_punct("(")
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "inf":
            self.take()
            p, p_off = math.inf, tok.offset
        else:
            p, p_off = self.number()
        if not p >= 1:
            raise ParseError(f"wlp exponent must be >= 1 or inf, got {p}", p_off)
        self.expect_punct(";")
        weights: list[float] = []
        w, w_off = self.number()
        first_off = w_off
        self._check_weight(w, w_off)
        weights.append(w)
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.take()
            w, w_off = self.number()
            self._check_weight(w, w_off)
            weights.append(w)
        self.expect_punct(")")
        if len(weights) != self.dim:
            raise ParseError(
                f"wlp expects {self.dim} weights for a {self.dim}-dimensional space, "
                f"got {len(weights)}",
                first_off,
            )
        return WLp(p, tuple(weights))

    @staticmethod
    def _check_weight(w: float, off: int) -> None:
        if not (math.isfinite(w) and w > 0):
            raise ParseError(f"wlp weights must be positive, got {w}", off)


def parse_norm(text: str, dim: int) -> NormAst:
    """Parse an expression into a norm tree over a dim-dimensional space.

    Raises ParseError (with the byte offset of the problem) on any syntax,
    arity, or parameter-domain violation; never returns a partial parse.
    """
    _check_dim(dim)
    parser = _Parser(text, dim)
    ast = parser.norm()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"trailing input {trailing.text!r}", trailing.offset)
    return ast


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def print_norm(ast: NormAst) -> str:
    """Canonical lowercase rendering; parse_norm(print_norm(a), a.dim) == a."""
    if isinstance(ast, L1):
        return "l1"
    if isinstance(ast, LInf):
        return "linf"
    if isinstance(ast, Lp):
        return f"lp({_fmt(ast.p)})"
    if isinstance(ast, WLp):
        return f"wlp({_fmt(ast.p)}; " + ", ".join(_fmt(w) for w in ast.weights) + ")"
    if isinstance(ast, Max):
        return f"max({print_norm(ast.left)}, {print_norm(ast.right)})"
    if isinstance(ast, Sum):
        return f"sum({print_norm(ast.left)}, {print_norm(ast.right)})"
    if isinstance(ast, Scale):
        return f"scale({_fmt(ast.c)}, {print_norm(ast.inner)})"
    raise TypeError(f"not a norm node: {ast!r}")
