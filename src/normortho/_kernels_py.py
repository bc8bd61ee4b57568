"""Pure Python twin of the compiled extension `_kernels`.

This docstring describes Program and SplitMix64 for both twins.  They run
the same operations in the same order; when touching a formula here,
change `_kernels.c` identically.  math.pow and math.sqrt are used so both
backends route through the same libm entry points.

A Program evaluates one fixed norm expression N through twelve methods:

- `vectors(*coords)`: the public entries' boundary check, each argument
  as a tuple of finite floats of the norm's dimension.
- `value(u)`: N(u).
- `derivs(u, v)`: the triple (value, D+, D-) of the map t -> N(u + t v)
  at t = 0; one-sided derivatives exist everywhere because every node is
  convex.
- `line_evaluator(u, v)`: a callable phi with phi(t) = N(u + t v).
- `circle(theta)`: the point of a planar norm's unit sphere at a
  Euclidean angle.
- `image(matrix, x)`: M x as a tuple, each row summed exactly, as
  math.fsum sums it, every entry of matrix and x read as a double.
- `residual(code, a, b, u, v)`: the only copy of each orthogonality
  relation's residual.  code is the tag's position in
  program.RELATION_TAGS (the R_ constants): 0 birkhoff, 1 rho_plus,
  2 rho_minus, 3 rho, 4 rho_lambda, 5 rho_ab, 6 isosceles,
  7 pythagorean, 8 semi.  a is lambda (rho_lambda) or alpha (rho_ab), b
  is beta (rho_ab); the other codes ignore both.
- `residuals(code, a, b, u, resolution)`: `[residual(code, a, b, u,
  circle(j * 2 pi / resolution)) for j < resolution]`, the grid and loop
  of locus, as the mining scan takes it around one base vector.
- `crossing(code, a, b, u, lo, f_lo, hi, width)`: the only copy of the
  crossing bisection, theta -> residual(code, a, b, u, circle(theta))
  bisected to a sign change.
- `locus(code, a, b, u, resolution, width)`: the whole ortho_locus
  sweep, its grid read from the Program's ring, each row a
  program.LocusPoint.
- `line_min(phi, lo, hi, iters)`: golden-section search for the minimum
  of a line evaluator phi on [lo, hi], as birkhoff_oracle runs it.
- `operator_norm(circle, matrix)`: the whole planar operator-norm sweep
  of explorer.operator_norm, its 1024-point grid and its golden-section
  refinement, for an n x 2 matrix and the domain Program's own bound
  circle, of the same twin; any other circle is a TypeError.

A derivative runs in two passes.  The base pass at u (`value(u, True)`
here, `base_of` in the C twin) fills every node's value N_i(u) and, for each
wlp(p) leaf, the coefficients w_j pow(|u_j| / N_i(u), p - 1): the
derivative's only pow calls.  The direction pass along v (`dirs`,
`derivs_of`) adds c_j v_j where u_j > 0 and subtracts it where u_j < 0,
the rounding of w_j pow(...) v_j.  derivs and residual run one of each;
residuals, crossing and locus run the base pass once for their base
vector u and a direction pass per point, so N(u), which pythagorean also
reads, is evaluated once per call.  residuals and the locus grid share
one loop (`residuals_of` in the C twin, `_residual_column` here).

line_min and operator_norm share the one copy of the golden-section
search (`_golden` here, `golden` in the C twin).  The compiled twin runs a
compiled line evaluator inline; line_min calls any other phi (a tracing
proxy's, say), with the same bits.  Every planar sweep (residuals, locus,
operator_norm) takes all of the Program's ring, circle(j * 2 pi / n) for
j < n, before its first residual or gain (`_ring`, `ring`; kept unless it
raises).  One process-wide LRU keyed on (Program, n), each key holding its
Program, keeps at most 32 rings of at most 1024 points (512 KiB), here as
array('d') columns x and y that the sweeps map over.  This twin builds a
ring column by column, with circle's operations in its order: the cos
and sin columns, one values pass over their points, then the divisions.
The C twin's ring
also keeps, once locus has read it, each point's theta, x and y as floats
that every locus row on it shares (about 96 B more a point, about 3 MiB
more when all 32 are locus rings of 1024 points).
The tape (kinds, params, weights, dim) is as `program.compile_ast` gives
it; each twin derives the nodes' children (`left`, `right`) and weight
offsets (`woff`) at load, in the one stack pass that checks the tape and
raises the same ValueError texts in both.  The tape has four leaf kinds:
l2, and wlp with p = 1, inf or finite p (`compile_ast` gives l1, linf and
lp unit weights).  `_VALUE` here and `value_of` in the C twin hold the
only copy of each leaf formula.

The C twin interprets the tape node by node.  This twin runs straight-line
Python instead, generated once per tape shape (kinds, dim) and process by a
`_Shape`, which the bounded cache `_shape` holds.  Its constructor runs the
stack pass and writes, from the per-kind templates `_VALUE` and
`_DIRECTION`, node by node in tape order, the text every pass shares, once:
the value pass at a point z (N_i(z) into n{i}), the direction pass along x
from a base pass at u, the node values that base pass holds, and the tape
numbers each piece reads.  The coordinates are unrolled up to dim `_UNROLL`
and looped over above it, and each template keeps the C twin's operations
in its order.  Each pass is a head, the pieces it runs and a tail; P and W
are a tape's params and weights, which it reads once per call:

- `bind(P, W)`: a tape's (value, dirs, line).  value(z) is N(z) and
  value(z, True) the base pass: the node values dirs reads, then each
  wlp(p) leaf's coefficients (None where the leaf is 0, and everywhere
  for value(z, False)).  dirs(u, B, x) is derivs from B, the base pass at
  u, and line(u, x) is line_evaluator's phi.
- `values(P, W, points)`: the list of N at each point, in one loop.
- `directions(P, W, value, u, B, points)`: the columns (N(u) D-, N(u) D+)
  along each point from one base pass B at u, with the bound value for a
  leaf that is 0 at u, in one loop.
- `circle_residual(P, W, value, u, B, formula, a, b, kind)`, planar:
  at(theta), the residual of relation kind at circle(theta) from B,
  `_relation_base`'s pass at u: formula (a `_RESIDUAL` lambda) of the
  numbers the relation reads there, with circle's value pass and the
  direction pass inline (isosceles and pythagorean read N at their two
  points with one values call).  at(theta, True) is (residual, x, y),
  (x, y) = circle(theta): a crossing row's numbers, from one value pass.
- `gain(P, W, dvalue, rows)`: at(theta), -N(M x) at x, the domain circle's
  point (dvalue is the domain's bound value), each row (r0, r1) of M
  summed with one add while every row of M x sums finitely, else with
  math.fsum, row by row.

residuals, the locus grid, the ring build and operator_norm's 1024 gains
each run one loop pass, and each relation's formula (`_FORMULAS`) is
compiled twice, for one point and over the columns, so a planar sweep makes
no Python call per grid point.  The crossing bisection (`_bisect`) steps on
circle_residual and operator_norm's golden refinement on gain, so each step
is one generated frame.  The shape's constructor compiles bind, which each
Program binds to its own params and weights at load; every other pass is
compiled at its first use by any Program of the shape, into the shape's one
namespace, so a process that only takes values and derivatives compiles
none of them.  The text holds only kinds, node indices, dim and two
relation codes, never a number of the tape.

SplitMix64 is the seeded random stream; both twins draw the same bits.
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from collections import OrderedDict
from itertools import chain, compress, repeat

from .errors import DimensionMismatchError, NonSmoothPointError, ZeroVectorError
from .program import (
    K_L2, K_WLP1, K_WLPINF, K_WLPP, K_MAX, K_SUM, K_SCALE, LocusPoint,
    R_BIRKHOFF, R_RHO_PLUS, R_RHO_MINUS, R_RHO, R_RHO_LAMBDA, R_RHO_AB,
    R_ISOSCELES, R_PYTHAGOREAN, R_SEMI,
)

# relative band for linf active sets and max-combinator ties
_TIE = 1e-12

# |rho_+ - rho_-| band, relative to the larger, treated as smooth by semi
_SMOOTH_TOL = 1e-12

# operands each kind pops off the tape's value stack
_ARITY = (0, 0, 0, 0, 2, 2, 1)

# coordinates are unrolled up to this dim and looped over above it.
# Unrolled passes run faster per call at every dim timed (1.5-3.5x at dim
# 2, 1.1-2.4x at dim 16), but their text, and so a new shape's compile,
# grows with dim: 0.9-1.2x the looped compile at dims 2-3, 1.3-1.6x at
# 4-5 and 1.5-3.3x at 6-16.
_UNROLL = 4

# Each node kind's lines in the value pass (N_i(u) into n{i}) and in the
# direction pass ((D+, D-) into dp{i}, dm{i}); {l} and {r} are the node's
# children.  A line starting with @ runs once per coordinate j, with {u}
# u_j, {a} |u_j|, {x} v_j, {w} the leaf's weight w_j and {c} its base-pass
# coefficient.  m is max_j |u_j| in the value pass: wlp(p) scales by it so
# u far from unit scale neither overflows nor underflows pow.
_VALUE = {
    K_L2: """
if m == 0.0:
    n{i} = 0.0
else:
    s = 0.0
    @r = {u} / m
    @s += r * r
    n{i} = m * sqrt(s)""",
    K_WLP1: """
s = 0.0
@s += {w} * {a}
n{i} = s""",
    K_WLPINF: """
n{i} = 0.0
@t = {w} * {a}
@if t > n{i}:
@    n{i} = t""",
    K_WLPP: """
if m == 0.0:
    n{i} = 0.0
else:
    s = 0.0
    @s += {w} * pow({a} / m, p{i})
    n{i} = m * pow(s, 1.0 / p{i})""",
    K_MAX: "n{i} = n{l} if n{l} >= n{r} else n{r}",
    K_SUM: "n{i} = n{l} + n{r}",
    K_SCALE: "n{i} = p{i} * n{l}",
}
_DIRECTION = {
    K_L2: """
s = 0.0
@s += {u} * {x}
dp{i} = dm{i} = s / n{i}""",
    K_WLP1: """
sp = 0.0
sa = 0.0
@if {u} > 0.0:
@    sp += {w} * {x}
@elif {u} < 0.0:
@    sp -= {w} * {x}
@else:
@    sa += {w} * abs({x})
dp{i} = sp + sa
dm{i} = sp - sa""",
    K_WLPINF: """
t = (1.0 - TIE) * n{i}
dp{i} = -inf
dm{i} = inf
@if {w} * abs({u}) >= t:
@    g = {w} * {x} if {u} > 0.0 else -{w} * {x}
@    if g > dp{i}:
@        dp{i} = g
@    if g < dm{i}:
@        dm{i} = g""",
    K_WLPP: """
d = 0.0
@if {u} > 0.0:
@    d += {c} * {x}
@elif {u} < 0.0:
@    d -= {c} * {x}
dp{i} = dm{i} = d""",
    # tied children: the one-sided derivative of a max of two functions
    # equal at 0 is the max of their D+ and the min of their D-
    K_MAX: """
m = n{l} if n{l} >= n{r} else n{r}
if abs(n{l} - n{r}) <= TIE * m:
    dp{i} = dp{l} if dp{l} >= dp{r} else dp{r}
    dm{i} = dm{l} if dm{l} <= dm{r} else dm{r}
elif n{l} > n{r}:
    dp{i} = dp{l}
    dm{i} = dm{l}
else:
    dp{i} = dp{r}
    dm{i} = dm{r}""",
    K_SUM: """
dp{i} = dp{l} + dp{r}
dm{i} = dm{l} + dm{r}""",
    K_SCALE: """
dp{i} = p{i} * dp{l}
dm{i} = p{i} * dm{l}""",
}
# A leaf that is 0 at u has N(u + t v) = |t| N(v), so D+- = +-N(v).  V is
# the base pass's node values at v, run at the first such leaf; {k} is the
# leaf's place in them and {v} the direction.
_ZERO = """
if n{i} == 0.0:
    V = V or value({v}, False)
    dp{i} = V[{k}]
    dm{i} = -V[{k}]
else:"""
# the sequence each coordinate column is read from in a loop
_SEQS = {"u": "u", "a": "a", "x": "x", "w": "W{i}", "c": "C{i}"}


def _unrolled(dim) -> bool:
    return 1 <= dim <= _UNROLL


def _names(col, dim) -> str:
    """Column col as a pass holds it: one local per coordinate, unrolled."""
    return "".join(f"{col}{j}, " for j in range(dim)).rstrip() if _unrolled(dim) else col


def _loop(text, point) -> str:
    """The `for` clause over the coordinate columns text reads, the {u}
    column read from the sequence point."""
    cols = [c for c in _SEQS if "{" + c + "}" in text]
    seqs = [point if c == "u" else _SEQS[c] for c in cols]
    return (", ".join((point if c == "u" else c) + "j" for c in cols) + " in "
            + (seqs[0] if len(seqs) == 1 else f"zip({', '.join(seqs)})"))


def _coords(text, dim, point="u") -> list:
    """text with its columns named at each coordinate, or as a loop's
    variables, {u} as the coordinates of point; {i} is left to fill."""
    if _unrolled(dim):
        return [text.format(i="{i}", u=f"{point}{j}", a=f"a{j}", x=f"x{j}", w=f"w{{i}}_{j}",
                            c=f"C{{i}}[{j}]") for j in range(dim)]
    return [text.format(i="{i}", **{c: (point if c == "u" else c) + "j" for c in _SEQS})]


def _each(expr, dim, point="u") -> str:
    """expr at every coordinate: a tuple display, or a list comprehension."""
    if _unrolled(dim):
        return "(" + "".join(e + ", " for e in _coords(expr, dim, point)) + ")"
    return f"[{_coords(expr, dim, point)[0]} for {_loop(expr, point)}]"


def _expand(template, dim, point="u") -> str:
    """template with each run of @ lines once per coordinate, unrolled or
    in a loop; {i}, {l}, {r}, {k} and {v} are left to fill."""
    out = []
    lines = template.strip("\n").split("\n")
    while lines:
        line = lines.pop(0)
        body = line.lstrip()
        if not body.startswith("@"):
            out.append(line)
            continue
        indent = line[:len(line) - len(body)]
        run = [body[1:]]
        while lines and lines[0].lstrip().startswith("@"):
            run.append(lines.pop(0).lstrip()[1:])
        text = "\n".join(run)
        if not _unrolled(dim):
            out.append(f"{indent}for {_loop(text, point)}:")
            indent += "    "
        for block in _coords(text, dim, point):
            out += [indent + ln for ln in block.split("\n")]
    return "\n".join(out)


def _lines(template, dim, point="u", **fields) -> list:
    """template's lines for one node, {u} the coordinates of point."""
    return _expand(template, dim, point).format(**fields).split("\n")


def _indent(lines, depth) -> list:
    return ["    " * depth + ln for ln in lines]


class _Shape:
    """A tape shape (kinds, dim), checked, and its passes (see the module
    docstring): the weights its tapes take (used), each node's children
    (left, right) and weight offset (woff), and the text its passes share.
    """

    def __init__(self, kinds, dim):
        n = len(kinds)
        left, right, woff, stack, used = [-1] * n, [-1] * n, [0] * n, [], 0
        for i, k in enumerate(kinds):
            if not K_L2 <= k <= K_SCALE:
                raise ValueError(f"tape node {i}: unknown kind {k}")
            arity = _ARITY[k]
            if len(stack) < arity:
                raise ValueError(f"tape node {i}: kind {k} pops {arity}, "
                                 f"the stack holds {len(stack)}")
            if arity == 2:
                right[i] = stack.pop()
            if arity:
                left[i] = stack.pop()
            elif k != K_L2:
                woff[i] = used
                used += dim
            stack.append(i)
        if len(stack) != 1:
            raise ValueError(f"tape ends with {len(stack)} values on the stack, not 1")
        last = n - 1
        self.used, self.dim, self.last = used, dim, last
        self.left, self.right, self.woff = tuple(left), tuple(right), tuple(woff)
        lazy = [i for i, k in enumerate(kinds) if k in (K_L2, K_WLPINF, K_WLPP)]
        wlpp = [i for i in lazy if kinds[i] == K_WLPP]
        # the node values dirs reads, the root first, then the pow coefficients
        kept = [last] + sorted(set(lazy + [c for i, k in enumerate(kinds) if k == K_MAX
                                           for c in (left[i], right[i])]) - {last})
        self.held = "".join(f"n{i}, " for i in kept) + "".join(f"C{i}, " for i in wlpp)
        # the tape's numbers: the value pass reads every p{i} and weight,
        # the direction pass those of the other kinds than wlp(p), and
        # bind's coefficients the exponents e{i}
        self.numbers, self.dir_numbers, exps = [], [], []
        for i, k in enumerate(kinds):
            lines = [f"p{i} = P[{i}]"] if k in (K_WLPP, K_SCALE) else []
            if _ARITY[k] == 0 and k != K_L2:
                ws = f"W[{woff[i]}:{woff[i] + dim}]"
                lines.append(f"{_names(f'w{i}_', dim) if _unrolled(dim) else f'W{i}'} = {ws}")
            self.numbers += lines
            if k == K_WLPP:
                exps.append(f"e{i} = p{i} - 1.0")
            else:
                self.dir_numbers += lines
        self.bind_numbers = self.numbers + exps
        # the value pass at z, into n{i}
        self.value = [f"{_names('a', dim)} = {_each('abs({u})', dim, 'z')}"]
        if lazy:
            self.value += _lines("m = 0.0\n@if {a} > m:\n@    m = {a}", dim, "z", i=None)
        for i, k in enumerate(kinds):
            self.value += _lines(_VALUE[k], dim, "z", i=i, l=left[i], r=right[i])
        # the direction pass along x from the held values
        x = f"({_names('x', dim)})" if _unrolled(dim) else "x"
        self.direction = ["V = None"] if lazy else []
        for i, k in enumerate(kinds):
            if i in lazy:
                self.direction += _lines(_ZERO, dim, i=i, k=kept.index(i), v=x)
            self.direction += _indent(_lines(_DIRECTION[k], dim, i=i, l=left[i], r=right[i]),
                                      int(i in lazy))
        coefs = "{w} * pow({a} / n{i}, e{i}) if {u} != 0.0 else 0.0"
        self.coefs = [f"C{i} = {_each(coefs, dim, 'z').format(i=i)} if coefs and n{i} != 0.0"
                      " else None" for i in wlpp]
        self.namespace = {"sqrt": math.sqrt, "pow": math.pow, "inf": math.inf, "TIE": _TIE,
                          "cos": math.cos, "sin": math.sin, "fsum": math.fsum,
                          "isfinite": math.isfinite}
        self.bind = self.compiled("bind")

    def compiled(self, name):
        """Pass name, run into the shape's one namespace at its first use;
        circle_residual reads values from it."""
        fn = self.namespace.get(name)
        if fn is None:
            if name == "circle_residual":
                self.compiled("values")
            exec(compile(self.source(name), "<normortho tape>", "exec"), self.namespace)
            fn = self.namespace[name]
        return fn

    def source(self, name) -> str:
        """Pass name's text: its head, the shared text it runs, its tail."""
        dim, last, held = self.dim, self.last, self.held
        value, direction = self.value, self.direction
        # the coordinates of z, u and x as locals, where unrolled
        z, u, x = ([f"{_names(c, dim)} = {c}"] if _unrolled(dim) else [] for c in "zux")
        if name == "bind":
            out = ["def bind(P, W):", *_indent(self.bind_numbers, 1),
                   "    def value(z, coefs=None):", *_indent(z + value, 2),
                   "        if coefs is None:", f"            return n{last}",
                   *_indent(self.coefs, 2), f"        return {held}",
                   "    def dirs(u, B, x):", *_indent(u + [f"{held} = B"] + x + direction, 2),
                   f"        return n{last}, dp{last}, dm{last}",
                   "    def line(u, x):", *_indent(u + x, 2), "        def phi(t):",
                   f"            return value({_each('{u} + t * {x}', dim)})", "        return phi",
                   "    return value, dirs, line"]
        elif name == "values":
            out = ["def values(P, W, points):", *_indent(self.numbers, 1), "    out = []",
                   "    push = out.append", f"    for {_names('z', dim)} in points:",
                   *_indent(value, 2), f"        push(n{last})", "    return out"]
        elif name == "directions":
            out = ["def directions(P, W, value, u, B, points):",
                   *_indent(self.dir_numbers + u + [f"{held} = B"], 1), "    rm = []",
                   "    rp = []", "    push_m = rm.append", "    push_p = rp.append",
                   f"    for {_names('x', dim)} in points:", *_indent(direction, 2),
                   f"        push_m(n{last} * dm{last})", f"        push_p(n{last} * dp{last})",
                   "    return rm, rp"]
        elif name == "circle_residual":
            out = ["def circle_residual(P, W, value, u, B, formula, a, b, kind):",
                   *_indent(self.numbers + u, 1), "    def at(theta, row=False):",
                   "        z0 = cos(theta)", "        z1 = sin(theta)", *_indent(value, 2),
                   f"        x0 = z0 / n{last}", f"        x1 = z1 / n{last}",
                   f"        if kind == {R_ISOSCELES}:",
                   "            r = formula(a, b, B, *values(P, W, ((u0 + x0, u1 + x1), "
                   "(u0 - x0, u1 - x1))))",
                   f"        elif kind == {R_PYTHAGOREAN}:",
                   "            r = formula(a, b, B, *values(P, W, ((u0 - x0, u1 - x1), "
                   "(x0, x1))))",
                   "        else:", f"            {held} = B", *_indent(direction, 3),
                   f"            r = formula(a, b, n{last}, n{last} * dm{last}, "
                   f"n{last} * dp{last})",
                   "        return (r, x0, x1) if row else r", "    return at"]
        else:
            # row i of M x into z{i}, or the list z above _UNROLL
            if _unrolled(dim):
                sums = [f"z{i} = M{i}_0 * x0 + M{i}_1 * x1" for i in range(dim)]
                exact = [f"z{i} = fsum((M{i}_0 * x0, M{i}_1 * x1))" for i in range(dim)]
                total = " + ".join(f"z{i}" for i in range(dim))
                head = ["".join(f"(M{i}_0, M{i}_1), " for i in range(dim)) + "= rows"]
            else:
                sums = ["z = [r0 * x0 + r1 * x1 for r0, r1 in rows]"]
                exact = ["z = [fsum((r0 * x0, r1 * x1)) for r0, r1 in rows]"]
                total, head = "sum(z)", []
            out = ["def gain(P, W, dvalue, rows):", *_indent(self.numbers + head, 1),
                   "    def at(theta):", "        c0 = cos(theta)", "        c1 = sin(theta)",
                   "        r = dvalue((c0, c1))", "        x0 = c0 / r", "        x1 = c1 / r",
                   *_indent(sums, 2), f"        if not isfinite({total}):", *_indent(exact, 3),
                   *_indent(value, 2), f"        return -n{last}", "    return at"]
        return "\n".join(out + [""])


# the tape shapes, each read once per process while it is kept
_shape = functools.lru_cache(maxsize=256)(_Shape)


# Each relation's residual at a point v: the only copy of its formula, over
# the names of the two numbers it reads at v, from a and b (residual's) and
# n = N(u) (None for isosceles).  The relations made of derivatives read
# rm = N(u) D- and rp = N(u) D+.
_FORMULAS = {
    R_BIRKHOFF: ("rm, rp", "max(rm, -rp)"),
    R_RHO_PLUS: ("rm, rp", "rp"),
    R_RHO_MINUS: ("rm, rp", "rm"),
    R_RHO: ("rm, rp", "(rm + rp) / 2.0"),
    R_RHO_LAMBDA: ("rm, rp", "a * rm + (1.0 - a) * rp"),
    R_RHO_AB: ("rm, rp", "a * rm + b * rp"),
    R_ISOSCELES: ("plus, minus", "plus - minus"),  # N(u + v), N(u - v)
    # N(u - v), N(v); products, not ** 2: float ** raises OverflowError
    # past ~1.3e154
    R_PYTHAGOREAN: ("diff, nv", "diff * diff - (n * n + nv * nv)"),
    # the semi-inner product [v, u] = rho_+(u, v), where smooth
    R_SEMI: ("rm, rp", "zero() if n == 0.0 else kink(rm, rp) "
                       "if abs(rp - rm) > SMOOTH * max(abs(rm), abs(rp)) else rp"),
}


def _zero_vector():
    raise ZeroVectorError("semi-inner product needs a nonzero second argument")


def _not_smooth(rm, rp):
    raise NonSmoothPointError(
        f"norm is not smooth at this point: rho_+ = {rp!r} differs from rho_- = {rm!r}"
    )


def _relations(form) -> tuple:
    """Each formula in form, a lambda's text, indexed by relation code;
    {ins} and {expr} are the formula's names and its text."""
    names = {"SMOOTH": _SMOOTH_TOL, "zero": _zero_vector, "kink": _not_smooth}
    return tuple([eval(form.format(ins=ins, expr=expr), names)
                  for _, (ins, expr) in sorted(_FORMULAS.items())])


# (a, b, n, x, y) -> the residual at one point; (a, b, n, X, Y) -> the list
# of residuals at the points whose numbers are the columns X and Y, in one
# comprehension, so the first point that raises raises
_RESIDUAL = _relations("lambda a, b, n, {ins}: {expr}")
_COLUMN = _relations("lambda a, b, n, X, Y: [{expr} for {ins} in zip(X, Y)]")


class Program:
    __slots__ = ("kinds", "params", "weights", "dim", "_value", "_dirs", "_line", "_shape")

    def __init__(self, kinds, params, weights, dim):
        self.kinds = kinds = tuple(map(operator.index, kinds))
        self.params = tuple(params)
        self.weights = tuple(weights)
        self.dim = dim = int(dim)
        if not kinds or len(self.params) != len(kinds):
            raise ValueError("kinds and params must have the same length n >= 1")
        self._shape = shape = _shape(kinds, dim)
        if len(self.weights) != shape.used:
            raise ValueError(f"the weight pool holds {len(self.weights)}, "
                             f"the weighted leaves take {shape.used}")
        self._value, self._dirs, self._line = shape.bind(self.params, self.weights)

    # -- boundary ------------------------------------------------------------

    def vectors(self, *coords):
        """Each argument as a tuple of finite floats, all of length dim.

        Each converts as tuple(map(float, x)) does and is checked for a NaN
        or infinite entry before the next converts; the lengths are
        checked last.
        """
        vecs = []
        for x in coords:
            vec = tuple(map(float, x))
            for c in vec:
                if not math.isfinite(c):
                    raise ValueError(f"vector coordinates must be finite, got {c!r}")
            vecs.append(vec)
        dim = self.dim
        for vec in vecs:
            if len(vec) != dim:
                raise DimensionMismatchError(
                    f"norm consumes {dim} coordinates but vector has {len(vec)}"
                )
        return tuple(vecs)

    # -- evaluation ---------------------------------------------------------

    def value(self, u) -> float:
        """Norm of u."""
        if len(u) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(u)}")
        return self._value(u)

    # -- one-sided derivatives ----------------------------------------------

    def derivs(self, u, v):
        """(N(u), D+, D-) of t -> N(u + t v) at t = 0."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(u)} and {len(v)}"
            )
        return self._dirs(u, self._value(u, True), v)


    # -- planar sweeps and matrix images -------------------------------------

    def circle(self, theta):
        """(cos theta, sin theta) / N(cos theta, sin theta) of a planar norm."""
        if self.dim != 2:
            raise _not_planar(self.dim)
        d0 = math.cos(theta)
        d1 = math.sin(theta)
        r = self._value((d0, d1))
        return (d0 / r, d1 / r)

    def image(self, matrix, x):
        """M x as a tuple; each row of M x is summed exactly, as math.fsum sums it.

        Every entry of x and matrix is read as a double: x first, then the
        whole matrix (_matrix), and then each row is summed.
        """
        cols = len(x)
        x = array("d", tuple(x))
        return _row_sums(self._matrix(matrix, cols), x)

    def _matrix(self, matrix, cols):
        """matrix, dim rows of cols entries each, as a list of array('d') rows."""
        if len(matrix) != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {len(matrix)}")
        rows = []
        for row in matrix:
            if len(row) != cols:
                raise ValueError(f"expected rows of {cols} entries, got {len(row)}")
            rows.append(array("d", tuple(row)))
        return rows

    # -- orthogonality relations ---------------------------------------------

    def residual(self, code, a, b, u, v) -> float:
        """Residual of relation code at (u, v); zero (<= 0 for birkhoff) where it holds."""
        code, a, b = _relation(code, a, b)
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(u)} and {len(v)}"
            )
        # _relation_base's pass at u, then the relation's numbers at v
        if code == R_ISOSCELES:
            return _RESIDUAL[code](a, b, None, self._value(tuple(map(operator.add, u, v))),
                                   self._value(tuple(map(operator.sub, u, v))))
        if code == R_PYTHAGOREAN:
            return _RESIDUAL[code](a, b, self._value(u),
                                   self._value(tuple(map(operator.sub, u, v))), self._value(v))
        val, dp, dm = self._dirs(u, self._value(u, True), v)
        return _RESIDUAL[code](a, b, val, val * dm, val * dp)

    def _relation_base(self, code, u):
        """The base pass of relation code at u: the base pass for the
        relations made of derivatives, N(u) alone for pythagorean, None
        for isosceles."""
        if code == R_ISOSCELES:
            return None
        if code == R_PYTHAGOREAN:
            return self._value(u)
        return self._value(u, True)

    def _values(self, points) -> list:
        """N at each point, in one loop."""
        return self._shape.compiled("values")(self.params, self.weights, points)

    def _directions(self, u, base, points):
        """The columns (N(u) D-, N(u) D+) along each point, from base, the
        base pass at u of a planar Program, in one loop."""
        return self._shape.compiled("directions")(self.params, self.weights, self._value, u,
                                                  base, points)

    def _circle_residual(self, code, a, b, u, base):
        """theta -> residual(code, a, b, u, circle(theta)) from base,
        _relation_base's pass at u, one generated frame a step, and
        (theta, True) -> (that residual, *circle(theta)); a Program of
        another dim gets its circle, which raises at the first step, as
        circle does."""
        if self.dim != 2:
            return self.circle
        return self._shape.compiled("circle_residual")(self.params, self.weights, self._value,
                                                       u, base, _RESIDUAL[code], a, b, code)

    def _residual_column(self, code, a, b, u, base, xs, ys) -> list:
        """residual(code, a, b, u, (xs[j], ys[j])) at each point from base,
        _relation_base's pass at u, each pass run once in one loop over the
        points."""
        if code == R_ISOSCELES:
            return _COLUMN[code](a, b, None, self._values(_shifted(operator.add, u, xs, ys)),
                                 self._values(_shifted(operator.sub, u, xs, ys)))
        if code == R_PYTHAGOREAN:
            return _COLUMN[code](a, b, base, self._values(_shifted(operator.sub, u, xs, ys)),
                                 self._values(zip(xs, ys)))
        return _COLUMN[code](a, b, base[0], *self._directions(u, base, zip(xs, ys)))

    # -- planar loci ---------------------------------------------------------

    def _sweep_args(self, code, a, b, u):
        """code, a and b as residual reads them, and u as dim floats."""
        code, a, b = _relation(code, a, b)
        if len(u) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(u)}")
        return code, a, b, tuple([_double(c) for c in u])

    def residuals(self, code, a, b, u, resolution):
        """The residual of relation code at each point of the planar unit circle's grid.

        The grid, its residuals and the reading of the arguments are
        locus's: every ring point is taken before the first residual.
        """
        code, a, b, u = self._sweep_args(code, a, b, u)
        xs, ys = _ring(self, _count(resolution, "resolution", 1))
        return self._residual_column(code, a, b, u, self._relation_base(code, u), xs, ys)

    def crossing(self, code, a, b, u, lo, f_lo, hi, width) -> float:
        """A theta within width of a sign change of the residual on the circle.

        The residual is theta -> residual(code, a, b, u, circle(theta)),
        and the sign change lies inside [lo, hi].  f_lo is the residual at
        lo; it and the residual at hi must not share a strict sign.  An
        exact zero at a midpoint ends the search there, and so does a
        midpoint that is not strictly inside (lo and hi adjacent doubles),
        where the bisection could go on forever.
        """
        code, a, b, u = self._sweep_args(code, a, b, u)
        lo, f_lo, hi, width = _double(lo), _double(f_lo), _double(hi), _double(width)
        at = self._circle_residual(code, a, b, u, self._relation_base(code, u))
        return _bisect(at, lo, f_lo, hi, width)

    def locus(self, code, a, b, u, resolution, width):
        """Rows (theta, x, y, residual, is_zero_crossing) along the planar unit circle.

        Each row is relation code's, a LocusPoint built as tuple.__new__.
        The circle points at theta_j = j * step, step = 2 pi / resolution,
        come first, then every residual there, one base pass and a
        direction pass per point as residuals takes them; each strict sign
        change to the next point (cyclically) is bisected by crossing's
        search to within width and its row spliced in after the point's.

        The rows stay tracked by the cyclic GC: Python has no call that
        untracks an object, and CPython untracks only an exact tuple's, at
        its first collection.  The compiled twin untracks each row when it
        builds it, so gc.is_tracked is the only way the twins' rows differ.
        """
        code, a, b, u = self._sweep_args(code, a, b, u)
        resolution = _count(resolution, "resolution", 1)
        width = _double(width)
        base = self._relation_base(code, u)
        at = None
        step = 2.0 * math.pi / resolution
        thetas = list(map(operator.mul, range(resolution), repeat(step)))
        xs, ys = _ring(self, resolution)
        residuals = self._residual_column(code, a, b, u, base, xs, ys)
        points = list(map(tuple.__new__, repeat(LocusPoint), zip(
            thetas, xs, ys, residuals, map(operator.eq, residuals, repeat(0.0)))))
        # the strict sign changes to the next point (cyclically), bisected in order
        above = list(map(operator.gt, residuals, repeat(0.0)))
        for j in compress(range(resolution), map(operator.ne, above, above[1:] + above[:1])):
            res, nxt = residuals[j], residuals[(j + 1) % resolution]
            if res != 0.0 and nxt != 0.0:
                at = at or self._circle_residual(code, a, b, u, base)
                cross = _bisect(at, thetas[j], res, thetas[j] + step, width)
                r, x0, x1 = at(cross, True)
                row = tuple.__new__(LocusPoint, (cross, x0, x1, r, True))
                # after point j's row, past the rows spliced in before it
                points.insert(len(points) - resolution + j + 1, row)
        return points

    # -- golden-section search and planar operator norms ---------------------

    def line_min(self, phi, lo, hi, iters):
        """(t, phi(t)) for the least phi(t) a golden-section search on [lo, hi] finds.

        phi is a line evaluator, or any callable that returns floats; the
        search takes iters steps (see _golden).
        """
        return _golden(phi, _double(lo), _double(hi), _count(iters, "iters", 0))

    def operator_norm(self, circle, matrix):
        """(value, direction): the largest N(M x) a sweep of a planar unit circle finds.

        circle is the domain Program's own bound circle, of this twin
        (anything else is a TypeError), and matrix M has dim rows of 2
        entries, read as floats.  The gain N(M circle(theta)), each row of
        M x summed as math.fsum sums it, is taken at theta_j = j * step,
        step = 2 pi / 1024, on the domain's ring, taken whole first; its
        first largest value is refined by 80 steps of _golden over
        [theta_j - step, theta_j + step], and the larger of the two is kept
        (the refinement on a tie), with circle at its angle.
        """
        if (getattr(circle, "__func__", None) is not Program.circle
                or not isinstance(circle.__self__, Program)):
            raise TypeError("circle must be the bound circle of a Program of the same backend")
        rows = self._matrix(matrix, 2)
        step = 2.0 * math.pi / 1024
        xs, ys = _ring(circle.__self__, 1024)
        # each image row as a column: one add per point, the exact sum
        # where it is finite (only the sign of a zero sum can differ from
        # fsum's +0.0, and N reads each coordinate through abs or a
        # square); else every row through fsum, point by point, as
        # _row_sums takes them, so the first point that raises raises
        cols = [[r0 * x + r1 * y for x, y in zip(xs, ys)] for r0, r1 in rows]
        if not all(map(math.isfinite, map(sum, cols))):
            mul = operator.mul
            cols = [map(math.fsum, zip(map(mul, repeat(r0), xs), map(mul, repeat(r1), ys)))
                    for r0, r1 in rows]
        gains = self._values(zip(*cols))
        # the first largest gain above -1.0 (a NaN gain is never taken)
        best = max(chain((-1.0,), gains))
        best_j = gains.index(best) if best != -1.0 else 0
        theta0 = best_j * step
        # negation is exact, so minimizing -gain takes the branches maximizing gain would
        loss = self._shape.compiled("gain")(self.params, self.weights, circle.__self__._value,
                                            rows)
        theta, lowest = _golden(loss, theta0 - step, theta0 + step, 80)
        norm = -lowest
        if not norm >= best:
            norm, theta = best, theta0
        x0, x1 = circle(theta)
        return norm, (x0, x1)

    # -- line restriction ----------------------------------------------------

    def line_evaluator(self, u, v):
        """Callable phi with phi(t) = N(u + t v); u and v are read as doubles."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(u)} and {len(v)}"
            )
        return self._line([_double(x) for x in u], [_double(x) for x in v])


# (Program, n) -> ring as its columns (array('d') x, array('d') y), oldest use first
_RINGS = 32
_RING_MAX = 1024
_rings = OrderedDict()


def _ring(prog, n):
    """The columns (x, y) of prog.circle(j * 2 pi / n), j = 0, ..., n - 1:
    prog's kept ring, or computed column by column, circle's operations
    in its order, and kept if n <= _RING_MAX."""
    key = (prog, n)
    ring = _rings.pop(key, None)
    if ring is None:
        if prog.dim != 2:
            raise _not_planar(prog.dim)
        thetas = list(map(operator.mul, range(n), repeat(2.0 * math.pi / n)))
        cs = list(map(math.cos, thetas))
        ss = list(map(math.sin, thetas))
        del thetas
        radii = prog._values(zip(cs, ss))
        columns = [map(operator.truediv, c, radii) for c in (cs, ss)]
        if n > _RING_MAX:
            return tuple(map(list, columns))
        if len(_rings) >= _RINGS:
            _rings.popitem(last=False)
        # from a list, array allocates exactly n doubles; each column's
        # list is freed before the next is made
        ring = tuple([array("d", list(col)) for col in columns])
    _rings[key] = ring
    return ring


def _not_planar(dim) -> ValueError:
    return ValueError(f"circle needs a 2-dimensional norm, got dim {dim}")


def _shifted(op, u, xs, ys):
    """The points (op(u_0, x), op(u_1, y)) of the columns xs and ys."""
    return zip(map(op, repeat(u[0]), xs), map(op, repeat(u[1]), ys))


def _row_sums(rows, x) -> tuple:
    """M x as a tuple, from the rows of M and x already read as doubles, each
    row summed by math.fsum: image's row sum.  The C twin's fsum_row calls
    the same math.fsum, but for a finite two-term sum, which it takes with
    one add (the same double)."""
    return tuple([math.fsum(map(operator.mul, row, x)) for row in rows])


def _bisect(at, lo, f_lo, hi, width) -> float:
    """The only copy of the crossing bisection (see crossing), at the
    residual at circle(theta), one call a step."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = at(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _double(x) -> float:
    """x as the compiled twin reads a double (PyFloat_AsDouble): a number,
    never a string or None; ldexp(x, 0) is x.

    Its bulk form, which image and _matrix use, is array("d", tuple(seq)):
    the same values and error texts, and the tuple keeps array from taking
    a str or bytes whole."""
    return math.ldexp(x, 0)


def _count(x, name, low):
    """x as an index, which must be at least low (the C twin's load_count;
    past the Py_ssize_t range a loop never ends in either)."""
    x = operator.index(x)
    if x < low:
        raise ValueError(f"{name} must be >= {low}, got {x!r}")
    return x


# (sqrt(5) - 1) / 2
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(f, lo, hi, iters):
    """(argmin, min) of f over [lo, hi] for unimodal f, by iters
    golden-section steps; the best point evaluated is kept, so min is a
    value f takes whatever its shape.  The only copy of the search:
    line_min and operator_norm run it."""
    a, b = lo, hi
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc = f(c)
    fd = f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def _relation(code, a, b):
    """A relation code, checked, and a and b read as doubles."""
    code = operator.index(code)
    if not R_BIRKHOFF <= code <= R_SEMI:
        raise ValueError(f"unknown relation code {code!r}")
    # _double inline: every residual call runs this
    return code, math.ldexp(a, 0), math.ldexp(b, 0)


_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit PRNG with a tiny, fully documented state-transition."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        # vector runs this step, random and uniform inline: change them together
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform double in [lo, hi)."""
        lo, hi = float(lo), float(hi)
        return lo + (hi - lo) * self.random()

    def vector(self, dim: int, lo: float, hi: float) -> tuple[float, ...]:
        """Tuple of dim successive uniform(lo, hi) draws."""
        if dim < 0:
            raise ValueError(f"dim must be >= 0, got {dim}")
        lo, hi = float(lo), float(hi)
        # next_u64, random and uniform inline, the same operations in order
        span, state, out = hi - lo, self._state, []
        for _ in range(dim):
            state = (state + _GAMMA) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            out.append(lo + span * (((z ^ (z >> 31)) >> 11) * (2.0 ** -53)))
        self._state = state
        return tuple(out)

    def substream(self, index: int) -> "SplitMix64":
        """Independent child stream; deterministic in (seed, index)."""
        child = SplitMix64((self._state ^ (index * _GAMMA)) & _MASK)
        child.next_u64()
        return child
