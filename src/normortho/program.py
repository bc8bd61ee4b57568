"""Flatten norm trees into a tape both execution backends interpret.

`compile_ast` describes the tape.  Keeping a single canonical
instruction encoding lets the compiled and pure Python interpreters share
operation order exactly, which keeps their results within rounding of
each other.  The R_ constants number the orthogonality relations that
`Program.residual` computes, in ortho.RELATION_TAGS order.
"""

from __future__ import annotations

import math

from . import normast

__all__ = [
    "K_L2",
    "K_WLP1",
    "K_WLPINF",
    "K_WLPP",
    "K_MAX",
    "K_SUM",
    "K_SCALE",
    "R_BIRKHOFF",
    "R_RHO_PLUS",
    "R_RHO_MINUS",
    "R_RHO",
    "R_RHO_LAMBDA",
    "R_RHO_AB",
    "R_ISOSCELES",
    "R_PYTHAGOREAN",
    "R_SEMI",
    "compile_ast",
]

K_L2, K_WLP1, K_WLPINF, K_WLPP, K_MAX, K_SUM, K_SCALE = range(7)

# relation codes of Program.residual: each tag's position in
# ortho.RELATION_TAGS
(R_BIRKHOFF, R_RHO_PLUS, R_RHO_MINUS, R_RHO, R_RHO_LAMBDA, R_RHO_AB,
 R_ISOSCELES, R_PYTHAGOREAN, R_SEMI) = range(9)


def compile_ast(ast: normast.NormAst):
    """Return the tape (kinds, params, weights, dim) of ast.

    The tape is a post-order program over a stack of node values: each
    node pops its operands (two for K_MAX and K_SUM, one for K_SCALE,
    none for a leaf) and pushes its own value, so children precede their
    parent and the last node is the root.  kinds and params hold one
    entry per node; params holds the exponent of a K_WLPP node and the
    factor of a K_SCALE node, 0.0 elsewhere.  Each weighted leaf (K_WLP1,
    K_WLPINF, K_WLPP) takes the next dim weights of the shared pool, in
    node order.  Each Program twin derives its nodes' children and weight
    offsets from this order when it loads the tape.

    l1, linf and lp(p) compile as wlp(1), wlp(inf) and wlp(p) with a run
    of dim unit weights: 1.0 * x == x exactly, so each rounds as its own
    formula would.  lp(2) keeps K_L2, whose r*r/sqrt value and u.v/N
    derivative round differently from wlp(2).
    """
    kinds: list[int] = []
    params: list[float] = []
    weights: list[float] = []

    def emit(kind: int, param: float = 0.0) -> None:
        kinds.append(kind)
        params.append(param)

    def wlp(p: float, ws) -> None:
        weights.extend(ws)
        if p == 1.0:
            emit(K_WLP1)
        elif math.isinf(p):
            emit(K_WLPINF)
        else:
            emit(K_WLPP, p)

    def walk(node: normast.NormAst) -> None:
        if isinstance(node, normast.L1):
            wlp(1.0, (1.0,) * node.dim)
        elif isinstance(node, normast.LInf):
            wlp(math.inf, (1.0,) * node.dim)
        elif isinstance(node, normast.Lp):
            if node.p == 2.0:
                emit(K_L2)
            else:
                wlp(node.p, (1.0,) * node.dim)
        elif isinstance(node, normast.WLp):
            wlp(node.p, node.weights)
        elif isinstance(node, (normast.Max, normast.Sum)):
            walk(node.left)
            walk(node.right)
            emit(K_MAX if isinstance(node, normast.Max) else K_SUM)
        elif isinstance(node, normast.Scale):
            walk(node.inner)
            emit(K_SCALE, node.c)
        else:
            raise TypeError(f"not a norm node: {node!r}")

    walk(ast)
    return tuple(kinds), tuple(params), tuple(weights), ast.dim
