"""Flatten norm trees into a tape both execution backends interpret.

The tape is a post-order array program: children always precede parents,
so one forward pass evaluates the tree.  Keeping a single canonical
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
    """Return the tape (kinds, params, woff, weights, left, right, dim).

    kinds, params, woff, left and right hold one entry per node.  params
    holds the exponent for K_WLPP nodes and the factor for K_SCALE nodes;
    woff is where a weighted leaf's dim weights start in the shared
    weights pool; left/right hold child tape positions (-1 if unused).

    l1, linf and lp(p) compile as wlp(1), wlp(inf) and wlp(p) with a run
    of dim unit weights: 1.0 * x == x exactly, so each rounds as its own
    formula would.  lp(2) keeps K_L2, whose r*r/sqrt value and u.v/N
    derivative round differently from wlp(2).
    """
    kinds: list[int] = []
    params: list[float] = []
    woff: list[int] = []
    left: list[int] = []
    right: list[int] = []
    weights: list[float] = []

    def emit(kind: int, param: float = 0.0, wo: int = 0,
             lc: int = -1, rc: int = -1) -> int:
        kinds.append(kind)
        params.append(param)
        woff.append(wo)
        left.append(lc)
        right.append(rc)
        return len(kinds) - 1

    def wlp(p: float, ws) -> int:
        wo = len(weights)
        weights.extend(ws)
        if p == 1.0:
            return emit(K_WLP1, wo=wo)
        if math.isinf(p):
            return emit(K_WLPINF, wo=wo)
        return emit(K_WLPP, param=p, wo=wo)

    def walk(node: normast.NormAst) -> int:
        if isinstance(node, normast.L1):
            return wlp(1.0, (1.0,) * node.dim)
        if isinstance(node, normast.LInf):
            return wlp(math.inf, (1.0,) * node.dim)
        if isinstance(node, normast.Lp):
            if node.p == 2.0:
                return emit(K_L2)
            return wlp(node.p, (1.0,) * node.dim)
        if isinstance(node, normast.WLp):
            return wlp(node.p, node.weights)
        if isinstance(node, normast.Max):
            lc = walk(node.left)
            rc = walk(node.right)
            return emit(K_MAX, lc=lc, rc=rc)
        if isinstance(node, normast.Sum):
            lc = walk(node.left)
            rc = walk(node.right)
            return emit(K_SUM, lc=lc, rc=rc)
        if isinstance(node, normast.Scale):
            lc = walk(node.inner)
            return emit(K_SCALE, param=node.c, lc=lc)
        raise TypeError(f"not a norm node: {node!r}")

    walk(ast)
    return (
        tuple(kinds),
        tuple(params),
        tuple(woff),
        tuple(weights),
        tuple(left),
        tuple(right),
        ast.dim,
    )
