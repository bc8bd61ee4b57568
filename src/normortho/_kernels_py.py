"""Pure Python tape interpreter, twin of the compiled extension `_kernels`.

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
- `image_value(matrix, x)`: N(M x), each row of M x summed exactly, as
  math.fsum sums it.
- `residual(code, a, b, u, v)`: the only copy of each orthogonality
  relation's residual.  code is the tag's position in ortho.RELATION_TAGS
  (the R_ constants of `program`): 0 birkhoff, 1 rho_plus, 2 rho_minus,
  3 rho, 4 rho_lambda, 5 rho_ab, 6 isosceles, 7 pythagorean, 8 semi.  a
  is lambda (rho_lambda) or alpha (rho_ab), b is beta (rho_ab); the other
  codes ignore both.
- `residuals(code, a, b, u, xs)`: `[residual(code, a, b, u, x) for x in
  xs]`, as the mining scan takes it around one base vector.
- `crossing(code, a, b, u, lo, f_lo, hi, width)`: the only copy of the
  crossing bisection, theta -> residual(code, a, b, u, circle(theta))
  bisected to a sign change.
- `locus(code, a, b, u, resolution, width, point)`: the whole
  ortho_locus sweep, each row built as tuple.__new__(point, ...).
- `line_min(phi, lo, hi, iters)`: golden-section search for the minimum
  of a line evaluator phi on [lo, hi], as birkhoff_oracle runs it.
- `operator_norm(circle, matrix)`: the whole planar operator-norm sweep
  of explorer.operator_norm, its 1024-point grid and its golden-section
  refinement, for the domain's circle and an n x 2 matrix.

A derivative runs in two passes.  The base pass at u (`_base` here,
`base_of` in the C twin) fills every node's value N_i(u) and, for each
wlp(p) leaf, the coefficients w_j pow(|u_j| / N_i(u), p - 1): the
derivative's only pow calls.  The direction pass along v (`_derivs`,
`derivs_of`) adds c_j v_j where u_j > 0 and subtracts it where u_j < 0,
the rounding of w_j pow(...) v_j.  derivs and residual run one of each;
residuals, crossing and locus run the base pass once for their base
vector u and a direction pass per point, so N(u), which pythagorean also
reads, is evaluated once per call.  residuals and the locus grid share
one loop (`residuals_of` in the C twin).

line_min and operator_norm share the one copy of the golden-section
search (`_golden` here, `golden` in the C twin).  The compiled twin runs a
compiled line evaluator and a compiled Program's own circle inline; any
other callable (a tracing proxy's, say) is called, with the same bits.
operator_norm calls circle and sums the image rows once per point.
The tape (kinds, params, weights, dim) is as `program.compile_ast` gives
it; each twin derives the nodes' children (`left`, `right`) and weight
offsets (`woff`) at load, in the one stack pass that checks the tape and
raises the same ValueError texts in both.  The tape has four leaf kinds:
l2, and wlp with p = 1, inf or finite p (`compile_ast` gives l1, linf and
lp unit weights).  `_value` here and `value_of` in the C twin hold the
only copy of each leaf formula.

SplitMix64 is the seeded random stream; both twins draw the same bits.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import DimensionMismatchError, NonSmoothPointError, ZeroVectorError
from .program import (
    K_L2, K_WLP1, K_WLPINF, K_WLPP, K_MAX, K_SUM, K_SCALE,
    R_BIRKHOFF, R_RHO_PLUS, R_RHO_MINUS, R_RHO, R_RHO_LAMBDA, R_RHO_AB,
    R_ISOSCELES, R_PYTHAGOREAN, R_SEMI,
)

# relative band for linf active sets and max-combinator ties
_TIE = 1e-12

# |rho_+ - rho_-| band, relative to the larger, treated as smooth by semi
_SMOOTH_TOL = 1e-12

# operands each kind pops off the tape's value stack
_ARITY = (0, 0, 0, 0, 2, 2, 1)


class Program:
    __slots__ = ("kinds", "params", "woff", "weights", "left", "right", "dim", "n", "_wlpp")

    def __init__(self, kinds, params, weights, dim):
        self.kinds = tuple(kinds)
        self.params = tuple(params)
        self.weights = tuple(weights)
        self.dim = dim = int(dim)
        self.n = n = len(self.kinds)
        if n < 1 or len(self.params) != n:
            raise ValueError("kinds and params must have the same length n >= 1")
        left, right, woff, stack, used = [-1] * n, [-1] * n, [0] * n, [], 0
        for i, k in enumerate(self.kinds):
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
        if len(self.weights) != used:
            raise ValueError(f"the weight pool holds {len(self.weights)}, "
                             f"the weighted leaves take {used}")
        self.woff, self.left, self.right = tuple(woff), tuple(left), tuple(right)
        # the wlp(p) leaves, whose coefficients the base pass computes
        self._wlpp = tuple([i for i, k in enumerate(self.kinds) if k == K_WLPP])

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
        return self._value(u, [0.0] * self.n)

    def _value(self, u, vals) -> float:
        dim = self.dim
        for i in range(self.n):
            k = self.kinds[i]
            if k == K_L2:
                m = 0.0
                for j in range(dim):
                    a = abs(u[j])
                    if a > m:
                        m = a
                if m == 0.0:
                    vals[i] = 0.0
                else:
                    s = 0.0
                    for j in range(dim):
                        r = u[j] / m
                        s += r * r
                    vals[i] = m * math.sqrt(s)
            elif k == K_WLP1:
                wo = self.woff[i]
                s = 0.0
                for j in range(dim):
                    s += self.weights[wo + j] * abs(u[j])
                vals[i] = s
            elif k == K_WLPINF:
                wo = self.woff[i]
                m = 0.0
                for j in range(dim):
                    a = self.weights[wo + j] * abs(u[j])
                    if a > m:
                        m = a
                vals[i] = m
            elif k == K_WLPP:
                # scaled by the max coordinate so u far from unit scale
                # neither overflows nor underflows pow
                p = self.params[i]
                wo = self.woff[i]
                m = 0.0
                for j in range(dim):
                    a = abs(u[j])
                    if a > m:
                        m = a
                if m == 0.0:
                    vals[i] = 0.0
                else:
                    s = 0.0
                    for j in range(dim):
                        s += self.weights[wo + j] * math.pow(abs(u[j]) / m, p)
                    vals[i] = m * math.pow(s, 1.0 / p)
            elif k == K_MAX:
                a = vals[self.left[i]]
                b = vals[self.right[i]]
                vals[i] = a if a >= b else b
            elif k == K_SUM:
                vals[i] = vals[self.left[i]] + vals[self.right[i]]
            else:  # K_SCALE
                vals[i] = self.params[i] * vals[self.left[i]]
        return vals[self.n - 1]

    # -- one-sided derivatives ----------------------------------------------

    def _check_pair(self, u, v) -> None:
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(u)} and {len(v)}"
            )

    def derivs(self, u, v):
        """(N(u), D+, D-) of t -> N(u + t v) at t = 0."""
        # _check_pair inline: this is the hot path
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(u)} and {len(v)}"
            )
        n = self.n
        vals = self._base(u)
        dps = [0.0] * n
        dms = [0.0] * n
        self._derivs(u, vals, v, dps, dms)
        last = n - 1
        return vals[last], dps[last], dms[last]

    def _base(self, u):
        """The base pass at u: vals holding N_i(u) of every node, then, at
        n + i dim + j for each wlp(p) leaf i nonzero at u and each u_j !=
        0, w_j pow(|u_j| / N_i(u), p - 1).  These are the derivative's only
        pow calls."""
        n = self.n
        dim = self.dim
        vals = [0.0] * (n + n * dim)
        self._value(u, vals)
        for i in self._wlpp:
            val = vals[i]
            if val != 0.0:
                pm1 = self.params[i] - 1.0
                wo = self.woff[i]
                c = n + i * dim
                for j in range(dim):
                    uj = u[j]
                    if uj != 0.0:
                        vals[c + j] = self.weights[wo + j] * math.pow(abs(uj) / val, pm1)
        return vals

    def _derivs(self, u, vals, v, dps, dms) -> None:
        # The direction pass along v, from _base's vals at u.  A leaf that
        # is 0 at u has N(u + t v) = |t| N(v), so D+- = +-N(v); vvals holds
        # N at v of every node, filled at the first such leaf.
        dim = self.dim
        vvals = None
        for i in range(self.n):
            k = self.kinds[i]
            val = vals[i]
            if (k == K_L2 or k == K_WLPINF or k == K_WLPP) and val == 0.0:
                if vvals is None:
                    vvals = [0.0] * self.n
                    self._value(v, vvals)
                dps[i] = vvals[i]
                dms[i] = -vvals[i]
            elif k == K_L2:
                s = 0.0
                for j in range(dim):
                    s += u[j] * v[j]
                d = s / val
                dps[i] = d
                dms[i] = d
            elif k == K_WLP1:
                wo = self.woff[i]
                sp = 0.0
                sa = 0.0
                for j in range(dim):
                    w = self.weights[wo + j]
                    uj = u[j]
                    if uj > 0.0:
                        sp += w * v[j]
                    elif uj < 0.0:
                        sp -= w * v[j]
                    else:
                        sa += w * abs(v[j])
                dps[i] = sp + sa
                dms[i] = sp - sa
            elif k == K_WLPINF:
                wo = self.woff[i]
                thr = (1.0 - _TIE) * val
                dp = -math.inf
                dm = math.inf
                for j in range(dim):
                    w = self.weights[wo + j]
                    uj = u[j]
                    if w * abs(uj) >= thr:
                        g = w * v[j] if uj > 0.0 else -w * v[j]
                        if g > dp:
                            dp = g
                        if g < dm:
                            dm = g
                dps[i] = dp
                dms[i] = dm
            elif k == K_WLPP:
                c = self.n + i * dim
                d = 0.0
                for j in range(dim):
                    uj = u[j]
                    if uj > 0.0:
                        d += vals[c + j] * v[j]
                    elif uj < 0.0:
                        d -= vals[c + j] * v[j]
                dps[i] = d
                dms[i] = d
            elif k == K_MAX:
                lc = self.left[i]
                rc = self.right[i]
                a = vals[lc]
                b = vals[rc]
                m = a if a >= b else b
                if abs(a - b) <= _TIE * m:
                    # tied children: one-sided derivative of a max of two
                    # functions equal at 0 is max of D+ and min of D-
                    dps[i] = dps[lc] if dps[lc] >= dps[rc] else dps[rc]
                    dms[i] = dms[lc] if dms[lc] <= dms[rc] else dms[rc]
                elif a > b:
                    dps[i] = dps[lc]
                    dms[i] = dms[lc]
                else:
                    dps[i] = dps[rc]
                    dms[i] = dms[rc]
            elif k == K_SUM:
                lc = self.left[i]
                rc = self.right[i]
                dps[i] = dps[lc] + dps[rc]
                dms[i] = dms[lc] + dms[rc]
            else:  # K_SCALE
                c = self.params[i]
                lc = self.left[i]
                dps[i] = c * dps[lc]
                dms[i] = c * dms[lc]

    # -- planar sweeps and matrix images -------------------------------------

    def circle(self, theta):
        """(cos theta, sin theta) / N(cos theta, sin theta) of a planar norm."""
        if self.dim != 2:
            raise ValueError(f"circle needs a 2-dimensional norm, got dim {self.dim}")
        d0 = math.cos(theta)
        d1 = math.sin(theta)
        r = self._value((d0, d1), [0.0] * self.n)
        return (d0 / r, d1 / r)

    def image_value(self, matrix, x) -> float:
        """N(M x); each row of M x is summed exactly, as math.fsum sums it."""
        if len(matrix) != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {len(matrix)}")
        cols = len(x)
        y = []
        for row in matrix:
            if len(row) != cols:
                raise ValueError(f"expected rows of {cols} entries, got {len(row)}")
            y.append(math.fsum(map(operator.mul, row, x)))
        return self._value(y, [0.0] * self.n)

    # -- orthogonality relations ---------------------------------------------

    def residual(self, code, a, b, u, v) -> float:
        """Residual of relation code at (u, v); zero (<= 0 for birkhoff) where it holds."""
        code, a, b = _relation(code, a, b)
        # _check_pair inline: this is the hot path
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(u)} and {len(v)}"
            )
        return self._residual_at(code, a, b, u, self._relation_base(code, u), v)

    def _relation_base(self, code, u):
        """The base pass of relation code at u: _base's vals for the
        relations made of derivatives, N_i(u) alone for pythagorean, None
        for isosceles."""
        if code == R_ISOSCELES:
            return None
        if code == R_PYTHAGOREAN:
            vals = [0.0] * self.n
            self._value(u, vals)
            return vals
        return self._base(u)

    def _sweep(self, code, a, b, u):
        """v -> residual(code, a, b, u, v), with the base pass at u run once, now."""
        return functools.partial(self._residual_at, code, a, b, u, self._relation_base(code, u))

    def _residual_at(self, code, a, b, u, vals, v) -> float:
        # the direction pass along v, from _relation_base's pass at u
        n = self.n
        if code == R_ISOSCELES:
            work = [0.0] * n
            plus = self._value(tuple(map(operator.add, u, v)), work)
            return plus - self._value(tuple(map(operator.sub, u, v)), work)
        val = vals[n - 1]
        if code == R_PYTHAGOREAN:
            work = [0.0] * n
            diff = self._value(tuple(map(operator.sub, u, v)), work)
            nv = self._value(v, work)
            # products, not ** 2: float ** raises OverflowError past ~1.3e154
            return diff * diff - (val * val + nv * nv)
        dps = [0.0] * n
        dms = [0.0] * n
        self._derivs(u, vals, v, dps, dms)
        rm = val * dms[n - 1]
        rp = val * dps[n - 1]
        if code == R_BIRKHOFF:
            return max(rm, -rp)
        if code == R_RHO_PLUS:
            return rp
        if code == R_RHO_MINUS:
            return rm
        if code == R_RHO:
            return (rm + rp) / 2.0
        if code == R_RHO_LAMBDA:
            return a * rm + (1.0 - a) * rp
        if code == R_RHO_AB:
            return a * rm + b * rp
        # R_SEMI: the semi-inner product [v, u] = rho_+(u, v), where smooth
        if val == 0.0:
            raise ZeroVectorError("semi-inner product needs a nonzero second argument")
        if abs(rp - rm) > _SMOOTH_TOL * max(abs(rm), abs(rp)):
            raise NonSmoothPointError(
                f"norm is not smooth at this point: rho_+ = {rp!r} differs from rho_- = {rm!r}"
            )
        return rp

    # -- planar loci ---------------------------------------------------------

    def _sweep_args(self, code, a, b, u):
        """code, a and b as residual reads them, and u as dim floats."""
        code, a, b = _relation(code, a, b)
        if len(u) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(u)}")
        return code, a, b, tuple([_double(c) for c in u])

    def residuals(self, code, a, b, u, xs):
        """[residual(code, a, b, u, x) for x in xs], with the base pass at u run once.

        code, a, b and u are read as locus reads them.  Every point of xs
        is read as dim floats, its length checked as residual checks v's,
        before the first residual is taken.
        """
        code, a, b, u = self._sweep_args(code, a, b, u)
        dim = self.dim
        pts = []
        for x in xs:
            if len(x) != dim:
                raise ValueError(f"expected {dim} coordinates, got {dim} and {len(x)}")
            pts.append(tuple([_double(c) for c in x]))
        return list(map(self._sweep(code, a, b, u), pts))

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
        return self._bisect(self._sweep(code, a, b, u), lo, f_lo, hi, width)

    def _bisect(self, residual, lo, f_lo, hi, width) -> float:
        # crossing's bisection; residual is _sweep's v -> residual(..., v)
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            f_mid = residual(self.circle(mid))
            if f_mid == 0.0:
                return mid
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def locus(self, code, a, b, u, resolution, width, point):
        """Rows (theta, x, y, residual, is_zero_crossing) along the planar unit circle.

        Each row is relation code's, built as tuple.__new__(point, ...).
        The circle points at theta_j = j * step, step = 2 pi / resolution,
        come first, then every residual there, one base pass and a
        direction pass per point as residuals takes them; each strict sign
        change to the next point (cyclically) is bisected by crossing's
        search to within width and its row spliced in after the point's.
        """
        code, a, b, u = self._sweep_args(code, a, b, u)
        resolution = _count(resolution, "resolution", 1)
        width = _double(width)
        if not (isinstance(point, type) and issubclass(point, tuple)):
            raise TypeError(f"point must be a tuple subclass, got {point!r}")
        circle = self.circle
        residual = self._sweep(code, a, b, u)
        new = tuple.__new__
        step = 2.0 * math.pi / resolution
        thetas = [j * step for j in range(resolution)]
        xs = list(map(circle, thetas))
        residuals = list(map(residual, xs))
        points = []
        for j, theta in enumerate(thetas):
            x = xs[j]
            res = residuals[j]
            points.append(new(point, (theta, x[0], x[1], res, res == 0.0)))
            nxt = residuals[(j + 1) % resolution]
            if res == 0.0 or nxt == 0.0 or (res > 0.0) == (nxt > 0.0):
                continue
            cross = self._bisect(residual, theta, res, theta + step, width)
            x = circle(cross)
            points.append(new(point, (cross, x[0], x[1], residual(x), True)))
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

        circle(theta) is the domain's unit-circle point at a Euclidean
        angle, a pair of floats, and matrix M has dim rows of 2 entries,
        read as floats.  The gain N(M circle(theta)), each row of M x
        summed as math.fsum sums it, is taken at theta_j = j * step, step =
        2 pi / 1024; its first largest value is refined by 80 steps of
        _golden over [theta_j - step, theta_j + step], and the larger of
        the two is kept (the refinement on a tie), with circle at its
        angle.
        """
        if len(matrix) != self.dim:
            raise ValueError(f"expected {self.dim} rows, got {len(matrix)}")
        rows = []
        for row in matrix:
            if len(row) != 2:
                raise ValueError(f"expected rows of 2 entries, got {len(row)}")
            rows.append((_double(row[0]), _double(row[1])))
        value = self._value
        vals = [0.0] * self.n
        fsum = math.fsum

        def gain(theta):
            x0, x1 = circle(theta)
            return value([fsum((r0 * x0, r1 * x1)) for r0, r1 in rows], vals)

        step = 2.0 * math.pi / 1024
        best_j = 0
        best = -1.0
        for j in range(1024):
            g = gain(j * step)
            if g > best:
                best, best_j = g, j
        theta0 = best_j * step
        # negation is exact, so minimizing -gain takes the branches maximizing gain would
        theta, lowest = _golden(lambda t: -gain(t), theta0 - step, theta0 + step, 80)
        norm = -lowest
        if not norm >= best:
            norm, theta = best, theta0
        x0, x1 = circle(theta)
        return norm, (x0, x1)

    # -- line restriction ----------------------------------------------------

    def line_evaluator(self, u, v):
        """Callable phi with phi(t) = N(u + t v); buffers reused per call."""
        self._check_pair(u, v)
        uu = tuple(float(x) for x in u)
        vv = tuple(float(x) for x in v)
        dim = self.dim
        buf = [0.0] * dim
        scratch = [0.0] * self.n
        value = self._value

        def phi(t: float) -> float:
            for j in range(dim):
                buf[j] = uu[j] + t * vv[j]
            return value(buf, scratch)

        return phi


def _double(x) -> float:
    """x as the compiled twin reads a double (PyFloat_AsDouble): a number,
    never a string or None; ldexp(x, 0) is x."""
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
        return tuple([self.uniform(lo, hi) for _ in range(dim)])

    def substream(self, index: int) -> "SplitMix64":
        """Independent child stream; deterministic in (seed, index)."""
        child = SplitMix64((self._state ^ (index * _GAMMA)) & _MASK)
        child.next_u64()
        return child
