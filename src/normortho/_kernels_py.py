"""Pure Python tape interpreter, twin of the compiled extension `_kernels`.

This docstring describes Program and SplitMix64 for both twins.  They run
the same operations in the same order; when touching a formula here,
change `_kernels.c` identically.  math.pow and math.sqrt are used so both
backends route through the same libm entry points.

A Program evaluates one fixed norm expression N through nine methods:

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
- `crossing(code, a, b, u, lo, f_lo, hi, width)`: the only copy of the
  crossing bisection, theta -> residual(code, a, b, u, circle(theta))
  bisected to a sign change.
- `locus(code, a, b, u, resolution, width, point)`: the whole
  ortho_locus sweep, each row built as tuple.__new__(point, ...).

The planar sweeps call circle, image_value and residual once per point.
The tape has four leaf kinds: l2, and wlp with p = 1, inf or finite p
(`compile_ast` gives l1, linf and lp unit weights).  `_value` here and
`value_of` in the C twin hold the only copy of each leaf formula.

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


class Program:
    __slots__ = ("kinds", "params", "woff", "weights", "left", "right", "dim", "n")

    def __init__(self, kinds, params, woff, weights, left, right, dim):
        self.kinds = tuple(kinds)
        self.params = tuple(params)
        self.woff = tuple(woff)
        self.weights = tuple(weights)
        self.left = tuple(left)
        self.right = tuple(right)
        self.dim = int(dim)
        self.n = n = len(self.kinds)
        if n < 1 or any(len(col) != n for col in (self.params, self.woff,
                                                  self.left, self.right)):
            raise ValueError("tape columns must all have the same length n >= 1")
        nw = len(self.weights)
        for i, k in enumerate(self.kinds):
            if not K_L2 <= k <= K_SCALE:
                raise ValueError(f"tape node {i}: unknown kind {k}")
            if k == K_MAX or k == K_SUM:
                children = (self.left[i], self.right[i])
            elif k == K_SCALE:
                children = (self.left[i],)
            else:
                children = ()
            for child in children:
                if not 0 <= child < i:
                    raise ValueError(f"tape node {i}: child {child} is not an earlier node")
            wo = self.woff[i]
            if k in (K_WLP1, K_WLPINF, K_WLPP) and not 0 <= wo <= nw - self.dim:
                raise ValueError(f"tape node {i}: weights {wo}..{wo + self.dim} "
                                 f"lie outside the pool of {nw}")

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
        vals = [0.0] * self.n
        dps = [0.0] * self.n
        dms = [0.0] * self.n
        self._value(u, vals)
        self._derivs(u, v, vals, dps, dms)
        last = self.n - 1
        return vals[last], dps[last], dms[last]

    def _derivs(self, u, v, vals, dps, dms) -> None:
        # A leaf that is 0 at u has N(u + t v) = |t| N(v), so D+- = +-N(v);
        # vvals holds N at v of every node, filled at the first such leaf.
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
                pm1 = self.params[i] - 1.0
                wo = self.woff[i]
                d = 0.0
                for j in range(dim):
                    uj = u[j]
                    if uj > 0.0:
                        d += self.weights[wo + j] * math.pow(uj / val, pm1) * v[j]
                    elif uj < 0.0:
                        d -= self.weights[wo + j] * math.pow(-uj / val, pm1) * v[j]
                dps[i] = d
                dms[i] = d
            elif k == K_MAX:
                lc = self.left[i]
                rc = self.right[i]
                a = vals[lc]
                b = vals[rc]
                m = a if a >= b else b
                ref = m
                if abs(a - b) <= _TIE * ref:
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
        """Residual of relation code at (u, v): zero (<= 0 for birkhoff)
        where the relation holds."""
        code, a, b = _relation(code, a, b)
        if code == R_ISOSCELES:
            self._check_pair(u, v)
            vals = [0.0] * self.n
            plus = self._value(tuple(map(operator.add, u, v)), vals)
            return plus - self._value(tuple(map(operator.sub, u, v)), vals)
        if code == R_PYTHAGOREAN:
            self._check_pair(u, v)
            vals = [0.0] * self.n
            diff = self._value(tuple(map(operator.sub, u, v)), vals)
            nu = self._value(u, vals)
            nv = self._value(v, vals)
            # products, not ** 2: float ** raises OverflowError past ~1.3e154
            return diff * diff - (nu * nu + nv * nv)
        val, dp, dm = self.derivs(u, v)
        rm = val * dm
        rp = val * dp
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

    def crossing(self, code, a, b, u, lo, f_lo, hi, width) -> float:
        """A theta within width of a sign change of
        theta -> residual(code, a, b, u, circle(theta)) inside [lo, hi].

        f_lo is the residual at lo; it and the residual at hi must not
        share a strict sign.  An exact zero at a midpoint ends the search
        there, and so does a midpoint that is not strictly inside (lo and
        hi adjacent doubles), where the bisection could go on forever.
        """
        code, a, b, u = self._sweep_args(code, a, b, u)
        lo, f_lo, hi, width = _double(lo), _double(f_lo), _double(hi), _double(width)
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            f_mid = self.residual(code, a, b, u, self.circle(mid))
            if f_mid == 0.0:
                return mid
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def locus(self, code, a, b, u, resolution, width, point):
        """Rows (theta, x, y, residual, is_zero_crossing) of relation code
        along the planar unit circle, each built as tuple.__new__(point, ...).

        The circle points at theta_j = j * step, step = 2 pi / resolution,
        come first, then every residual there; each strict sign change to
        the next point (cyclically) is bisected by crossing to within
        width and its row spliced in after the point's.
        """
        code, a, b, u = self._sweep_args(code, a, b, u)
        resolution = operator.index(resolution)
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        width = _double(width)
        if not (isinstance(point, type) and issubclass(point, tuple)):
            raise TypeError(f"point must be a tuple subclass, got {point!r}")
        circle = self.circle
        residual = functools.partial(self.residual, code, a, b, u)
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
            cross = self.crossing(code, a, b, u, theta, res, theta + step, width)
            x = circle(cross)
            points.append(new(point, (cross, x[0], x[1], residual(x), True)))
        return points

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
