# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled tape interpreter.

Mirrors `_kernels_py` instruction for instruction; when touching a formula
here, change the pure Python twin identically.  Both use libm pow/sqrt and
the same accumulation order, so results agree to rounding.  The tape has
four leaf kinds, l2 and wlp with p = 1, inf or finite p; `_value` holds
the only copy of each leaf formula.
"""

from libc.math cimport fabs, sqrt, pow, INFINITY
from libc.stdlib cimport malloc, free

cdef enum:
    K_L2 = 0
    K_WLP1 = 1
    K_WLPINF = 2
    K_WLPP = 3
    K_MAX = 4
    K_SUM = 5
    K_SCALE = 6

# relative band for linf active sets and max-combinator ties
cdef double TIE = 1e-12

# per-call buffers live on the stack up to this many slots
cdef enum:
    STACK_CAP = 64


cdef int* _alloc_int(Py_ssize_t n) except NULL:
    cdef int* p = <int*> malloc((n if n > 0 else 1) * sizeof(int))
    if p == NULL:
        raise MemoryError()
    return p


cdef double* _alloc_double(Py_ssize_t n) except NULL:
    cdef double* p = <double*> malloc((n if n > 0 else 1) * sizeof(double))
    if p == NULL:
        raise MemoryError()
    return p


cdef class Program:
    cdef int n, dim
    cdef int* kinds
    cdef double* params
    cdef int* woff
    cdef double* weights
    cdef int* left
    cdef int* right

    def __cinit__(self, kinds, params, woff, weights, left, right, dim):
        cdef Py_ssize_t i
        self.n = len(kinds)
        self.dim = dim
        self.kinds = _alloc_int(self.n)
        self.params = _alloc_double(self.n)
        self.woff = _alloc_int(self.n)
        self.weights = _alloc_double(len(weights))
        self.left = _alloc_int(self.n)
        self.right = _alloc_int(self.n)
        for i in range(self.n):
            self.kinds[i] = kinds[i]
            self.params[i] = params[i]
            self.woff[i] = woff[i]
            self.left[i] = left[i]
            self.right[i] = right[i]
        for i in range(len(weights)):
            self.weights[i] = weights[i]

    def __dealloc__(self):
        free(self.kinds)
        free(self.params)
        free(self.woff)
        free(self.weights)
        free(self.left)
        free(self.right)

    # -- evaluation ---------------------------------------------------------

    def value(self, u):
        """Norm of u."""
        if len(u) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(u)}")
        cdef double ubuf[STACK_CAP]
        cdef double vbuf[STACK_CAP]
        cdef double* cu = ubuf
        cdef double* cvals = vbuf
        cdef bint heap_u = self.dim > STACK_CAP
        cdef bint heap_v = self.n > STACK_CAP
        cdef Py_ssize_t j
        cdef double out
        if heap_u:
            cu = _alloc_double(self.dim)
        if heap_v:
            cvals = _alloc_double(self.n)
        try:
            for j in range(self.dim):
                cu[j] = u[j]
            out = self._value(cu, cvals)
        finally:
            if heap_u:
                free(cu)
            if heap_v:
                free(cvals)
        return out

    cdef double _value(self, double* u, double* vals) noexcept nogil:
        cdef int i, j, k
        cdef int dim = self.dim
        cdef double s, m, a, r, p
        for i in range(self.n):
            k = self.kinds[i]
            if k == K_L2:
                m = 0.0
                for j in range(dim):
                    a = fabs(u[j])
                    if a > m:
                        m = a
                if m == 0.0:
                    vals[i] = 0.0
                else:
                    s = 0.0
                    for j in range(dim):
                        r = u[j] / m
                        s += r * r
                    vals[i] = m * sqrt(s)
            elif k == K_WLP1:
                s = 0.0
                for j in range(dim):
                    s += self.weights[self.woff[i] + j] * fabs(u[j])
                vals[i] = s
            elif k == K_WLPINF:
                m = 0.0
                for j in range(dim):
                    a = self.weights[self.woff[i] + j] * fabs(u[j])
                    if a > m:
                        m = a
                vals[i] = m
            elif k == K_WLPP:
                # scaled by the max coordinate so u far from unit scale
                # neither overflows nor underflows pow
                p = self.params[i]
                m = 0.0
                for j in range(dim):
                    a = fabs(u[j])
                    if a > m:
                        m = a
                if m == 0.0:
                    vals[i] = 0.0
                else:
                    s = 0.0
                    for j in range(dim):
                        s += self.weights[self.woff[i] + j] * pow(fabs(u[j]) / m, p)
                    vals[i] = m * pow(s, 1.0 / p)
            elif k == K_MAX:
                a = vals[self.left[i]]
                s = vals[self.right[i]]
                vals[i] = a if a >= s else s
            elif k == K_SUM:
                vals[i] = vals[self.left[i]] + vals[self.right[i]]
            else:  # K_SCALE
                vals[i] = self.params[i] * vals[self.left[i]]
        return vals[self.n - 1]

    # -- one-sided derivatives ----------------------------------------------

    def derivs(self, u, v):
        """(N(u), D+, D-) of t -> N(u + t v) at t = 0."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(u)} and {len(v)}"
            )
        cdef double ubuf[STACK_CAP]
        cdef double vbuf[STACK_CAP]
        cdef double valbuf[2 * STACK_CAP]
        cdef double dpbuf[STACK_CAP]
        cdef double dmbuf[STACK_CAP]
        cdef double* cu = ubuf
        cdef double* cv = vbuf
        cdef double* cvals = valbuf
        cdef double* cdps = dpbuf
        cdef double* cdms = dmbuf
        cdef bint heap_u = self.dim > STACK_CAP
        cdef bint heap_n = self.n > STACK_CAP
        cdef Py_ssize_t j
        cdef int last
        if heap_u:
            cu = _alloc_double(self.dim)
            cv = _alloc_double(self.dim)
        if heap_n:
            cvals = _alloc_double(2 * self.n)
            cdps = _alloc_double(self.n)
            cdms = _alloc_double(self.n)
        try:
            for j in range(self.dim):
                cu[j] = u[j]
                cv[j] = v[j]
            self._value(cu, cvals)
            self._derivs(cu, cv, cvals, cdps, cdms)
            last = self.n - 1
            out = (cvals[last], cdps[last], cdms[last])
        finally:
            if heap_u:
                free(cu)
                free(cv)
            if heap_n:
                free(cvals)
                free(cdps)
                free(cdms)
        return out

    cdef void _derivs(self, double* u, double* v, double* vals,
                      double* dps, double* dms) noexcept nogil:
        # A leaf that is 0 at u has N(u + t v) = |t| N(v), so D+- = +-N(v);
        # vvals, the top n of the 2n slots of vals, holds N at v of every
        # node, filled at the first such leaf.
        cdef int i, j, k, lc, rc
        cdef int dim = self.dim
        cdef double sp, sa, s, m, a, b, d, g, w, uj, val, thr, pm1, ref, c
        cdef double dp, dm
        cdef double* vvals = NULL
        for i in range(self.n):
            k = self.kinds[i]
            if k == K_L2:
                val = vals[i]
                if val == 0.0:
                    if vvals == NULL:
                        vvals = vals + self.n
                        self._value(v, vvals)
                    dps[i] = vvals[i]
                    dms[i] = -vvals[i]
                else:
                    s = 0.0
                    for j in range(dim):
                        s += u[j] * v[j]
                    d = s / val
                    dps[i] = d
                    dms[i] = d
            elif k == K_WLP1:
                sp = 0.0
                sa = 0.0
                for j in range(dim):
                    w = self.weights[self.woff[i] + j]
                    uj = u[j]
                    if uj > 0.0:
                        sp += w * v[j]
                    elif uj < 0.0:
                        sp -= w * v[j]
                    else:
                        sa += w * fabs(v[j])
                dps[i] = sp + sa
                dms[i] = sp - sa
            elif k == K_WLPINF:
                val = vals[i]
                if val == 0.0:
                    if vvals == NULL:
                        vvals = vals + self.n
                        self._value(v, vvals)
                    dps[i] = vvals[i]
                    dms[i] = -vvals[i]
                else:
                    thr = (1.0 - TIE) * val
                    dp = -INFINITY
                    dm = INFINITY
                    for j in range(dim):
                        w = self.weights[self.woff[i] + j]
                        uj = u[j]
                        if w * fabs(uj) >= thr:
                            g = w * v[j] if uj > 0.0 else -w * v[j]
                            if g > dp:
                                dp = g
                            if g < dm:
                                dm = g
                    dps[i] = dp
                    dms[i] = dm
            elif k == K_WLPP:
                val = vals[i]
                if val == 0.0:
                    if vvals == NULL:
                        vvals = vals + self.n
                        self._value(v, vvals)
                    dps[i] = vvals[i]
                    dms[i] = -vvals[i]
                else:
                    pm1 = self.params[i] - 1.0
                    d = 0.0
                    for j in range(dim):
                        uj = u[j]
                        if uj > 0.0:
                            d += self.weights[self.woff[i] + j] * pow(uj / val, pm1) * v[j]
                        elif uj < 0.0:
                            d -= self.weights[self.woff[i] + j] * pow(-uj / val, pm1) * v[j]
                    dps[i] = d
                    dms[i] = d
            elif k == K_MAX:
                lc = self.left[i]
                rc = self.right[i]
                a = vals[lc]
                b = vals[rc]
                m = a if a >= b else b
                ref = m
                if fabs(a - b) <= TIE * ref:
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

    # -- line restriction ----------------------------------------------------

    def line_evaluator(self, u, v):
        """Callable phi with phi(t) = N(u + t v); buffers reused per call."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(
                f"expected {self.dim} coordinates, got {len(u)} and {len(v)}"
            )
        return LineEvaluator(self, u, v)


cdef class LineEvaluator:
    cdef Program prog
    cdef double* u
    cdef double* v
    cdef double* buf
    cdef double* vals
    cdef int dim

    def __cinit__(self, Program prog, u, v):
        cdef Py_ssize_t j
        self.prog = prog
        self.dim = prog.dim
        self.u = _alloc_double(self.dim)
        self.v = _alloc_double(self.dim)
        self.buf = _alloc_double(self.dim)
        self.vals = _alloc_double(prog.n)
        for j in range(self.dim):
            self.u[j] = u[j]
            self.v[j] = v[j]

    def __dealloc__(self):
        free(self.u)
        free(self.v)
        free(self.buf)
        free(self.vals)

    def __call__(self, double t):
        cdef int j
        for j in range(self.dim):
            self.buf[j] = self.u[j] + t * self.v[j]
        return self.prog._value(self.buf, self.vals)
