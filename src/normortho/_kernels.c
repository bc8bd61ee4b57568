/* Compiled tape interpreter and SplitMix64 stream: the CPython extension
   normortho._kernels, twin of `_kernels_py`.  The module docstring of
   `_kernels_py` describes Program, its twelve methods and SplitMix64 for
   both twins; when touching a formula here, change the twin identically.

   What only this twin has: no a * b + c may become a fused multiply-add
   (the pragmas below), and the normortho.errors classes that semi and
   vectors raise are bound at module init, with math.fsum.  One row sum,
   fsum_row, serves image and the planar operator_norm alike: one add for
   two finite products, else math.fsum itself on the rounded products.

   Build with `python setup.py build_ext`, or directly:
   gcc -O2 -shared -fPIC -I<python include> _kernels.c -o _kernels<EXT_SUFFIX>
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* The twin rounds every product before it is added, so no a * b + c may
   become one fused multiply-add, whatever the target or -march. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

/* Python.h defines Py_NO_INLINE from 3.11 on */
#ifndef Py_NO_INLINE
#define Py_NO_INLINE
#endif

/* tape kinds and relation codes, numbered as in program.py */
enum { K_L2, K_WLP1, K_WLPINF, K_WLPP, K_MAX, K_SUM, K_SCALE };
enum {
    R_BIRKHOFF, R_RHO_PLUS, R_RHO_MINUS, R_RHO, R_RHO_LAMBDA, R_RHO_AB,
    R_ISOSCELES, R_PYTHAGOREAN, R_SEMI
};

/* relative band for linf active sets and max-combinator ties */
static const double TIE = 1e-12;

/* |rho_+ - rho_-| band, relative to the larger, treated as smooth by semi */
static const double SMOOTH_TOL = 1e-12;

/* normortho.errors classes semi and vectors raise, math.fsum, which sums
   every row fsum_row does not, and normortho.program.LocusPoint, the type
   of every locus row, bound at module init */
static PyObject *ZeroVectorError, *NonSmoothPointError, *DimensionMismatchError, *math_fsum,
    *LocusPoint;

/* pi as math.pi gives it (the C standard defines no M_PI) */
static const double PI = 3.141592653589793;

/* per-call scratch lives on the stack up to this many doubles */
#define STACK_CAP 256

typedef struct {
    PyObject_HEAD
    int n, dim;
    /* one block: params (n), weights, then kinds, woff, left, right and
       the load stack (n each); derive_tape derives woff, left and right */
    double *params, *weights;
    int *kinds, *woff, *left, *right;
} Program;

/* Line restriction phi(t) = N(u + t v); holds a strong reference to its
   Program, whose tape it reads on every call. */
typedef struct {
    PyObject_VAR_HEAD
    vectorcallfunc vectorcall;
    Program *prog;
    double data[]; /* u, v and the point u + t v (dim each), then n node values */
} LineEvaluator;

/* -- evaluation ----------------------------------------------------------- */

/* Norm at u of every node into vals[0..n); returns the root's. */
static double value_of(const Program *p, const double *u, double *vals)
{
    int dim = p->dim;
    for (int i = 0; i < p->n; i++) {
        const double *w = p->weights + p->woff[i];
        double s, m, a, r, q;
        switch (p->kinds[i]) {
        case K_L2:
            m = 0.0;
            for (int j = 0; j < dim; j++) {
                a = fabs(u[j]);
                if (a > m)
                    m = a;
            }
            if (m == 0.0) {
                vals[i] = 0.0;
            } else {
                s = 0.0;
                for (int j = 0; j < dim; j++) {
                    r = u[j] / m;
                    s += r * r;
                }
                vals[i] = m * sqrt(s);
            }
            break;
        case K_WLP1:
            s = 0.0;
            for (int j = 0; j < dim; j++)
                s += w[j] * fabs(u[j]);
            vals[i] = s;
            break;
        case K_WLPINF:
            m = 0.0;
            for (int j = 0; j < dim; j++) {
                a = w[j] * fabs(u[j]);
                if (a > m)
                    m = a;
            }
            vals[i] = m;
            break;
        case K_WLPP:
            /* scaled by the max coordinate so u far from unit scale
               neither overflows nor underflows pow */
            q = p->params[i];
            m = 0.0;
            for (int j = 0; j < dim; j++) {
                a = fabs(u[j]);
                if (a > m)
                    m = a;
            }
            if (m == 0.0) {
                vals[i] = 0.0;
            } else {
                s = 0.0;
                for (int j = 0; j < dim; j++)
                    s += w[j] * pow(fabs(u[j]) / m, q);
                vals[i] = m * pow(s, 1.0 / q);
            }
            break;
        case K_MAX:
            a = vals[p->left[i]];
            s = vals[p->right[i]];
            vals[i] = a >= s ? a : s;
            break;
        case K_SUM:
            vals[i] = vals[p->left[i]] + vals[p->right[i]];
            break;
        default: /* K_SCALE */
            vals[i] = p->params[i] * vals[p->left[i]];
        }
    }
    return vals[p->n - 1];
}

/* -- one-sided derivatives ------------------------------------------------ */

/* The base pass at u: value_of's node values into vals[0..n), then, for
   each wlp(p) leaf i that is nonzero at u and each u_j != 0, the
   coefficient w_j pow(|u_j| / N_i(u), p - 1) into vals[n + i dim + j]
   (vals holds (1 + dim) n doubles).  These are the derivative's only pow
   calls, so a sweep that runs this once pays for them once, whatever its
   number of directions. */
static void base_of(const Program *p, const double *u, double *vals)
{
    int dim = p->dim;
    double *coef = vals + p->n;
    value_of(p, u, vals);
    for (int i = 0; i < p->n; i++) {
        if (p->kinds[i] != K_WLPP || vals[i] == 0.0)
            continue;
        const double *w = p->weights + p->woff[i];
        double *c = coef + (Py_ssize_t)i * dim, val = vals[i], pm1 = p->params[i] - 1.0;
        for (int j = 0; j < dim; j++)
            if (u[j] != 0.0)
                c[j] = w[j] * pow(fabs(u[j]) / val, pm1);
    }
}

/* The direction pass along v: D+ and D- of t -> N(u + t v) at t = 0 of
   every node into dps and dms, from base_of's vals at u.  A leaf that is 0
   at u has N(u + t v) = |t| N(v), so D+- = +-N(v); vvals (n doubles)
   holds N at v of every node, filled at the first such leaf. */
static void derivs_of(const Program *p, const double *u, const double *vals,
                      const double *v, double *vvals, double *dps, double *dms)
{
    int dim = p->dim, filled = 0;
    const double *coef = vals + p->n;
    for (int i = 0; i < p->n; i++) {
        const double *w = p->weights + p->woff[i], *c;
        int k = p->kinds[i], lc = p->left[i], rc = p->right[i];
        double val = vals[i], s, sp, sa, d, a, b, m, g, uj, thr, dp, dm;
        if ((k == K_L2 || k == K_WLPINF || k == K_WLPP) && val == 0.0) {
            if (!filled) {
                value_of(p, v, vvals);
                filled = 1;
            }
            dps[i] = vvals[i];
            dms[i] = -vvals[i];
            continue;
        }
        switch (k) {
        case K_L2:
            s = 0.0;
            for (int j = 0; j < dim; j++)
                s += u[j] * v[j];
            d = s / val;
            dps[i] = d;
            dms[i] = d;
            break;
        case K_WLP1:
            sp = 0.0;
            sa = 0.0;
            for (int j = 0; j < dim; j++) {
                uj = u[j];
                if (uj > 0.0)
                    sp += w[j] * v[j];
                else if (uj < 0.0)
                    sp -= w[j] * v[j];
                else
                    sa += w[j] * fabs(v[j]);
            }
            dps[i] = sp + sa;
            dms[i] = sp - sa;
            break;
        case K_WLPINF:
            thr = (1.0 - TIE) * val;
            dp = -INFINITY;
            dm = INFINITY;
            for (int j = 0; j < dim; j++) {
                uj = u[j];
                if (w[j] * fabs(uj) >= thr) {
                    g = uj > 0.0 ? w[j] * v[j] : -w[j] * v[j];
                    if (g > dp)
                        dp = g;
                    if (g < dm)
                        dm = g;
                }
            }
            dps[i] = dp;
            dms[i] = dm;
            break;
        case K_WLPP:
            c = coef + (Py_ssize_t)i * dim;
            d = 0.0;
            for (int j = 0; j < dim; j++) {
                uj = u[j];
                if (uj > 0.0)
                    d += c[j] * v[j];
                else if (uj < 0.0)
                    d -= c[j] * v[j];
            }
            dps[i] = d;
            dms[i] = d;
            break;
        case K_MAX:
            a = vals[lc];
            b = vals[rc];
            m = a >= b ? a : b;
            if (fabs(a - b) <= TIE * m) {
                /* tied children: one-sided derivative of a max of two
                   functions equal at 0 is max of D+ and min of D- */
                dps[i] = dps[lc] >= dps[rc] ? dps[lc] : dps[rc];
                dms[i] = dms[lc] <= dms[rc] ? dms[lc] : dms[rc];
            } else if (a > b) {
                dps[i] = dps[lc];
                dms[i] = dms[lc];
            } else {
                dps[i] = dps[rc];
                dms[i] = dms[rc];
            }
            break;
        case K_SUM:
            dps[i] = dps[lc] + dps[rc];
            dms[i] = dms[lc] + dms[rc];
            break;
        default: /* K_SCALE */
            dps[i] = p->params[i] * dps[lc];
            dms[i] = p->params[i] * dms[lc];
        }
    }
}

/* -- Python glue ---------------------------------------------------------- */

/* Item j of seq as a new reference; tuples skip the generic lookup. */
static PyObject *item(PyObject *seq, Py_ssize_t j)
{
    if (PyTuple_CheckExact(seq) && j < PyTuple_GET_SIZE(seq))
        return Py_NewRef(PyTuple_GET_ITEM(seq, j));
    return PySequence_GetItem(seq, j);
}

/* The first n items of seq as doubles; -1 with an exception set on failure. */
static int load_doubles(PyObject *seq, Py_ssize_t n, double *out)
{
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *x = item(seq, j);
        if (x == NULL)
            return -1;
        out[j] = PyFloat_AsDouble(x);
        Py_DECREF(x);
        if (out[j] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The first n items of seq as C ints; -1 with an exception set on failure. */
static int load_ints(PyObject *seq, Py_ssize_t n, int *out)
{
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *x = item(seq, j);
        if (x == NULL)
            return -1;
        long k = PyLong_AsLong(x);
        Py_DECREF(x);
        if (k == -1 && PyErr_Occurred())
            return -1;
        if (k < INT_MIN || k > INT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "tape entry does not fit a C int");
            return -1;
        }
        out[j] = (int)k;
    }
    return 0;
}

/* args[0] and args[1] as doubles into *a and *b; -1 with an exception set. */
static int load_two(PyObject *const *args, double *a, double *b)
{
    *a = PyFloat_AsDouble(args[0]);
    if (*a == -1.0 && PyErr_Occurred())
        return -1;
    *b = PyFloat_AsDouble(args[1]);
    if (*b == -1.0 && PyErr_Occurred())
        return -1;
    return 0;
}

/* need doubles of scratch: stack (STACK_CAP doubles) if they fit, else
   the heap; NULL with MemoryError set if the heap has none.  The buffer
   is per call, not per Program, because loading coordinates can run
   Python code (__float__) that calls back into the same Program. */
static double *scratch(double *stack, Py_ssize_t need)
{
    if (need <= STACK_CAP)
        return stack;
    double *buf = need <= PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double)
        ? PyMem_Malloc(need * sizeof(double)) : NULL;
    if (buf == NULL)
        PyErr_NoMemory();
    return buf;
}

/* A new tuple of the n doubles x; NULL with an exception set on failure. */
static PyObject *tuple_of(const double *x, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);
    for (Py_ssize_t k = 0; k < n && out != NULL; k++) {
        PyObject *f = PyFloat_FromDouble(x[k]);
        if (f == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, k, f);
    }
    return out;
}

/* 1 if seq is an exact tuple or list whose items are all exact floats. */
static int all_floats(PyObject *seq)
{
    if (!PyTuple_CheckExact(seq) && !PyList_CheckExact(seq))
        return 0;
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t j = 0; j < PySequence_Fast_GET_SIZE(seq); j++)
        if (!PyFloat_CheckExact(items[j]))
            return 0;
    return 1;
}

/* tuple(map(float, coords)) with PyNumber_Float, which float() calls;
   NULL with an exception set on failure. */
static PyObject *floats_of(PyObject *coords)
{
    PyObject *it = PyObject_GetIter(coords), *x;
    if (it == NULL)
        return NULL;
    PyObject *list = PyList_New(0);
    while (list != NULL && (x = PyIter_Next(it)) != NULL) {
        PyObject *f = PyNumber_Float(x);
        Py_DECREF(x);
        if (f == NULL || PyList_Append(list, f) < 0)
            Py_CLEAR(list);
        Py_XDECREF(f);
    }
    Py_DECREF(it);
    if (list == NULL || PyErr_Occurred()) {
        Py_XDECREF(list);
        return NULL;
    }
    PyObject *vec = PyList_AsTuple(list);
    Py_DECREF(list);
    return vec;
}

/* coords as a tuple of finite floats: floats_of(coords), then a NaN or
   infinite entry rejected with ValueError.  A tuple or list of exact
   floats takes no conversion, so no Python code runs that could change
   it; such a tuple is returned itself.  NULL with an exception set on
   failure. */
static PyObject *finite_vector(PyObject *coords)
{
    PyObject *vec;
    if (!all_floats(coords))
        vec = floats_of(coords);
    else if (PyTuple_CheckExact(coords))
        vec = Py_NewRef(coords);
    else
        vec = PyList_AsTuple(coords);
    if (vec == NULL)
        return NULL;
    for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(vec); j++) {
        PyObject *c = PyTuple_GET_ITEM(vec, j);
        if (!isfinite(PyFloat_AS_DOUBLE(c))) {
            PyErr_Format(PyExc_ValueError, "vector coordinates must be finite, got %R", c);
            Py_DECREF(vec);
            return NULL;
        }
    }
    return vec;
}

/* 0 if args are two sequences of dim coordinates, else -1 with an
   exception set. */
static int check_pair(const Program *self, const char *name,
                      PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly 2 arguments (%zd given)",
                     name, nargs);
        return -1;
    }
    Py_ssize_t lu = PyObject_Length(args[0]), lv;
    if (lu < 0 || (lv = PyObject_Length(args[1])) < 0)
        return -1;
    if (lu != self->dim || lv != self->dim) {
        PyErr_Format(PyExc_ValueError, "expected %d coordinates, got %zd and %zd",
                     self->dim, lu, lv);
        return -1;
    }
    return 0;
}

/* operands each kind pops off the tape's value stack */
static const int ARITY[] = {[K_MAX] = 2, [K_SUM] = 2, [K_SCALE] = 1};

/* Derives woff, left and right from kinds in one pass over the post-order
   tape with stack (n ints), checking it: 0, or -1 with ValueError set.
   Same derivation, checks and texts as _kernels_py.Program. */
static int derive_tape(Program *p, int *stack, Py_ssize_t nw)
{
    int top = 0;
    Py_ssize_t used = 0; /* weights the weighted leaves so far take */
    for (int i = 0; i < p->n; i++) {
        int k = p->kinds[i];
        if (k < K_L2 || k > K_SCALE) {
            PyErr_Format(PyExc_ValueError, "tape node %d: unknown kind %d", i, k);
            return -1;
        }
        if (top < ARITY[k]) {
            PyErr_Format(PyExc_ValueError, "tape node %d: kind %d pops %d, the stack holds %d",
                         i, k, ARITY[k], top);
            return -1;
        }
        p->right[i] = ARITY[k] == 2 ? stack[--top] : -1;
        p->left[i] = ARITY[k] ? stack[--top] : -1;
        p->woff[i] = 0;
        if (!ARITY[k] && k != K_L2) {
            p->woff[i] = (int)used;
            used += p->dim;
        }
        stack[top++] = i;
    }
    if (top != 1) {
        PyErr_Format(PyExc_ValueError, "tape ends with %d values on the stack, not 1", top);
        return -1;
    }
    if (nw != used) {
        PyErr_Format(PyExc_ValueError, "the weight pool holds %zd, the weighted leaves take %zd",
                     nw, used);
        return -1;
    }
    return 0;
}

static PyObject *Program_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"kinds", "params", "weights", "dim", NULL};
    PyObject *kinds, *params, *weights;
    int dim;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOi:Program", kwlist, &kinds, &params,
                                     &weights, &dim))
        return NULL;
    Py_ssize_t n = PyObject_Length(kinds), np = PyObject_Length(params),
        nw = PyObject_Length(weights);
    if (n < 0 || np < 0 || nw < 0)
        return NULL;
    if (n < 1 || n > INT_MAX || np != n) {
        PyErr_SetString(PyExc_ValueError, "kinds and params must have the same length n >= 1");
        return NULL;
    }
    Program *self = (Program *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->n = (int)n;
    self->dim = dim;
    self->params = PyMem_Malloc((n + nw) * sizeof(double) + 5 * n * sizeof(int));
    if (self->params == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    self->weights = self->params + n;
    self->kinds = (int *)(self->weights + nw);
    self->woff = self->kinds + n;
    self->left = self->woff + n;
    self->right = self->left + n;
    if (load_ints(kinds, n, self->kinds) < 0 || load_doubles(params, n, self->params) < 0
        || load_doubles(weights, nw, self->weights) < 0 || derive_tape(self, self->right + n, nw) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void Program_dealloc(Program *self)
{
    PyMem_Free(self->params);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *Program_value(Program *self, PyObject *u)
{
    Py_ssize_t lu = PyObject_Length(u);
    if (lu < 0)
        return NULL;
    if (lu != self->dim)
        return PyErr_Format(PyExc_ValueError, "expected %d coordinates, got %zd",
                            self->dim, lu);
    double stack[STACK_CAP];
    double *cu = scratch(stack, (Py_ssize_t)self->dim + self->n);
    if (cu == NULL)
        return NULL;
    PyObject *out = NULL;
    if (load_doubles(u, self->dim, cu) == 0)
        out = PyFloat_FromDouble(value_of(self, cu, cu + self->dim));
    if (cu != stack)
        PyMem_Free(cu);
    return out;
}

static PyObject *Program_derivs(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_pair(self, "derivs", args, nargs) < 0)
        return NULL;
    Py_ssize_t dim = self->dim, n = self->n;
    double stack[STACK_CAP];
    double *cu = scratch(stack, 2 * dim + (4 + dim) * n);
    if (cu == NULL)
        return NULL;
    double *cv = cu + dim, *vals = cv + dim, *vvals = vals + (1 + dim) * n;
    double *dps = vvals + n, *dms = dps + n;
    PyObject *out = NULL;
    if (load_doubles(args[0], dim, cu) == 0 && load_doubles(args[1], dim, cv) == 0) {
        base_of(self, cu, vals);
        derivs_of(self, cu, vals, cv, vvals, dps, dms);
        double res[3] = {vals[n - 1], dps[n - 1], dms[n - 1]};
        out = tuple_of(res, 3);
    }
    if (cu != stack)
        PyMem_Free(cu);
    return out;
}

/* Each argument as finite_vector gives it, every vector converted and
   checked before the lengths are compared with dim. */
static PyObject *Program_vectors(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *out = PyTuple_New(nargs);
    for (Py_ssize_t k = 0; k < nargs && out != NULL; k++) {
        PyObject *vec = finite_vector(args[k]);
        if (vec == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, k, vec);
    }
    for (Py_ssize_t k = 0; k < nargs && out != NULL; k++) {
        Py_ssize_t len = PyTuple_GET_SIZE(PyTuple_GET_ITEM(out, k));
        if (len != self->dim) {
            PyErr_Format(DimensionMismatchError,
                         "norm consumes %d coordinates but vector has %zd", self->dim, len);
            Py_CLEAR(out);
        }
    }
    return out;
}

static PyTypeObject ProgramType, LineEvaluatorType;

/* phi(t) = N(u + t v), evaluated in phi's own buffers. */
static double line_at(LineEvaluator *phi, double t)
{
    int dim = phi->prog->dim;
    const double *u = phi->data, *v = u + dim;
    double *x = phi->data + 2 * dim;
    for (int j = 0; j < dim; j++)
        x[j] = u[j] + t * v[j];
    return value_of(phi->prog, x, x + dim);
}

static PyObject *LineEvaluator_call(LineEvaluator *self, PyObject *const *args,
                                    size_t nargsf, PyObject *kwnames)
{
    if (PyVectorcall_NARGS(nargsf) != 1 || kwnames != NULL) {
        PyErr_SetString(PyExc_TypeError, "phi() takes exactly 1 positional argument");
        return NULL;
    }
    double t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(line_at(self, t));
}

static PyObject *Program_line_evaluator(Program *self, PyObject *const *args,
                                        Py_ssize_t nargs)
{
    if (check_pair(self, "line_evaluator", args, nargs) < 0)
        return NULL;
    int dim = self->dim;
    LineEvaluator *phi = PyObject_NewVar(LineEvaluator, &LineEvaluatorType,
                                         3 * (Py_ssize_t)dim + self->n);
    if (phi == NULL)
        return NULL;
    phi->vectorcall = (vectorcallfunc)LineEvaluator_call;
    phi->prog = (Program *)Py_NewRef(self);
    if (load_doubles(args[0], dim, phi->data) < 0
        || load_doubles(args[1], dim, phi->data + dim) < 0) {
        Py_DECREF(phi);
        return NULL;
    }
    return (PyObject *)phi;
}

static void LineEvaluator_dealloc(LineEvaluator *self)
{
    Py_DECREF(self->prog);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* -- planar sweeps and matrix images -------------------------------------- */

/* (cos theta, sin theta) / N(cos theta, sin theta) into d, with libm cos
   and sin as math.cos and math.sin call them (gcc may merge the two into
   one sincos call; tests/test_backends.py compares the bits); vals holds
   n doubles.  Both give NaN for +-inf, which math.cos reports as a domain
   error, and for NaN, which it passes through.  -1 with an exception set
   on failure. */
static int circle_of(const Program *p, double theta, double *vals, double *d)
{
    if (p->dim != 2) {
        PyErr_Format(PyExc_ValueError, "circle needs a 2-dimensional norm, got dim %d", p->dim);
        return -1;
    }
    if (isinf(theta)) {
        PyErr_SetString(PyExc_ValueError, "math domain error");
        return -1;
    }
    d[0] = cos(theta);
    d[1] = sin(theta);
    double r = value_of(p, d, vals);
    if (r == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    d[0] /= r;
    d[1] /= r;
    return 0;
}

static PyObject *Program_circle(Program *self, PyObject *arg)
{
    if (self->dim != 2)
        return PyErr_Format(PyExc_ValueError,
                            "circle needs a 2-dimensional norm, got dim %d", self->dim);
    double theta = PyFloat_AsDouble(arg);
    if (theta == -1.0 && PyErr_Occurred())
        return NULL;
    double d[2], stack[STACK_CAP];
    double *vals = scratch(stack, self->n);
    if (vals == NULL)
        return NULL;
    int rc = circle_of(self, theta, vals, d);
    if (vals != stack)
        PyMem_Free(vals);
    return rc < 0 ? NULL : tuple_of(d, 2);
}

/* The kept rings: the n points circle(j * 2 pi / n) of a planar Program,
   2 n doubles x0, y0, x1, y1, ..., most recently used first, and, once
   locus has read the ring, each point's theta, x and y boxed as floats
   (3 n references, theta0, x0, y0, theta1, ...), which its rows share.
   At most RINGS rings of at most RING_MAX points: 512 KiB of doubles in
   all, and about 96 B more per boxed point (three floats and their
   references), so about 3 MiB more when all are locus rings.  Each slot
   holds a strong reference to its Program, so no later Program at the
   same address is ever served its ring.  The bound covers a curves run's
   locus and operator-norm rings (12 + 3), the miner's 4 rings of 64
   points and the preserver's 4, and caps what Programs met once leave
   behind. */
enum { RINGS = 32, RING_MAX = 1024 };
typedef struct {
    PyObject *prog;
    Py_ssize_t n;
    double *xy;
    PyObject **boxes;
} Ring;
static Ring rings[RINGS];

/* The slot of p's kept ring of n points, or RINGS. */
static int ring_slot(const Program *p, Py_ssize_t n)
{
    int k = 0;
    while (k < RINGS && (rings[k].prog != (PyObject *)p || rings[k].n != n))
        k++;
    return k;
}

/* Drops boxes, the 3 n references of a ring of n points or NULL. */
static void drop_boxes(PyObject **boxes, Py_ssize_t n)
{
    if (boxes == NULL)
        return;
    for (Py_ssize_t i = 0; i < 3 * n; i++)
        Py_XDECREF(boxes[i]);
    PyMem_Free(boxes);
}

/* The ring of n points of p into xy (2 n doubles): a copy of the kept one,
   or circle_of point by point (vals holds p's n node values), kept if n <=
   RING_MAX.  The only copy of the ring, and the only grid of the planar
   sweeps: residuals, locus and operator_norm read all of it before their
   first residual or gain.  -1 with an exception set at the first point
   that fails. */
static int ring(const Program *p, Py_ssize_t n, double *xy, double *vals)
{
    int k = ring_slot(p, n);
    if (k < RINGS) {
        Ring hit = rings[k];
        memmove(rings + 1, rings, k * sizeof(Ring));
        rings[0] = hit;
        memcpy(xy, hit.xy, 2 * n * sizeof(double));
        return 0;
    }
    double step = 2.0 * PI / (double)n, *kept;
    for (Py_ssize_t j = 0; j < n; j++)
        if (circle_of(p, (double)j * step, vals, xy + 2 * j) < 0)
            return -1;
    if (n > RING_MAX || (kept = PyMem_Malloc(2 * n * sizeof(double))) == NULL)
        return 0;
    memcpy(kept, xy, 2 * n * sizeof(double));
    Ring last = rings[RINGS - 1];
    memmove(rings + 1, rings, (RINGS - 1) * sizeof(Ring));
    rings[0] = (Ring){Py_NewRef((PyObject *)p), n, kept, NULL};
    Py_XDECREF(last.prog);
    PyMem_Free(last.xy);
    drop_boxes(last.boxes, last.n);
    return 0;
}

/* The boxed theta, x and y of each of the n points of p's ring at xy: the
   kept ring's, boxed the first time they are asked for, or, for a ring
   that is not kept, new ones that *own receives and the caller drops.
   NULL with an exception set. */
static PyObject **ring_boxes(const Program *p, Py_ssize_t n, const double *xy, PyObject ***own)
{
    int k = ring_slot(p, n);
    *own = NULL;
    if (k < RINGS && rings[k].boxes != NULL)
        return rings[k].boxes;
    PyObject **boxes = PyMem_Calloc(3 * n, sizeof(PyObject *));
    if (boxes == NULL)
        return (PyObject **)PyErr_NoMemory();
    double step = 2.0 * PI / (double)n;
    for (Py_ssize_t j = 0; j < n; j++) {
        double f[3] = {(double)j * step, xy[2 * j], xy[2 * j + 1]};
        for (int i = 0; i < 3; i++)
            if ((boxes[3 * j + i] = PyFloat_FromDouble(f[i])) == NULL) {
                drop_boxes(boxes, n);
                return NULL;
            }
    }
    if (k < RINGS)
        return rings[k].boxes = boxes;
    return *own = boxes;
}

/* math.fsum of the cols products row[j] * x[j] into *out, called on a
   tuple of the rounded products; -1 with fsum's error set.  Never inlined:
   fsum_row's one-add path, inlined into the planar gain loop, then saves
   no registers for this call. */
static Py_NO_INLINE int fsum_products(const double *row, const double *x, Py_ssize_t cols,
                                      double *out)
{
    PyObject *terms = PyTuple_New(cols), *sum = NULL;
    for (Py_ssize_t j = 0; j < cols && terms != NULL; j++) {
        PyObject *f = PyFloat_FromDouble(row[j] * x[j]);
        if (f == NULL)
            Py_CLEAR(terms);
        else
            PyTuple_SET_ITEM(terms, j, f);
    }
    if (terms != NULL) {
        sum = PyObject_CallOneArg(math_fsum, terms);
        Py_DECREF(terms);
    }
    if (sum == NULL)
        return -1;
    *out = PyFloat_AS_DOUBLE(sum);
    Py_DECREF(sum);
    return 0;
}

/* Sum of the cols products row[j] * x[j] into *out, with the value and the
   errors of math.fsum.  The only row sum: image and the planar gain run
   it.  -1 with an exception set.

   Two products whose sum is finite are summed with one add: IEEE addition
   of two doubles is already their correctly rounded sum, which is what
   fsum returns, but for a zero, which fsum returns as +0.0.  This sum must
   not be contracted into a fused multiply-add, which would skip the
   rounding of one product (the pragmas above forbid it).  Every other row
   (one column, three or more, or a non-finite two-term sum) goes to
   math.fsum itself, so its value and its errors are fsum's own. */
static int fsum_row(const double *row, const double *x, Py_ssize_t cols, double *out)
{
    if (cols == 2) {
        double sum = row[0] * x[0] + row[1] * x[1];
        if (isfinite(sum)) {
            *out = sum == 0.0 ? 0.0 : sum;
            return 0;
        }
    }
    return fsum_products(row, x, cols, out);
}

/* The rows of matrix, self->dim of them with cols entries each, as doubles
   into m row by row; -1 with an exception set.  The only matrix reader:
   image and operator_norm run it. */
static int load_matrix(const Program *self, PyObject *matrix, Py_ssize_t cols, double *m)
{
    Py_ssize_t rows = PyObject_Length(matrix);
    if (rows < 0)
        return -1;
    if (rows != self->dim) {
        PyErr_Format(PyExc_ValueError, "expected %d rows, got %zd", self->dim, rows);
        return -1;
    }
    for (Py_ssize_t i = 0; i < rows; i++) {
        PyObject *row = item(matrix, i);
        if (row == NULL)
            return -1;
        Py_ssize_t len = PyObject_Length(row);
        if (len >= 0 && len != cols)
            PyErr_Format(PyExc_ValueError, "expected rows of %zd entries, got %zd", cols, len);
        int rc = len == cols ? load_doubles(row, cols, m + i * cols) : -1;
        Py_DECREF(row);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* M x as a tuple: x is read first, then the whole matrix (load_matrix),
   and then each row is summed. */
static PyObject *Program_image(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "image() takes exactly 2 arguments (%zd given)", nargs);
    Py_ssize_t rows = self->dim, cols = PyObject_Length(args[1]);
    if (cols < 0)
        return NULL;
    /* a __len__ near PY_SSIZE_T_MAX must not wrap the scratch size */
    if (cols > (PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double) - rows) / (rows + 1))
        return PyErr_NoMemory();
    double stack[STACK_CAP];
    double *y = scratch(stack, rows + (rows + 1) * cols);
    if (y == NULL)
        return NULL;
    double *xs = y + rows, *m = xs + cols;
    PyObject *out = NULL;
    Py_ssize_t i = 0;
    if (load_doubles(args[1], cols, xs) == 0 && load_matrix(self, args[0], cols, m) == 0)
        while (i < rows && fsum_row(m + i * cols, xs, cols, y + i) == 0)
            i++;
    if (i == rows)
        out = tuple_of(y, rows);
    if (y != stack)
        PyMem_Free(y);
    return out;
}

/* -- orthogonality relations ---------------------------------------------- */

/* A relation and its base pass at a base vector u, which every residual
   along a direction v reads: residual's one v and the circle points of
   the planar sweeps.  The scratch, base_size doubles, holds u, v and a
   point x (dim each), then vals ((1 + dim) n, as base_of fills it) and
   work (3n): node values at a point (a circle point's, N at v for a leaf
   that is 0 at u, or at u +- v), then D+ and D-.  The base pass fills
   vals and nothing overwrites it. */
typedef struct {
    const Program *prog;
    long code;
    double a, b;
    double *u, *v, *x, *vals, *work;
} Base;

static Py_ssize_t base_size(const Program *p)
{
    return 3 * (Py_ssize_t)p->dim + (4 + (Py_ssize_t)p->dim) * p->n;
}

/* Points s at p and its scratch at buf. */
static void base_layout(Base *s, const Program *p, double *buf)
{
    s->prog = p;
    s->u = buf;
    s->v = s->u + p->dim;
    s->x = s->v + p->dim;
    s->vals = s->x + p->dim;
    s->work = s->vals + (1 + (Py_ssize_t)p->dim) * p->n;
}

/* The base pass of s's relation at s->u: base_of for the relations made
   of derivatives, N(u) alone for pythagorean, nothing for isosceles. */
static void relation_base(Base *s)
{
    if (s->code == R_PYTHAGOREAN)
        value_of(s->prog, s->u, s->vals);
    else if (s->code != R_ISOSCELES)
        base_of(s->prog, s->u, s->vals);
}

/* The direction pass: the residual of s's relation at (u, v) into *out,
   from relation_base's pass at u.  max(rm, -rp) is spelled as Python's
   max evaluates it, so a NaN orders the same.  -1 with an exception set
   (semi only). */
static int residual_at(const Base *s, const double *v, double *out)
{
    const Program *p = s->prog;
    int dim = p->dim, n = p->n;
    const double *u = s->u;
    double *x = s->x, *work = s->work, *dps = work + n, *dms = dps + n;
    if (s->code == R_ISOSCELES) {
        for (int j = 0; j < dim; j++)
            x[j] = u[j] + v[j];
        double plus = value_of(p, x, work);
        for (int j = 0; j < dim; j++)
            x[j] = u[j] - v[j];
        *out = plus - value_of(p, x, work);
        return 0;
    }
    double val = s->vals[n - 1];
    if (s->code == R_PYTHAGOREAN) {
        for (int j = 0; j < dim; j++)
            x[j] = u[j] - v[j];
        double diff = value_of(p, x, work);
        double nv = value_of(p, v, work);
        *out = diff * diff - (val * val + nv * nv);
        return 0;
    }
    derivs_of(p, u, s->vals, v, work, dps, dms);
    double rm = val * dms[n - 1], rp = val * dps[n - 1];
    switch (s->code) {
    case R_BIRKHOFF:
        *out = -rp > rm ? -rp : rm;
        return 0;
    case R_RHO_PLUS:
        *out = rp;
        return 0;
    case R_RHO_MINUS:
        *out = rm;
        return 0;
    case R_RHO:
        *out = (rm + rp) / 2.0;
        return 0;
    case R_RHO_LAMBDA:
        *out = s->a * rm + (1.0 - s->a) * rp;
        return 0;
    case R_RHO_AB:
        *out = s->a * rm + s->b * rp;
        return 0;
    }
    /* R_SEMI: the semi-inner product [v, u] = rho_+(u, v), where smooth */
    if (val == 0.0) {
        PyErr_SetString(ZeroVectorError, "semi-inner product needs a nonzero second argument");
        return -1;
    }
    double scale = fabs(rp) > fabs(rm) ? fabs(rp) : fabs(rm);
    if (fabs(rp - rm) > SMOOTH_TOL * scale) {
        PyObject *fp = PyFloat_FromDouble(rp), *fm = PyFloat_FromDouble(rm);
        if (fp != NULL && fm != NULL)
            PyErr_Format(NonSmoothPointError,
                         "norm is not smooth at this point: rho_+ = %R differs from rho_- = %R",
                         fp, fm);
        Py_XDECREF(fp);
        Py_XDECREF(fm);
        return -1;
    }
    *out = rp;
    return 0;
}

/* args[0..3) as a relation code, a and b, read as Program.residual reads
   them; -1 with an exception set. */
static int load_relation(PyObject *const *args, long *code, double *a, double *b)
{
    PyObject *index = PyNumber_Index(args[0]);
    if (index == NULL)
        return -1;
    int overflow;
    *code = PyLong_AsLongAndOverflow(index, &overflow);
    if (overflow || *code < R_BIRKHOFF || *code > R_SEMI) {
        PyErr_Format(PyExc_ValueError, "unknown relation code %R", index);
        Py_DECREF(index);
        return -1;
    }
    Py_DECREF(index);
    return load_two(args + 1, a, b);
}

/* Reads args[0..4) into s, laid out in buf (base_size doubles): the
   relation, then u, whose length must be dim; then runs the base pass.
   -1 with an exception set. */
static int load_base(Program *self, PyObject *const *args, double *buf, Base *s)
{
    if (load_relation(args, &s->code, &s->a, &s->b) < 0)
        return -1;
    Py_ssize_t lu = PyObject_Length(args[3]);
    if (lu < 0)
        return -1;
    if (lu != self->dim) {
        PyErr_Format(PyExc_ValueError, "expected %d coordinates, got %zd", self->dim, lu);
        return -1;
    }
    base_layout(s, self, buf);
    if (load_doubles(args[3], self->dim, s->u) < 0)
        return -1;
    relation_base(s);
    return 0;
}

/* arg as an index of at least low into *out, clamped to the Py_ssize_t
   range (a loop that long never ends anyway); -1 with an exception set,
   a ValueError naming name if it is below low. */
static int load_count(PyObject *arg, const char *name, Py_ssize_t low, Py_ssize_t *out)
{
    PyObject *index = PyNumber_Index(arg);
    if (index == NULL)
        return -1;
    *out = PyNumber_AsSsize_t(index, NULL);
    if (*out < low)
        PyErr_Format(PyExc_ValueError, "%s must be >= %zd, got %R", name, low, index);
    Py_DECREF(index);
    return *out < low ? -1 : 0;
}

static PyObject *Program_residual(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError,
                            "residual() takes exactly 5 arguments (%zd given)", nargs);
    Base s;
    if (load_relation(args, &s.code, &s.a, &s.b) < 0
        || check_pair(self, "residual", args + 3, 2) < 0)
        return NULL;
    double stack[STACK_CAP], res;
    double *buf = scratch(stack, base_size(self));
    if (buf == NULL)
        return NULL;
    base_layout(&s, self, buf);
    PyObject *out = NULL;
    if (load_doubles(args[3], self->dim, s.u) == 0
        && load_doubles(args[4], self->dim, s.v) == 0) {
        relation_base(&s);
        if (residual_at(&s, s.v, &res) == 0)
            out = PyFloat_FromDouble(res);
    }
    if (buf != stack)
        PyMem_Free(buf);
    return out;
}

/* -- planar loci ---------------------------------------------------------- */

/* The grid of residuals and locus: the ring of s's Program at n points
   (2 n doubles), then the residual at each (n doubles), in a new buffer
   the caller frees.  Every point is taken before the first residual, so
   an error is raised at the same point as the twin's.  NULL with an
   exception set. */
static double *residuals_of(const Base *s, Py_ssize_t n)
{
    double *xs;
    /* too many points is a MemoryError */
    if (n > PY_SSIZE_T_MAX / (Py_ssize_t)(3 * sizeof(double))
        || (xs = PyMem_Malloc(3 * n * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    if (ring(s->prog, n, xs, s->work) < 0)
        goto fail;
    for (Py_ssize_t j = 0; j < n; j++)
        if (residual_at(s, xs + 2 * j, xs + 2 * n + j) < 0)
            goto fail;
    return xs;
fail:
    PyMem_Free(xs);
    return NULL;
}

static PyObject *Program_residuals(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError,
                            "residuals() takes exactly 5 arguments (%zd given)", nargs);
    double stack[STACK_CAP];
    double *buf = scratch(stack, base_size(self)), *xs = NULL;
    if (buf == NULL)
        return NULL;
    Base s;
    Py_ssize_t n;
    PyObject *out = NULL;
    if (load_base(self, args, buf, &s) == 0 && load_count(args[4], "resolution", 1, &n) == 0
        && (xs = residuals_of(&s, n)) != NULL && (out = PyList_New(n)) != NULL)
        for (Py_ssize_t j = 0; j < n; j++) {
            PyObject *f = PyFloat_FromDouble(xs[2 * n + j]);
            if (f == NULL) {
                Py_CLEAR(out);
                break;
            }
            PyList_SET_ITEM(out, j, f);
        }
    PyMem_Free(xs);
    if (buf != stack)
        PyMem_Free(buf);
    return out;
}

/* residual at circle(theta) into *out, the point into xy (2 doubles); the
   circle's node values go to the work slots.  -1 with an exception set. */
static int sweep_residual(const Base *s, double theta, double *xy, double *out)
{
    if (circle_of(s->prog, theta, s->work, xy) < 0)
        return -1;
    return residual_at(s, xy, out);
}

/* A theta within width of a sign change of sweep_residual inside [lo, hi],
   whose ends must not share a strict sign (f_lo is the residual at lo);
   an exact zero at a midpoint ends the search there, and so does a
   midpoint that is not strictly inside (lo and hi adjacent doubles),
   where the bisection could go on forever.  -1 with an exception set. */
static int bisect(const Base *s, double lo, double f_lo, double hi, double width,
                  double *out)
{
    double xy[2], f_mid;
    while (hi - lo > width) {
        double mid = 0.5 * (lo + hi);
        if (!(lo < mid && mid < hi))
            break;
        if (sweep_residual(s, mid, xy, &f_mid) < 0)
            return -1;
        if (f_mid == 0.0) {
            *out = mid;
            return 0;
        }
        if ((f_mid > 0.0) == (f_lo > 0.0)) {
            lo = mid;
            f_lo = f_mid;
        } else {
            hi = mid;
        }
    }
    *out = 0.5 * (lo + hi);
    return 0;
}

static PyObject *Program_crossing(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8)
        return PyErr_Format(PyExc_TypeError,
                            "crossing() takes exactly 8 arguments (%zd given)", nargs);
    double stack[STACK_CAP];
    double *buf = scratch(stack, base_size(self));
    if (buf == NULL)
        return NULL;
    Base s;
    double lo, f_lo, hi, width, theta;
    PyObject *out = NULL;
    if (load_base(self, args, buf, &s) == 0 && load_two(args + 4, &lo, &f_lo) == 0
        && load_two(args + 6, &hi, &width) == 0
        && bisect(&s, lo, f_lo, hi, width, &theta) == 0)
        out = PyFloat_FromDouble(theta);
    if (buf != stack)
        PyMem_Free(buf);
    return out;
}

/* A new LocusPoint row of 5 items, allocated as tuple.__new__(LocusPoint,
   ...) allocates it; NULL with an exception set.  The row is untracked by
   the cyclic GC: its items are floats and bools and LocusPoint has no
   instance __dict__ (bind_imports checks), so no cycle can pass through
   it, and CPython never untracks a tuple subclass's row itself, so every
   collection would traverse every live row. */
static PyObject *new_row(void)
{
    PyTypeObject *point = (PyTypeObject *)LocusPoint;
    PyObject *row = point->tp_alloc(point, 5);
    if (row != NULL)
        PyObject_GC_UnTrack(row);
    return row;
}

/* A new point row (theta, x, y, residual, crossing) of new floats: a
   bisected crossing's.  NULL with an exception set. */
static PyObject *row_of(double theta, const double *xy, double res, int crossing)
{
    PyObject *row = new_row();
    if (row == NULL)
        return NULL;
    double f[4] = {theta, xy[0], xy[1], res};
    for (int k = 0; k < 4; k++) {
        PyObject *o = PyFloat_FromDouble(f[k]);
        if (o == NULL) {
            Py_DECREF(row);
            return NULL;
        }
        PyTuple_SET_ITEM(row, k, o);
    }
    PyTuple_SET_ITEM(row, 4, PyBool_FromLong(crossing));
    return row;
}

/* A new point row (theta, x, y, residual, residual == 0) of a grid point:
   its theta, x and y are the three ring boxes at box, shared.  NULL with
   an exception set. */
static PyObject *grid_row(PyObject *const *box, double res)
{
    PyObject *row = new_row(), *r;
    if (row == NULL)
        return NULL;
    if ((r = PyFloat_FromDouble(res)) == NULL) {
        Py_DECREF(row);
        return NULL;
    }
    for (int k = 0; k < 3; k++)
        PyTuple_SET_ITEM(row, k, Py_NewRef(box[k]));
    PyTuple_SET_ITEM(row, 3, r);
    PyTuple_SET_ITEM(row, 4, PyBool_FromLong(res == 0.0));
    return row;
}

/* 1 if r0 and r1 have strict, opposite signs: the scan bisects there. */
static int sign_change(double r0, double r1)
{
    return !(r0 == 0.0 || r1 == 0.0 || (r0 > 0.0) == (r1 > 0.0));
}

/* The sweep of ortho_locus: residuals_of's grid at theta_j = j * step,
   step = 2 pi / resolution, then one row per point on the ring's boxes
   (ring_boxes), each strict sign change to the next point (cyclically)
   bisected and its row spliced in after the point's. */
static PyObject *Program_locus(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6)
        return PyErr_Format(PyExc_TypeError,
                            "locus() takes exactly 6 arguments (%zd given)", nargs);
    double stack[STACK_CAP];
    double *buf = scratch(stack, base_size(self));
    if (buf == NULL)
        return NULL;
    Base s;
    Py_ssize_t res;
    double width, *xs = NULL, *rs, step;
    PyObject *out = NULL, **boxes, **own = NULL;
    if (load_base(self, args, buf, &s) < 0 || load_count(args[4], "resolution", 1, &res) < 0)
        goto done;
    width = PyFloat_AsDouble(args[5]);
    if (width == -1.0 && PyErr_Occurred())
        goto done;
    if ((xs = residuals_of(&s, res)) == NULL
        || (boxes = ring_boxes(self, res, xs, &own)) == NULL)
        goto done;
    rs = xs + 2 * res;
    step = 2.0 * PI / (double)res;
    Py_ssize_t rows = res;
    for (Py_ssize_t j = 0; j < res; j++)
        rows += sign_change(rs[j], rs[(j + 1) % res]);
    if ((out = PyList_New(rows)) == NULL)
        goto done;
    for (Py_ssize_t j = 0, k = 0; j < res; j++) {
        double theta = (double)j * step, r = rs[j], nxt = rs[(j + 1) % res], cross, xy[2], rc;
        PyObject *row = grid_row(boxes + 3 * j, r);
        if (row == NULL)
            goto fail;
        PyList_SET_ITEM(out, k++, row);
        if (!sign_change(r, nxt))
            continue;
        if (bisect(&s, theta, r, theta + step, width, &cross) < 0
            || sweep_residual(&s, cross, xy, &rc) < 0
            || (row = row_of(cross, xy, rc, 1)) == NULL)
            goto fail;
        PyList_SET_ITEM(out, k++, row);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    drop_boxes(own, res);
    PyMem_Free(xs);
    if (buf != stack)
        PyMem_Free(buf);
    return out;
}

/* -- golden-section search ------------------------------------------------ */

/* (sqrt(5) - 1) / 2, as the twin computes it */
static const double INVPHI = 0x1.3c6ef372fe95p-1;

/* f(ctx, t) into *out; -1 with an exception set. */
typedef int (*Objective)(void *ctx, double t, double *out);

/* (argmin, min) of f over [lo, hi] into *x and *fx for unimodal f, by
   iters golden-section steps; the best point evaluated is kept, so *fx
   is a value f takes whatever its shape.  The only copy of the search:
   line_min and operator_norm run it.  -1 with an exception set. */
static int golden(Objective f, void *ctx, double lo, double hi, Py_ssize_t iters, double *x,
                  double *fx)
{
    double a = lo, b = hi, h = b - a, c = b - INVPHI * h, d = a + INVPHI * h, fc, fd;
    if (f(ctx, c, &fc) < 0 || f(ctx, d, &fd) < 0)
        return -1;
    double best_x = fc <= fd ? c : d, best_f = fc <= fd ? fc : fd;
    for (Py_ssize_t k = 0; k < iters; k++) {
        if (fc < fd) {
            b = d;
            d = c;
            fd = fc;
            h = b - a;
            c = b - INVPHI * h;
            if (f(ctx, c, &fc) < 0)
                return -1;
            if (fc < best_f) {
                best_x = c;
                best_f = fc;
            }
        } else {
            a = c;
            c = d;
            fc = fd;
            h = b - a;
            d = a + INVPHI * h;
            if (f(ctx, d, &fd) < 0)
                return -1;
            if (fd < best_f) {
                best_x = d;
                best_f = fd;
            }
        }
    }
    *x = best_x;
    *fx = best_f;
    return 0;
}

/* phi(t) into *out: a compiled line evaluator runs inline; any other
   callable is called and its result read as a float. */
static int line_point(void *phi, double t, double *out)
{
    if (Py_IS_TYPE((PyObject *)phi, &LineEvaluatorType)) {
        *out = line_at(phi, t);
        return 0;
    }
    PyObject *arg = PyFloat_FromDouble(t), *r;
    if (arg == NULL)
        return -1;
    r = PyObject_CallOneArg(phi, arg);
    Py_DECREF(arg);
    if (r == NULL)
        return -1;
    *out = PyFloat_AsDouble(r);
    Py_DECREF(r);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *Program_line_min(Program *Py_UNUSED(self), PyObject *const *args,
                                  Py_ssize_t nargs)
{
    if (nargs != 4)
        return PyErr_Format(PyExc_TypeError,
                            "line_min() takes exactly 4 arguments (%zd given)", nargs);
    double lo, hi, res[2];
    Py_ssize_t iters;
    if (load_two(args + 1, &lo, &hi) < 0 || load_count(args[3], "iters", 0, &iters) < 0
        || golden(line_point, args[0], lo, hi, iters, res, res + 1) < 0)
        return NULL;
    return tuple_of(res, 2);
}

/* -- planar operator norms ------------------------------------------------ */

/* The gain theta -> N(M circle(theta)) of an n x 2 matrix M: N is the
   codomain Program cod's, circle the domain Program dom's own, run
   inline. */
typedef struct {
    const Program *cod, *dom;
    const double *m;             /* M row by row, 2 doubles each */
    double *y, *vals, *dvals;    /* M x (n), cod's node values, dom's */
} Planar;

/* The compiled Program whose bound circle the callable is, or NULL. */
static const Program *own_circle(PyObject *circle)
{
    if (!PyCFunction_Check(circle)
        || PyCFunction_GET_FUNCTION(circle) != (PyCFunction)Program_circle)
        return NULL;
    PyObject *self = PyCFunction_GET_SELF(circle);
    return self != NULL && Py_IS_TYPE(self, &ProgramType) ? (const Program *)self : NULL;
}

/* N(M x) into *out for x at xy, each row of M x summed by fsum_row; -1
   with an exception set. */
static int image_gain(const Planar *s, const double *xy, double *out)
{
    for (int i = 0; i < s->cod->dim; i++)
        if (fsum_row(s->m + 2 * i, xy, 2, s->y + i) < 0)
            return -1;
    *out = value_of(s->cod, s->y, s->vals);
    return 0;
}

/* The negated gain at theta, which golden minimizes: negation is exact,
   so it takes the branches maximizing the gain would. */
static int planar_loss(void *ctx, double theta, double *out)
{
    const Planar *s = ctx;
    double xy[2];
    if (circle_of(s->dom, theta, s->dvals, xy) < 0 || image_gain(s, xy, out) < 0)
        return -1;
    *out = -*out;
    return 0;
}

/* The sweep of the planar operator norm: the gain at theta_j = j * step,
   step = 2 pi / GRID, on the domain's ring, its first largest value
   refined by GOLDEN_STEPS of golden over [theta_j - step, theta_j +
   step], and the larger of the two kept (the refinement on a tie), with
   circle at its angle.  circle must be a compiled Program's own. */
static PyObject *Program_operator_norm(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    enum { GRID = 1024, GOLDEN_STEPS = 80 };
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "operator_norm() takes exactly 2 arguments (%zd given)", nargs);
    Planar s = {self, own_circle(args[0]), NULL, NULL, NULL, NULL};
    if (s.dom == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "circle must be the bound circle of a Program of the same backend");
        return NULL;
    }
    Py_ssize_t rows = self->dim;
    double stack[STACK_CAP];
    double *buf = scratch(stack, 3 * rows + self->n + s.dom->n + 2 * GRID);
    if (buf == NULL)
        return NULL;
    s.m = buf;
    s.y = buf + 2 * rows;
    s.vals = s.y + rows;
    s.dvals = s.vals + self->n;
    PyObject *out = NULL, *norm = NULL, *direction = NULL;
    if (load_matrix(self, args[1], 2, buf) < 0)
        goto done;
    double step = 2.0 * PI / GRID, *xs = s.dvals + s.dom->n, best = -1.0, gain, theta, lowest,
           xy[2];
    Py_ssize_t best_j = 0;
    if (ring(s.dom, GRID, xs, s.dvals) < 0)
        goto done;
    /* the first largest gain */
    for (Py_ssize_t j = 0; j < GRID; j++) {
        if (image_gain(&s, xs + 2 * j, &gain) < 0)
            goto done;
        if (gain > best) {
            best = gain;
            best_j = j;
        }
    }
    double theta0 = (double)best_j * step;
    if (golden(planar_loss, &s, theta0 - step, theta0 + step, GOLDEN_STEPS, &theta, &lowest) < 0)
        goto done;
    double value = -lowest;
    if (!(value >= best)) {
        value = best;
        theta = theta0;
    }
    if (circle_of(s.dom, theta, s.dvals, xy) < 0)
        goto done;
    if ((norm = PyFloat_FromDouble(value)) != NULL && (direction = tuple_of(xy, 2)) != NULL)
        out = PyTuple_Pack(2, norm, direction);
done:
    Py_XDECREF(norm);
    Py_XDECREF(direction);
    if (buf != stack)
        PyMem_Free(buf);
    return out;
}

/* -- SplitMix64 ----------------------------------------------------------- */

/* Steele, Lea & Flood, "Fast splittable pseudorandom number generators"
   (OOPSLA 2014).  uint64_t arithmetic wraps at 2^64, as the twin's masks
   do. */
static const uint64_t GAMMA = 0x9E3779B97F4A7C15ULL;

typedef struct {
    PyObject_HEAD
    uint64_t state;
} SplitMix64;

static uint64_t next_u64(SplitMix64 *self)
{
    uint64_t z = self->state += GAMMA;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Uniform double in [lo, hi): the top 53 bits scaled by 2^-53 (exact),
   then lo + (hi - lo) * r. */
static double next_in(SplitMix64 *self, double lo, double hi)
{
    double d = (hi - lo) * ((double)(next_u64(self) >> 11) * 0x1.0p-53);
    return lo + d;
}

static PyObject *SplitMix64_at(PyTypeObject *type, uint64_t state)
{
    SplitMix64 *self = (SplitMix64 *)type->tp_alloc(type, 0);
    if (self != NULL)
        self->state = state;
    return (PyObject *)self;
}

/* The seed and substream index are taken mod 2^64, like `& _MASK`. */
static PyObject *SplitMix64_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"seed", NULL};
    PyObject *seed;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:SplitMix64", kwlist, &seed))
        return NULL;
    uint64_t s = PyLong_AsUnsignedLongLongMask(seed);
    if (s == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    return SplitMix64_at(type, s);
}

static void SplitMix64_dealloc(PyObject *self)
{
    PyTypeObject *type = Py_TYPE(self);
    type->tp_free(self);
    Py_DECREF(type);
}

static PyObject *SplitMix64_next_u64(SplitMix64 *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromUnsignedLongLong(next_u64(self));
}

/* r itself: 1.0 * r and 0.0 + r are exact. */
static PyObject *SplitMix64_random(SplitMix64 *self, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(next_in(self, 0.0, 1.0));
}

static PyObject *SplitMix64_uniform(SplitMix64 *self, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    double lo, hi;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "uniform() takes exactly 2 arguments (%zd given)", nargs);
    if (load_two(args, &lo, &hi) < 0)
        return NULL;
    return PyFloat_FromDouble(next_in(self, lo, hi));
}

static PyObject *SplitMix64_vector(SplitMix64 *self, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    double lo, hi;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError,
                            "vector() takes exactly 3 arguments (%zd given)", nargs);
    Py_ssize_t dim = PyNumber_AsSsize_t(args[0], PyExc_OverflowError);
    if (dim == -1 && PyErr_Occurred())
        return NULL;
    if (dim < 0)
        return PyErr_Format(PyExc_ValueError, "dim must be >= 0, got %zd", dim);
    if (load_two(args + 1, &lo, &hi) < 0)
        return NULL;
    PyObject *out = PyTuple_New(dim);
    for (Py_ssize_t j = 0; j < dim && out != NULL; j++) {
        PyObject *x = PyFloat_FromDouble(next_in(self, lo, hi));
        if (x == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, j, x);
    }
    return out;
}

static PyObject *SplitMix64_substream(SplitMix64 *self, PyObject *index)
{
    uint64_t i = PyLong_AsUnsignedLongLongMask(index);
    if (i == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    PyObject *child = SplitMix64_at(Py_TYPE(self), self->state ^ (i * GAMMA));
    if (child != NULL)
        next_u64((SplitMix64 *)child);
    return child;
}

/* -- types and module ----------------------------------------------------- */

static PyMethodDef Program_methods[] = {
    {"vectors", (PyCFunction)(void (*)(void))Program_vectors, METH_FASTCALL,
     "Each argument as a tuple of finite floats, all of length dim."},
    {"value", (PyCFunction)Program_value, METH_O, "Norm of u."},
    {"derivs", (PyCFunction)(void (*)(void))Program_derivs, METH_FASTCALL,
     "(N(u), D+, D-) of t -> N(u + t v) at t = 0."},
    {"line_evaluator", (PyCFunction)(void (*)(void))Program_line_evaluator, METH_FASTCALL,
     "Callable phi with phi(t) = N(u + t v); u and v are read as doubles."},
    {"circle", (PyCFunction)Program_circle, METH_O,
     "(cos theta, sin theta) / N(cos theta, sin theta) of a planar norm."},
    {"image", (PyCFunction)(void (*)(void))Program_image, METH_FASTCALL,
     "M x as a tuple; each row of M x is summed exactly, as math.fsum sums it."},
    {"residual", (PyCFunction)(void (*)(void))Program_residual, METH_FASTCALL,
     "Residual of relation code at (u, v); zero (<= 0 for birkhoff) where it holds."},
    {"residuals", (PyCFunction)(void (*)(void))Program_residuals, METH_FASTCALL,
     "The residual of relation code at each point of the planar unit circle's grid."},
    {"crossing", (PyCFunction)(void (*)(void))Program_crossing, METH_FASTCALL,
     "A theta within width of a sign change of the residual on the circle."},
    {"locus", (PyCFunction)(void (*)(void))Program_locus, METH_FASTCALL,
     "Rows (theta, x, y, residual, is_zero_crossing) along the planar unit circle."},
    {"line_min", (PyCFunction)(void (*)(void))Program_line_min, METH_FASTCALL,
     "(t, phi(t)) for the least phi(t) a golden-section search on [lo, hi] finds."},
    {"operator_norm", (PyCFunction)(void (*)(void))Program_operator_norm, METH_FASTCALL,
     "(value, direction): the largest N(M x) a sweep of a planar unit circle finds."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ProgramType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "normortho._kernels.Program",
    .tp_doc = "Program(kinds, params, weights, dim): a compiled tape.",
    .tp_basicsize = sizeof(Program),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Program_new,
    .tp_dealloc = (destructor)Program_dealloc,
    .tp_methods = Program_methods,
};

static PyTypeObject LineEvaluatorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "normortho._kernels.LineEvaluator",
    .tp_doc = "phi(t) = N(u + t v) for the u and v given to line_evaluator.",
    .tp_basicsize = offsetof(LineEvaluator, data),
    .tp_itemsize = sizeof(double),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_vectorcall_offset = offsetof(LineEvaluator, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_dealloc = (destructor)LineEvaluator_dealloc,
};

static PyMethodDef SplitMix64_methods[] = {
    {"next_u64", (PyCFunction)SplitMix64_next_u64, METH_NOARGS, "Next 64-bit output."},
    {"random", (PyCFunction)SplitMix64_random, METH_NOARGS, "Uniform double in [0, 1)."},
    {"uniform", (PyCFunction)(void (*)(void))SplitMix64_uniform, METH_FASTCALL,
     "Uniform double in [lo, hi)."},
    {"vector", (PyCFunction)(void (*)(void))SplitMix64_vector, METH_FASTCALL,
     "Tuple of dim successive uniform(lo, hi) draws."},
    {"substream", (PyCFunction)SplitMix64_substream, METH_O,
     "Independent child stream; deterministic in (seed, index)."},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot SplitMix64_slots[] = {
    {Py_tp_doc, "SplitMix64(seed): 64-bit PRNG; the seed is taken mod 2^64."},
    {Py_tp_new, SplitMix64_new},
    {Py_tp_dealloc, SplitMix64_dealloc},
    {Py_tp_methods, SplitMix64_methods},
    {0, NULL},
};

/* A heap type without Py_TPFLAGS_IMMUTABLETYPE, so that its methods can
   be rebound on the class, as they can on the twin's. */
static PyType_Spec SplitMix64_spec = {
    .name = "normortho._kernels.SplitMix64",
    .basicsize = sizeof(SplitMix64),
    .flags = Py_TPFLAGS_DEFAULT,
    .slots = SplitMix64_slots,
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "normortho._kernels",
    .m_doc = "Compiled tape interpreter and SplitMix64; mirrors _kernels_py.",
    .m_size = -1,
};

/* module.name into *slot; -1 with an exception set.  None of
   normortho.errors, normortho.program and math imports this module, so
   this cannot cycle back. */
static int bind(PyObject **slot, const char *module, const char *name)
{
    PyObject *m = PyImport_ImportModule(module);
    if (m == NULL)
        return -1;
    Py_XSETREF(*slot, PyObject_GetAttrString(m, name));
    Py_DECREF(m);
    return *slot != NULL ? 0 : -1;
}

/* new_row allocates LocusPoint rows as tuples and untracks them, so
   LocusPoint must be a tuple subclass without an instance __dict__. */
static int bind_imports(void)
{
    if (bind(&ZeroVectorError, "normortho.errors", "ZeroVectorError") < 0
        || bind(&NonSmoothPointError, "normortho.errors", "NonSmoothPointError") < 0
        || bind(&DimensionMismatchError, "normortho.errors", "DimensionMismatchError") < 0
        || bind(&math_fsum, "math", "fsum") < 0
        || bind(&LocusPoint, "normortho.program", "LocusPoint") < 0)
        return -1;
    PyTypeObject *point = (PyTypeObject *)LocusPoint;
    if (PyType_Check(LocusPoint) && PyType_IsSubtype(point, &PyTuple_Type)
        && point->tp_dictoffset == 0)
        return 0;
    PyErr_Format(PyExc_TypeError, "LocusPoint must be a tuple subclass without a __dict__, got %R",
                 LocusPoint);
    return -1;
}

PyMODINIT_FUNC PyInit__kernels(void)
{
    if (bind_imports() < 0 || PyType_Ready(&ProgramType) < 0
        || PyType_Ready(&LineEvaluatorType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernels_module);
    if (m == NULL)
        return NULL;
    PyObject *rng = PyType_FromSpec(&SplitMix64_spec);
    if (rng == NULL || PyModule_AddObjectRef(m, "Program", (PyObject *)&ProgramType) < 0
        || PyModule_AddObjectRef(m, "SplitMix64", rng) < 0)
        Py_CLEAR(m);
    Py_XDECREF(rng);
    return m;
}
