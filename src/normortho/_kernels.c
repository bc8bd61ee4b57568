/* Compiled tape interpreter and SplitMix64 stream: the CPython extension
   normortho._kernels, twin of `_kernels_py`.  The module docstring of
   `_kernels_py` describes Program, its nine methods and SplitMix64 for
   both twins; when touching a formula here, change the twin identically.

   What only this twin has: no a * b + c may become a fused multiply-add
   (the pragmas below), and the normortho.errors classes that semi and
   vectors raise are bound at module init.

   Build with `python setup.py build_ext`, or directly:
   gcc -O2 -shared -fPIC -I<python include> _kernels.c -o _kernels<EXT_SUFFIX>
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* The twin rounds every product before it is added, so no a * b + c may
   become one fused multiply-add, whatever the target or -march. */
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
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

/* normortho.errors classes semi and vectors raise, bound at module init */
static PyObject *ZeroVectorError, *NonSmoothPointError, *DimensionMismatchError;

/* pi as math.pi gives it (the C standard defines no M_PI) */
static const double PI = 3.141592653589793;

/* per-call scratch lives on the stack up to this many doubles */
#define STACK_CAP 256

typedef struct {
    PyObject_HEAD
    int n, dim;
    /* one block: params (n), weights, then kinds, woff, left, right (n each) */
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

/* D+ and D- of t -> N(u + t v) at t = 0 of every node, given value_of's
   vals at u in the bottom n of the 2n slots of vals.  A leaf that is 0 at
   u has N(u + t v) = |t| N(v), so D+- = +-N(v); vvals, the top n slots,
   holds N at v of every node, filled at the first such leaf. */
static void derivs_of(const Program *p, const double *u, const double *v,
                      double *vals, double *dps, double *dms)
{
    int dim = p->dim;
    double *vvals = NULL;
    for (int i = 0; i < p->n; i++) {
        const double *w = p->weights + p->woff[i];
        int k = p->kinds[i], lc = p->left[i], rc = p->right[i];
        double val = vals[i], s, sp, sa, d, a, b, m, g, uj, thr, pm1, dp, dm;
        if ((k == K_L2 || k == K_WLPINF || k == K_WLPP) && val == 0.0) {
            if (vvals == NULL) {
                vvals = vals + p->n;
                value_of(p, v, vvals);
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
            pm1 = p->params[i] - 1.0;
            d = 0.0;
            for (int j = 0; j < dim; j++) {
                uj = u[j];
                if (uj > 0.0)
                    d += w[j] * pow(uj / val, pm1) * v[j];
                else if (uj < 0.0)
                    d -= w[j] * pow(-uj / val, pm1) * v[j];
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
    double *buf = PyMem_Malloc(need * sizeof(double));
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

/* 0 if every node has a known kind, its children are earlier nodes and
   a weighted leaf's dim weights lie in the pool of nw; else -1 with
   ValueError set.  Same checks and texts as _kernels_py.Program. */
static int check_tape(const Program *p, Py_ssize_t nw)
{
    for (int i = 0; i < p->n; i++) {
        int k = p->kinds[i], nc = 0;
        if (k < K_L2 || k > K_SCALE) {
            PyErr_Format(PyExc_ValueError, "tape node %d: unknown kind %d", i, k);
            return -1;
        }
        if (k == K_MAX || k == K_SUM)
            nc = 2;
        else if (k == K_SCALE)
            nc = 1;
        for (int c = 0; c < nc; c++) {
            int child = c == 0 ? p->left[i] : p->right[i];
            if (child < 0 || child >= i) {
                PyErr_Format(PyExc_ValueError,
                             "tape node %d: child %d is not an earlier node", i, child);
                return -1;
            }
        }
        Py_ssize_t wo = p->woff[i];
        if ((k == K_WLP1 || k == K_WLPINF || k == K_WLPP)
            && (wo < 0 || wo + p->dim > nw)) {
            PyErr_Format(PyExc_ValueError,
                         "tape node %d: weights %zd..%zd lie outside the pool of %zd",
                         i, wo, wo + p->dim, nw);
            return -1;
        }
    }
    return 0;
}

static PyObject *Program_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"kinds", "params", "woff", "weights", "left", "right",
                             "dim", NULL};
    PyObject *kinds, *params, *woff, *weights, *left, *right;
    int dim;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOOOi:Program", kwlist, &kinds,
                                     &params, &woff, &weights, &left, &right, &dim))
        return NULL;
    Py_ssize_t n = PyObject_Length(kinds), nw = PyObject_Length(weights);
    if (n < 0 || nw < 0)
        return NULL;
    PyObject *cols[] = {params, woff, left, right};
    for (int c = 0; c < 4; c++) {
        Py_ssize_t len = PyObject_Length(cols[c]);
        if (len < 0)
            return NULL;
        if (n < 1 || n > INT_MAX || len != n) {
            PyErr_SetString(PyExc_ValueError,
                            "tape columns must all have the same length n >= 1");
            return NULL;
        }
    }
    Program *self = (Program *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->n = (int)n;
    self->dim = dim;
    self->params = PyMem_Malloc((n + nw) * sizeof(double) + 4 * n * sizeof(int));
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
        || load_ints(woff, n, self->woff) < 0 || load_doubles(weights, nw, self->weights) < 0
        || load_ints(left, n, self->left) < 0 || load_ints(right, n, self->right) < 0
        || check_tape(self, nw) < 0) {
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
    double *cu = scratch(stack, 2 * dim + 4 * n);
    if (cu == NULL)
        return NULL;
    double *cv = cu + dim, *vals = cv + dim, *dps = vals + 2 * n, *dms = dps + n;
    PyObject *out = NULL;
    if (load_doubles(args[0], dim, cu) == 0 && load_doubles(args[1], dim, cv) == 0) {
        value_of(self, cu, vals);
        derivs_of(self, cu, cv, vals, dps, dms);
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

static PyTypeObject LineEvaluatorType;

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
    int dim = self->prog->dim;
    const double *u = self->data, *v = u + dim;
    double *x = self->data + 2 * dim;
    for (int j = 0; j < dim; j++)
        x[j] = u[j] + t * v[j];
    return PyFloat_FromDouble(value_of(self->prog, x, x + dim));
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

/* row[j] * x[j] into *out as `math.fsum(map(operator.mul, row, x))` sees
   it: two floats multiply in C, anything else through Python's `*` and
   then the float conversion fsum applies.  -1 with an exception set. */
static int product(PyObject *row, PyObject *x, Py_ssize_t j, double *out)
{
    PyObject *a = item(row, j), *b = NULL, *ab = NULL;
    int rc = -1;
    if (a == NULL || (b = item(x, j)) == NULL)
        goto done;
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b)) {
        *out = PyFloat_AS_DOUBLE(a) * PyFloat_AS_DOUBLE(b);
        rc = 0;
    } else if ((ab = PyNumber_Multiply(a, b)) != NULL) {
        *out = PyFloat_AsDouble(ab);
        rc = *out == -1.0 && PyErr_Occurred() ? -1 : 0;
    }
done:
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(ab);
    return rc;
}

/* Sum of the cols products row[j] * x[j], correctly rounded, with the
   value and the errors of math.fsum: Shewchuk's non-overlapping partials
   ("Adaptive precision floating-point arithmetic", DCG 1997), +-inf and
   NaN summed apart, then fsum's half-even fix-up across partials.  Each
   product adds at most one partial, so p holds cols doubles.  -1 with an
   exception set on failure. */
static int fsum_row(PyObject *row, PyObject *x, Py_ssize_t cols, double *p, double *out)
{
    Py_ssize_t n = 0;
    double special = 0.0, inf_sum = 0.0, a, b, t, hi, lo = 0.0;
    for (Py_ssize_t j = 0; j < cols; j++) {
        if (product(row, x, j, &a) < 0)
            return -1;
        double saved = a;
        Py_ssize_t i = 0;
        for (Py_ssize_t k = 0; k < n; k++) {
            b = p[k];
            if (fabs(a) < fabs(b)) {
                t = a;
                a = b;
                b = t;
            }
            hi = a + b;
            lo = b - (hi - a);
            if (lo != 0.0)
                p[i++] = lo;
            a = hi;
        }
        n = i;
        if (a == 0.0)
            continue;
        if (isfinite(a)) {
            p[n++] = a;
        } else if (isfinite(saved)) {
            PyErr_SetString(PyExc_OverflowError, "intermediate overflow in fsum");
            return -1;
        } else {
            if (isinf(saved))
                inf_sum += saved;
            special += saved;
            n = 0;
        }
    }
    if (special != 0.0) {
        if (isnan(inf_sum)) {
            PyErr_SetString(PyExc_ValueError, "-inf + inf in fsum");
            return -1;
        }
        *out = special;
        return 0;
    }
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        /* add from the top while the sums stay exact */
        while (n > 0) {
            a = hi;
            b = p[--n];
            hi = a + b;
            lo = b - (hi - a);
            if (lo != 0.0)
                break;
        }
        /* round half-even across partials: a remainder of the same sign
           below lo can make lo, doubled, worth one more ulp */
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            b = lo * 2.0;
            a = hi + b;
            if (b == a - hi)
                hi = a;
        }
    }
    *out = hi;
    return 0;
}

static PyObject *Program_image_value(Program *self, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "image_value() takes exactly 2 arguments (%zd given)", nargs);
    PyObject *matrix = args[0], *x = args[1];
    Py_ssize_t rows = PyObject_Length(matrix), cols;
    if (rows < 0)
        return NULL;
    if (rows != self->dim)
        return PyErr_Format(PyExc_ValueError, "expected %d rows, got %zd", self->dim, rows);
    if ((cols = PyObject_Length(x)) < 0)
        return NULL;
    /* a __len__ near PY_SSIZE_T_MAX must not wrap the scratch size */
    if (cols > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double) - rows - self->n)
        return PyErr_NoMemory();
    double stack[STACK_CAP];
    double *y = scratch(stack, rows + self->n + cols);
    if (y == NULL)
        return NULL;
    double *vals = y + rows, *partials = vals + self->n;
    PyObject *out = NULL;
    Py_ssize_t i = 0;
    for (; i < rows; i++) {
        PyObject *row = item(matrix, i);
        if (row == NULL)
            break;
        Py_ssize_t len = PyObject_Length(row);
        if (len >= 0 && len != cols)
            PyErr_Format(PyExc_ValueError, "expected rows of %zd entries, got %zd", cols, len);
        int rc = len == cols ? fsum_row(row, x, cols, partials, y + i) : -1;
        Py_DECREF(row);
        if (rc < 0)
            break;
    }
    if (i == rows)
        out = PyFloat_FromDouble(value_of(self, y, vals));
    if (y != stack)
        PyMem_Free(y);
    return out;
}

/* -- orthogonality relations ---------------------------------------------- */

/* The residual of relation code at (u, v) into *out; x holds dim doubles
   and vals 4n.  max(rm, -rp) is spelled as Python's max evaluates it, so
   a NaN orders the same.  -1 with an exception set (semi only). */
static int residual_of(const Program *p, long code, double a, double b, const double *u,
                       const double *v, double *x, double *vals, double *out)
{
    int dim = p->dim, n = p->n;
    double *dps = vals + 2 * n, *dms = dps + n;
    if (code == R_ISOSCELES) {
        for (int j = 0; j < dim; j++)
            x[j] = u[j] + v[j];
        double plus = value_of(p, x, vals);
        for (int j = 0; j < dim; j++)
            x[j] = u[j] - v[j];
        *out = plus - value_of(p, x, vals);
        return 0;
    }
    if (code == R_PYTHAGOREAN) {
        for (int j = 0; j < dim; j++)
            x[j] = u[j] - v[j];
        double diff = value_of(p, x, vals);
        double nu = value_of(p, u, vals);
        double nv = value_of(p, v, vals);
        *out = diff * diff - (nu * nu + nv * nv);
        return 0;
    }
    value_of(p, u, vals);
    derivs_of(p, u, v, vals, dps, dms);
    double val = vals[n - 1], rm = val * dms[n - 1], rp = val * dps[n - 1];
    switch (code) {
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
        *out = a * rm + (1.0 - a) * rp;
        return 0;
    case R_RHO_AB:
        *out = a * rm + b * rp;
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

static PyObject *Program_residual(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError,
                            "residual() takes exactly 5 arguments (%zd given)", nargs);
    long code;
    double a, b;
    if (load_relation(args, &code, &a, &b) < 0 || check_pair(self, "residual", args + 3, 2) < 0)
        return NULL;
    Py_ssize_t dim = self->dim;
    double stack[STACK_CAP];
    double *cu = scratch(stack, 3 * dim + 4 * (Py_ssize_t)self->n);
    if (cu == NULL)
        return NULL;
    double *cv = cu + dim, *x = cv + dim, res;
    PyObject *out = NULL;
    if (load_doubles(args[3], dim, cu) == 0 && load_doubles(args[4], dim, cv) == 0
        && residual_of(self, code, a, b, cu, cv, x, x + dim, &res) == 0)
        out = PyFloat_FromDouble(res);
    if (cu != stack)
        PyMem_Free(cu);
    return out;
}

/* -- planar loci ---------------------------------------------------------- */

/* The relation and base vector of a planar sweep: code, a and b as
   residual reads them, then u, which must hold dim coordinates.  The
   caller's scratch holds u (dim doubles), then the work of residual_of:
   a point x (dim) and vals (4n). */
typedef struct {
    const Program *prog;
    long code;
    double a, b;
    double *u, *x, *vals;
} Sweep;

/* residual(code, a, b, u, circle(theta)) into *out; -1 with an exception
   set.  The point goes to xy (2 doubles). */
static int sweep_residual(const Sweep *s, double theta, double *xy, double *out)
{
    if (circle_of(s->prog, theta, s->vals, xy) < 0)
        return -1;
    return residual_of(s->prog, s->code, s->a, s->b, s->u, xy, s->x, s->vals, out);
}

/* A theta within width of a sign change of sweep_residual inside [lo, hi],
   whose ends must not share a strict sign (f_lo is the residual at lo);
   an exact zero at a midpoint ends the search there, and so does a
   midpoint that is not strictly inside (lo and hi adjacent doubles),
   where the bisection could go on forever.  -1 with an exception set. */
static int bisect(const Sweep *s, double lo, double f_lo, double hi, double width,
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

/* Reads args[0..4) into s: the relation, then u into buf, whose length
   must be dim.  buf holds 2 dim + 4n doubles.  -1 with an exception set. */
static int load_sweep(Program *self, PyObject *const *args, double *buf, Sweep *s)
{
    s->prog = self;
    if (load_relation(args, &s->code, &s->a, &s->b) < 0)
        return -1;
    Py_ssize_t lu = PyObject_Length(args[3]);
    if (lu < 0)
        return -1;
    if (lu != self->dim) {
        PyErr_Format(PyExc_ValueError, "expected %d coordinates, got %zd", self->dim, lu);
        return -1;
    }
    s->u = buf;
    s->x = buf + self->dim;
    s->vals = s->x + self->dim;
    return load_doubles(args[3], self->dim, s->u);
}

static PyObject *Program_crossing(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8)
        return PyErr_Format(PyExc_TypeError,
                            "crossing() takes exactly 8 arguments (%zd given)", nargs);
    double stack[STACK_CAP];
    double *buf = scratch(stack, 2 * (Py_ssize_t)self->dim + 4 * (Py_ssize_t)self->n);
    if (buf == NULL)
        return NULL;
    Sweep s;
    double lo, f_lo, hi, width, theta;
    PyObject *out = NULL;
    if (load_sweep(self, args, buf, &s) == 0 && load_two(args + 4, &lo, &f_lo) == 0
        && load_two(args + 6, &hi, &width) == 0
        && bisect(&s, lo, f_lo, hi, width, &theta) == 0)
        out = PyFloat_FromDouble(theta);
    if (buf != stack)
        PyMem_Free(buf);
    return out;
}

/* A new point row (theta, x, y, residual, crossing), allocated as
   tuple.__new__(point, ...) allocates it; NULL with an exception set. */
static PyObject *row_of(PyTypeObject *point, double theta, const double *xy, double res,
                        int crossing)
{
    PyObject *row = point == &PyTuple_Type ? PyTuple_New(5) : point->tp_alloc(point, 5);
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

/* 1 if r0 and r1 have strict, opposite signs: the scan bisects there. */
static int sign_change(double r0, double r1)
{
    return !(r0 == 0.0 || r1 == 0.0 || (r0 > 0.0) == (r1 > 0.0));
}

/* The sweep of ortho_locus: every circle point at theta_j = j * step,
   step = 2 pi / resolution, then every residual there (so an error is
   raised at the same point as the twin's), then one row per point, each
   strict sign change to the next point (cyclically) bisected and its row
   spliced in after the point's. */
static PyObject *Program_locus(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError,
                            "locus() takes exactly 7 arguments (%zd given)", nargs);
    Py_ssize_t dim = self->dim, n = self->n;
    double stack[STACK_CAP];
    double *buf = scratch(stack, 2 * dim + 4 * n);
    if (buf == NULL)
        return NULL;
    Sweep s;
    Py_ssize_t res;
    double width, *xs = NULL, *rs, step;
    PyObject *point = args[6], *index, *out = NULL;
    if (load_sweep(self, args, buf, &s) < 0 || (index = PyNumber_Index(args[4])) == NULL)
        goto done;
    /* clamped to the Py_ssize_t range: too many points is a MemoryError */
    res = PyNumber_AsSsize_t(index, NULL);
    if (res < 1)
        PyErr_Format(PyExc_ValueError, "resolution must be >= 1, got %R", index);
    Py_DECREF(index);
    if (res < 1)
        goto done;
    width = PyFloat_AsDouble(args[5]);
    if (width == -1.0 && PyErr_Occurred())
        goto done;
    if (!PyType_Check(point) || !PyType_IsSubtype((PyTypeObject *)point, &PyTuple_Type)) {
        PyErr_Format(PyExc_TypeError, "point must be a tuple subclass, got %R", point);
        goto done;
    }
    /* the circle points (2 doubles each), then the residuals */
    if (res > PY_SSIZE_T_MAX / (Py_ssize_t)(3 * sizeof(double))
        || (xs = PyMem_Malloc(3 * res * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    rs = xs + 2 * res;
    step = 2.0 * PI / (double)res;
    for (Py_ssize_t j = 0; j < res; j++)
        if (circle_of(self, (double)j * step, s.vals, xs + 2 * j) < 0)
            goto done;
    for (Py_ssize_t j = 0; j < res; j++)
        if (residual_of(self, s.code, s.a, s.b, s.u, xs + 2 * j, s.x, s.vals, rs + j) < 0)
            goto done;
    Py_ssize_t rows = res;
    for (Py_ssize_t j = 0; j < res; j++)
        rows += sign_change(rs[j], rs[(j + 1) % res]);
    if ((out = PyList_New(rows)) == NULL)
        goto done;
    for (Py_ssize_t j = 0, k = 0; j < res; j++) {
        double theta = (double)j * step, r = rs[j], nxt = rs[(j + 1) % res], cross, xy[2], rc;
        PyObject *row = row_of((PyTypeObject *)point, theta, xs + 2 * j, r, r == 0.0);
        if (row == NULL)
            goto fail;
        PyList_SET_ITEM(out, k++, row);
        if (!sign_change(r, nxt))
            continue;
        if (bisect(&s, theta, r, theta + step, width, &cross) < 0
            || sweep_residual(&s, cross, xy, &rc) < 0
            || (row = row_of((PyTypeObject *)point, cross, xy, rc, 1)) == NULL)
            goto fail;
        PyList_SET_ITEM(out, k++, row);
    }
    goto done;
fail:
    Py_CLEAR(out);
done:
    PyMem_Free(xs);
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
     "Callable phi with phi(t) = N(u + t v); buffers reused per call."},
    {"circle", (PyCFunction)Program_circle, METH_O,
     "(cos theta, sin theta) / N(cos theta, sin theta) of a planar norm."},
    {"image_value", (PyCFunction)(void (*)(void))Program_image_value, METH_FASTCALL,
     "N(M x); each row of M x is summed exactly, as math.fsum sums it."},
    {"residual", (PyCFunction)(void (*)(void))Program_residual, METH_FASTCALL,
     "Residual of relation code at (u, v): zero (<= 0 for birkhoff) where the "
     "relation holds."},
    {"crossing", (PyCFunction)(void (*)(void))Program_crossing, METH_FASTCALL,
     "A theta within width of a sign change of the residual at circle(theta) "
     "inside [lo, hi]."},
    {"locus", (PyCFunction)(void (*)(void))Program_locus, METH_FASTCALL,
     "Rows (theta, x, y, residual, is_zero_crossing) of the relation along the "
     "planar unit circle, refined crossings spliced in."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject ProgramType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "normortho._kernels.Program",
    .tp_doc = "Program(kinds, params, woff, weights, left, right, dim): a compiled tape.",
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

/* errors imports nothing, so importing it here cannot cycle back. */
static int bind_errors(void)
{
    PyObject *errors = PyImport_ImportModule("normortho.errors");
    if (errors == NULL)
        return -1;
    Py_XSETREF(ZeroVectorError, PyObject_GetAttrString(errors, "ZeroVectorError"));
    Py_XSETREF(NonSmoothPointError, PyObject_GetAttrString(errors, "NonSmoothPointError"));
    Py_XSETREF(DimensionMismatchError,
               PyObject_GetAttrString(errors, "DimensionMismatchError"));
    Py_DECREF(errors);
    return ZeroVectorError != NULL && NonSmoothPointError != NULL
        && DimensionMismatchError != NULL ? 0 : -1;
}

PyMODINIT_FUNC PyInit__kernels(void)
{
    if (bind_errors() < 0 || PyType_Ready(&ProgramType) < 0
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
