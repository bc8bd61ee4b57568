/* Compiled tape interpreter and SplitMix64 stream: the CPython extension
   normortho._kernels, twin of `_kernels_py`.  The module docstring of
   `_kernels_py` describes Program, its twelve methods and SplitMix64 for
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

/* A running math.fsum: Shewchuk's non-overlapping partials ("Adaptive
   precision floating-point arithmetic", DCG 1997) in p, with +-inf and
   NaN summed apart.  Each summand adds at most one partial, so p holds
   as many doubles as there are summands. */
typedef struct {
    double *p;
    Py_ssize_t n;
    double special, inf_sum;
} FSum;

/* Adds a to the sum; -1 with OverflowError set, as fsum raises it, when
   finite summands overflow. */
static int fsum_add(FSum *s, double a)
{
    double saved = a, b, t, hi, lo;
    Py_ssize_t i = 0;
    for (Py_ssize_t k = 0; k < s->n; k++) {
        b = s->p[k];
        if (fabs(a) < fabs(b)) {
            t = a;
            a = b;
            b = t;
        }
        hi = a + b;
        lo = b - (hi - a);
        if (lo != 0.0)
            s->p[i++] = lo;
        a = hi;
    }
    s->n = i;
    if (a == 0.0)
        return 0;
    if (isfinite(a)) {
        s->p[s->n++] = a;
    } else if (isfinite(saved)) {
        PyErr_SetString(PyExc_OverflowError, "intermediate overflow in fsum");
        return -1;
    } else {
        if (isinf(saved))
            s->inf_sum += saved;
        s->special += saved;
        s->n = 0;
    }
    return 0;
}

/* The correctly rounded sum into *out, with fsum's half-even fix-up
   across partials; -1 with ValueError set for -inf + inf. */
static int fsum_result(const FSum *s, double *out)
{
    const double *p = s->p;
    double a, b, hi = 0.0, lo = 0.0;
    Py_ssize_t n = s->n;
    if (s->special != 0.0) {
        if (isnan(s->inf_sum)) {
            PyErr_SetString(PyExc_ValueError, "-inf + inf in fsum");
            return -1;
        }
        *out = s->special;
        return 0;
    }
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

/* Sum of the cols products row[j] * x[j] into *out, with the value and the
   errors of math.fsum; p holds cols doubles.  -1 with an exception set. */
static int fsum_row(PyObject *row, PyObject *x, Py_ssize_t cols, double *p, double *out)
{
    FSum s = {p, 0, 0.0, 0.0};
    double a;
    for (Py_ssize_t j = 0; j < cols; j++)
        if (product(row, x, j, &a) < 0 || fsum_add(&s, a) < 0)
            return -1;
    return fsum_result(&s, out);
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

/* A relation and its base pass at a base vector u, which every residual
   along a direction v reads: residual's one v, the points of residuals
   and the circle points of the planar sweeps.  The scratch, base_size
   doubles, holds u, v and a point x (dim each), then vals ((1 + dim) n,
   as base_of fills it) and work (3n): node values at a point (a circle
   point's, N at v for a leaf that is 0 at u, or at u +- v), then D+ and
   D-.  The base pass fills vals and nothing overwrites it. */
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

/* The residual at each of the m points pts (dim doubles each) into rs, in
   order: the one loop of residuals and of the locus grid.  -1 with an
   exception set at the first point that raises. */
static int residuals_of(const Base *s, const double *pts, Py_ssize_t m, double *rs)
{
    for (Py_ssize_t k = 0; k < m; k++)
        if (residual_at(s, pts + k * s->prog->dim, rs + k) < 0)
            return -1;
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

/* Every point of xs is read, its length checked as residual checks v's,
   before the first residual is taken. */
static PyObject *Program_residuals(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5)
        return PyErr_Format(PyExc_TypeError,
                            "residuals() takes exactly 5 arguments (%zd given)", nargs);
    Py_ssize_t dim = self->dim, m;
    double stack[STACK_CAP];
    double *buf = scratch(stack, base_size(self)), *pts = NULL;
    if (buf == NULL)
        return NULL;
    Base s;
    PyObject *xs = NULL, *out = NULL;
    if (load_base(self, args, buf, &s) < 0 || (xs = PySequence_Tuple(args[4])) == NULL)
        goto done;
    /* the points (dim doubles each), then their residuals */
    m = PyTuple_GET_SIZE(xs);
    if (m > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double) / (dim + 1)
        || (pts = PyMem_Malloc(m * (dim + 1) * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        PyObject *x = PyTuple_GET_ITEM(xs, k);
        Py_ssize_t len = PyObject_Length(x);
        if (len < 0)
            goto done;
        if (len != dim) {
            PyErr_Format(PyExc_ValueError, "expected %d coordinates, got %d and %zd",
                         self->dim, self->dim, len);
            goto done;
        }
        if (load_doubles(x, dim, pts + k * dim) < 0)
            goto done;
    }
    if (residuals_of(&s, pts, m, pts + m * dim) < 0 || (out = PyList_New(m)) == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < m; k++) {
        PyObject *f = PyFloat_FromDouble(pts[m * dim + k]);
        if (f == NULL) {
            Py_CLEAR(out);
            break;
        }
        PyList_SET_ITEM(out, k, f);
    }
done:
    Py_XDECREF(xs);
    PyMem_Free(pts);
    if (buf != stack)
        PyMem_Free(buf);
    return out;
}

/* -- planar loci ---------------------------------------------------------- */

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
   step = 2 pi / resolution, then every residual there through
   residuals_of (so an error is raised at the same point as the twin's),
   then one row per point, each strict sign change to the next point
   (cyclically) bisected and its row spliced in after the point's. */
static PyObject *Program_locus(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 7)
        return PyErr_Format(PyExc_TypeError,
                            "locus() takes exactly 7 arguments (%zd given)", nargs);
    double stack[STACK_CAP];
    double *buf = scratch(stack, base_size(self));
    if (buf == NULL)
        return NULL;
    Base s;
    Py_ssize_t res;
    double width, *xs = NULL, *rs, step;
    PyObject *point = args[6], *out = NULL;
    /* too many points is a MemoryError below */
    if (load_base(self, args, buf, &s) < 0 || load_count(args[4], "resolution", 1, &res) < 0)
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
        if (circle_of(self, (double)j * step, s.work, xs + 2 * j) < 0)
            goto done;
    if (residuals_of(&s, xs, res, rs) < 0)
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

/* The gain theta -> N(M circle(theta)) of an n x 2 matrix M.  dom is the
   compiled Program whose own circle was passed, which then runs inline,
   or NULL: circle is called and its result read as two floats. */
typedef struct {
    const Program *cod, *dom;
    PyObject *circle;
    const double *m;             /* M row by row, 2 doubles each */
    double *y, *vals, *dvals;    /* M x (n), cod's node values, dom's */
} Planar;

/* The Program whose circle the callable is, or NULL. */
static const Program *own_circle(PyObject *circle)
{
    if (!PyCFunction_Check(circle)
        || PyCFunction_GET_FUNCTION(circle) != (PyCFunction)Program_circle)
        return NULL;
    PyObject *self = PyCFunction_GET_SELF(circle);
    return self != NULL && Py_IS_TYPE(self, &ProgramType) ? (const Program *)self : NULL;
}

/* circle(theta) into xy; -1 with an exception set. */
static int planar_point(const Planar *s, double theta, double *xy)
{
    if (s->dom != NULL)
        return circle_of(s->dom, theta, s->dvals, xy);
    PyObject *arg = PyFloat_FromDouble(theta), *pt;
    if (arg == NULL)
        return -1;
    pt = PyObject_CallOneArg(s->circle, arg);
    Py_DECREF(arg);
    if (pt == NULL)
        return -1;
    Py_ssize_t len = PyObject_Length(pt);
    int rc = -1;
    if (len == 2)
        rc = load_doubles(pt, 2, xy);
    else if (len >= 0)
        PyErr_Format(PyExc_ValueError, "expected 2 coordinates, got %zd", len);
    Py_DECREF(pt);
    return rc;
}

/* N(M circle(theta)) into *out, each row of M x summed as fsum_row sums
   it; -1 with an exception set. */
static int planar_gain(const Planar *s, double theta, double *out)
{
    double xy[2], partials[2];
    if (planar_point(s, theta, xy) < 0)
        return -1;
    for (int i = 0; i < s->cod->dim; i++) {
        FSum sum = {partials, 0, 0.0, 0.0};
        if (fsum_add(&sum, s->m[2 * i] * xy[0]) < 0
            || fsum_add(&sum, s->m[2 * i + 1] * xy[1]) < 0 || fsum_result(&sum, s->y + i) < 0)
            return -1;
    }
    *out = value_of(s->cod, s->y, s->vals);
    return 0;
}

/* The negated gain, which golden minimizes: negation is exact, so it
   takes the branches maximizing the gain would. */
static int planar_loss(void *s, double theta, double *out)
{
    if (planar_gain(s, theta, out) < 0)
        return -1;
    *out = -*out;
    return 0;
}

/* The rows of matrix, self->dim of them with 2 entries each, as doubles
   into m; -1 with an exception set. */
static int load_matrix(const Program *self, PyObject *matrix, double *m)
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
        if (len >= 0 && len != 2)
            PyErr_Format(PyExc_ValueError, "expected rows of 2 entries, got %zd", len);
        int rc = len == 2 ? load_doubles(row, 2, m + 2 * i) : -1;
        Py_DECREF(row);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* The sweep of the planar operator norm: the gain at theta_j = j * step,
   step = 2 pi / GRID, its first largest value refined by GOLDEN_STEPS of
   golden over [theta_j - step, theta_j + step], and the larger of the two
   kept (the refinement on a tie), with circle at its angle. */
static PyObject *Program_operator_norm(Program *self, PyObject *const *args, Py_ssize_t nargs)
{
    enum { GRID = 1024, GOLDEN_STEPS = 80 };
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "operator_norm() takes exactly 2 arguments (%zd given)", nargs);
    Planar s = {self, own_circle(args[0]), args[0], NULL, NULL, NULL, NULL};
    Py_ssize_t rows = self->dim, best_j = 0;
    double stack[STACK_CAP];
    double *buf = scratch(stack, 3 * rows + self->n + (s.dom != NULL ? s.dom->n : 0));
    if (buf == NULL)
        return NULL;
    s.m = buf;
    s.y = buf + 2 * rows;
    s.vals = s.y + rows;
    s.dvals = s.vals + self->n;
    PyObject *out = NULL, *norm = NULL, *direction = NULL;
    if (load_matrix(self, args[1], buf) < 0)
        goto done;
    double step = 2.0 * PI / GRID, best = -1.0, gain, theta, lowest, xy[2];
    for (Py_ssize_t j = 0; j < GRID; j++) {
        if (planar_gain(&s, (double)j * step, &gain) < 0)
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
    if (planar_point(&s, theta, xy) < 0)
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
     "Callable phi with phi(t) = N(u + t v); buffers reused per call."},
    {"circle", (PyCFunction)Program_circle, METH_O,
     "(cos theta, sin theta) / N(cos theta, sin theta) of a planar norm."},
    {"image_value", (PyCFunction)(void (*)(void))Program_image_value, METH_FASTCALL,
     "N(M x); each row of M x is summed exactly, as math.fsum sums it."},
    {"residual", (PyCFunction)(void (*)(void))Program_residual, METH_FASTCALL,
     "Residual of relation code at (u, v); zero (<= 0 for birkhoff) where it holds."},
    {"residuals", (PyCFunction)(void (*)(void))Program_residuals, METH_FASTCALL,
     "[residual(code, a, b, u, x) for x in xs], with the base pass at u run once."},
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
