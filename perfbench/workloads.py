"""The four benchmark workloads: seeded inputs, one op at a time, and the
output checks that feed error_ratio.

Inputs come from ``random.Random(seed)``, never from ``normortho.rng``, so a
change to the library's generator cannot change them.  Each workload
rotates deterministically over its op kinds, norms and input pools, so op i
is the same call in every backend process (that is what makes the per-op
cross-backend comparison possible) and the cost mix is the same from seed
to seed; the seed only moves the numbers inside the inputs.

Every choice that moves an op's cost (kind, norm, relation, variant)
repeats with period ``period`` in i, so a run that stops at a multiple of
it has the same cost mix whatever its length.

``op(i)`` returns ``(fn, args, weight, check)``.  The caller times
``fn(*args)`` alone, then calls ``check(result)`` untimed.  ``weight`` is
the number of ops the call stands for (one, except on ``sampling`` where
the op is one sample).  ``check`` raises CheckFailed when an invariant from
the paper does not hold, and otherwise returns a signature
``(values, abs_tol)`` that the two backends must agree on.  Library
functions are looked up on the package at op time, so a tracer that
rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

# Norm expressions of the test suite's FAMILIES, plus depth-3/4 composites.
FAMILIES = (
    "l1",
    "l2",
    "linf",
    "lp(3)",
    "lp(1.5)",
    "wlp(2; 1, 4)",
    "max(l1, l2)",
    "sum(l1, linf)",
    "scale(0.7, l2)",
)
COMPOSITES = (
    "max(sum(l1, lp(3)), scale(1.5, wlp(2; 1, 4)))",
    "sum(max(l2, scale(0.8, linf)), scale(0.5, max(lp(1.5), wlp(inf; 1, 2))))",
    "scale(1.2, sum(lp(4), sum(l2, wlp(1.5; 2, 1))))",
)
NORMS = FAMILIES + COMPOSITES
CYCLE = len(NORMS)  # cost-moving choices are keyed by j % CYCLE or a divisor
# Smooth and strictly convex: probes spend their whole budget on these.
SMOOTH = ("l2", "lp(3)", "lp(1.5)", "wlp(2; 1, 4)", "scale(0.7, l2)", COMPOSITES[2])
# Norms induced by an inner product: rho_ab is symmetric exactly on these.
INNER_PRODUCT = ("l2", "wlp(2; 1, 4)", "scale(0.7, l2)")

DIM = 2
POOL = 32
REL = 1e-9
TOL = 1e-9  # the library's default decision tolerance


class CheckFailed(Exception):
    """An op's output broke an invariant the paper gives."""


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return a == b or abs(a - b) <= abs_tol + rel * max(abs(a), abs(b))


def _random_pair(rnd: random.Random, corner: bool):
    """Two nonzero coordinate lists; corner pairs sit on the kinks of
    polyhedral norms, the others are uniform in a box of random size."""
    while True:
        if corner:
            scale = 10.0 ** rnd.uniform(-1.0, 1.0)
            u = [scale * rnd.choice((-1.0, 0.0, 1.0)) for _ in range(DIM)]
            v = [rnd.choice((-1.0, 0.0, 1.0)) for _ in range(DIM)]
        else:
            su = 10.0 ** rnd.uniform(-1.0, 1.0)
            sv = 10.0 ** rnd.uniform(-1.0, 1.0)
            u = [su * rnd.uniform(-1.0, 1.0) for _ in range(DIM)]
            v = [sv * rnd.uniform(-1.0, 1.0) for _ in range(DIM)]
        if any(u) and any(v):
            return u, v


def _pairs(rnd: random.Random, corners: bool):
    # every eighth pair is a corner pair, at fixed positions, so the share
    # of kink inputs does not depend on the seed
    return [_random_pair(rnd, corners and p % 8 == 7) for p in range(POOL)]


def _seeds(rnd: random.Random):
    return [rnd.getrandbits(64) for _ in range(POOL)]


class _Base:
    name = ""

    def __init__(self, nm, seed: int):
        self.nm = nm
        self.rnd = random.Random(seed)
        self.ast = {text: nm.parse_norm(text, DIM) for text in NORMS}
        self.ab = nm.AlphaBeta(0.3, 0.5)
        self.lam = nm.Lambda(0.25)
        self.kinds: list = []

    @property
    def period(self) -> int:
        return len(self.kinds) * CYCLE

    def op(self, i: int):
        k = len(self.kinds)
        return self.kinds[i % k](i // k)

    def warmup(self) -> None:
        """Fill the program cache for every norm, then make one untimed pass
        over every op kind, checked like the timed ops."""
        for ast in self.ast.values():
            self.norm(ast, [1.0] * DIM)
        for i in range(len(self.kinds)):
            fn, args, _, check = self.op(i)
            check(fn(*args))

    def norm(self, ast, x) -> float:
        return self.nm.eval_norm(ast, x)


# ---------------------------------------------------------------------------
# points: one-shot public calls, the boundary and get_program cache hits


class Points(_Base):
    name = "points"

    def __init__(self, nm, seed: int):
        super().__init__(nm, seed)
        self.pairs = {t: _pairs(self.rnd, corners=True) for t in NORMS}
        self.smooth_pairs = {t: _pairs(self.rnd, corners=False) for t in SMOOTH}
        self.rel = {
            "birkhoff": nm.Relation("birkhoff"),
            "rho_ab": nm.Relation("rho_ab", ab=self.ab),
            "isosceles": nm.Relation("isosceles"),
            "pythagorean": nm.Relation("pythagorean"),
        }
        self.facts: dict = {}
        self.kinds = [
            self._rho_pair, self._rho_ab, self._rho_lambda,
            self._ortho("birkhoff"), self._ortho("rho_ab"),
            self._ortho("isosceles"), self._ortho("pythagorean"),
            self._orthogonalizer, self._t_interval, self._angle, self._sip,
        ]

    def _pick(self, j: int, smooth: bool = False):
        names = SMOOTH if smooth else NORMS
        text = names[j % len(names)]
        pool = (self.smooth_pairs if smooth else self.pairs)[text]
        u, v = pool[(j // len(names)) % POOL]
        return self.ast[text], u, v

    def _facts(self, ast, u, v):
        """(||u|| ||v||, rho_-, rho_+) for an input pair, computed once per pair
        so that checking an op costs little next to the op."""
        key = (id(ast), id(u), id(v))
        facts = self.facts.get(key)
        if facts is None:
            facts = self.facts[key] = (self.norm(ast, u) * self.norm(ast, v),
                                       *self.nm.rho_pair(ast, u, v))
        return facts

    def _rho_pair(self, j):
        ast, u, v = self._pick(j)

        def check(res):
            rm, rp = res
            s = self._facts(ast, u, v)[0]
            _need(rm <= rp + REL * s, f"rho_- {rm!r} > rho_+ {rp!r}")
            _need(max(abs(rm), abs(rp)) <= s * (1 + REL), "|rho_pm| > ||u|| ||v||")
            return (rm, rp), REL * s
        return self.nm.rho_pair, (ast, u, v), 1, check

    def _rho_ab(self, j):
        ast, u, v = self._pick(j)

        def check(r):
            s, rm, rp = self._facts(ast, u, v)
            _need(_close(r, 0.3 * rm + 0.5 * rp, REL, REL * s), "rho_ab != a rho_- + b rho_+")
            _need(abs(r) <= 0.8 * s * (1 + REL), "|rho_ab| > (a+b) ||u|| ||v||")
            return (r,), REL * s
        return self.nm.rho_ab, (ast, u, v, self.ab), 1, check

    def _rho_lambda(self, j):
        ast, u, v = self._pick(j)

        def check(r):
            s, rm, rp = self._facts(ast, u, v)
            _need(rm - REL * s <= r <= rp + REL * s, "rho_lambda outside [rho_-, rho_+]")
            return (r,), REL * s
        return self.nm.rho_lambda, (ast, u, v, self.lam), 1, check

    def _ortho(self, tag: str):
        rel = self.rel[tag]

        def make(j):
            ast, u, v = self._pick(j)

            def check(verdict):
                s, rm, rp = self._facts(ast, u, v)
                res = verdict.residual
                _need(math.isfinite(res), "residual not finite")
                if tag == "birkhoff":
                    _need(_close(res, max(rm, -rp), REL, REL * s), "residual != max(rho_-, -rho_+)")
                    _need(verdict.holds == (res <= TOL), "verdict disagrees with residual")
                else:
                    _need(verdict.holds == (abs(res) <= TOL), "verdict disagrees with residual")
                if tag == "isosceles":
                    _need(abs(res) <= 2.0 * self.norm(ast, v) * (1 + REL), "| ||u+v|| - ||u-v|| | > 2||v||")
                return (res, float(verdict.holds)), REL * (s + 1.0)
            return self.nm.is_orthogonal, (rel, ast, u, v), 1, check
        return make

    def _orthogonalizer(self, j):
        ast, u, v = self._pick(j)

        def check(res):
            s, w = res
            nu = self.norm(ast, u)
            r = self.nm.rho_ab(ast, u, w, self.ab)
            scale = nu * (self.norm(ast, v) + abs(s) * nu)
            _need(abs(r) <= 1e-8 * scale, f"rho_ab(u, w) = {r!r} is not ~0")
            return (s,), REL * abs(s) + 1e-12
        return self.nm.ab_orthogonalizer, (ast, u, v, self.ab), 1, check

    def _t_interval(self, j):
        ast, u, v = self._pick(j)

        def check(res):
            lo, hi = res
            nu = self.norm(ast, u)
            nv = self.norm(ast, v)
            _need(lo <= hi + REL * (abs(lo) + abs(hi)), "empty Birkhoff interval")
            mid = 0.5 * (lo + hi)
            w = [mid * a + b for a, b in zip(u, v)]
            rm, rp = self.nm.rho_pair(ast, u, w)
            slack = 1e-8 * nu * (abs(mid) * nu + nv)
            _need(rm <= slack and rp >= -slack, "u not Birkhoff-orthogonal to mid*u + v")
            return (lo, hi), REL * (abs(lo) + abs(hi)) + 1e-12
        return self.nm.birkhoff_t_interval, (ast, u, v), 1, check

    def _angle(self, j):
        ast, u, v = self._pick(j)

        def check(res):
            _need(0.0 <= res.theta <= math.pi, "angle outside [0, pi]")
            _need(abs(res.cosine_argument) <= 1.0 + 1e-9, "cosine argument outside [-1, 1]")
            return (res.theta,), 1e-9
        return self.nm.angle_ab, (ast, u, v, self.ab), 1, check

    def _sip(self, j):
        ast, u, v = self._pick(j, smooth=True)

        def check(r):
            s, rm, rp = self._facts(ast, u, v)
            _need(_close(r, rp, REL, REL * s), "[v, u] != rho_+(u, v)")
            _need(abs(r) <= s * (1 + REL), "|[v, u]| > ||u|| ||v||")
            return (r,), REL * s
        return self.nm.sip, (ast, v, u), 1, check


# ---------------------------------------------------------------------------
# sampling: probes, audit and constants at fixed budgets


BUDGET = 160
PRESERVER_BUDGET = 24


def _rotation(phi: float, c: float = 1.0):
    return ((c * math.cos(phi), -c * math.sin(phi)), (c * math.sin(phi), c * math.cos(phi)))


class Sampling(_Base):
    name = "sampling"

    def __init__(self, nm, seed: int):
        super().__init__(nm, seed)
        rnd = self.rnd
        self.seeds = _seeds(rnd)
        ast = self.ast
        self.angular_pairs = [("l2", "lp(3)"), ("lp(1.5)", "l2"),
                              ("wlp(2; 1, 4)", "lp(3)"), ("lp(3)", COMPOSITES[2])]
        self.equiv_pairs = [("l1", "l2"), ("linf", "lp(3)"),
                            ("max(l1, l2)", "sum(l1, linf)"), (COMPOSITES[1], "l2")]
        # (matrix, norm, preserves rho_ab-orthogonality?)
        self.maps = []
        for _ in range(POOL // 4):
            phi = rnd.uniform(0.0, 2.0 * math.pi)
            c = rnd.uniform(0.5, 2.0)
            k = rnd.uniform(0.3, 1.0)
            self.maps.append([
                (_rotation(phi), "l2", True),
                (_rotation(phi, c), "l2", True),
                (((0.0, c), (c, 0.0)), "l1", True),
                (((c, 0.0), (0.0, -c)), "linf", True),
                (((1.0, 0.0), (0.0, 1.0 + k)), "l2", False),
                (((1.0, k), (0.0, 1.0)), "lp(3)", False),
            ])
        self.linear = {}
        for group in self.maps:
            for m, text, _ in group:
                self.linear[(m, text)] = nm.LinearMap(m, ast[text], ast[text])
        self.kinds = [self._audit, self._smoothness, self._convexity,
                      self._symmetry, self._angular, self._equiv, self._preserver]

    def _cfg(self, j: int, count: int = BUDGET):
        return self.nm.SampleConfig(seed=self.seeds[j % POOL], count=count)

    def _audit(self, j):
        text = NORMS[j % len(NORMS)]
        cfg = self._cfg(j)

        def check(rep):
            _need(rep.violations == 0, f"audit of {text} found {rep.violations} violations")
            _need(rep.samples == BUDGET, "audit did not spend its budget")
            return (float(rep.violations),), 0.0
        return self.nm.audit_norm, (self.ast[text], cfg), BUDGET, check

    def _probe(self, fn_name: str, j: int, expect_pass: bool, extra=()):
        text = SMOOTH[j % len(SMOOTH)]
        cfg = self._cfg(j)

        def check(rep):
            want = "pass" if expect_pass else "witness-found"
            _need(rep.verdict == want, f"{fn_name} on {text}: {rep.verdict}, expected {want}")
            _need(rep.samples_used == BUDGET, f"{fn_name} used {rep.samples_used} samples")
            diag = rep.diagnostic if rep.diagnostic is not None else 0.0
            return (float(rep.samples_used), diag), 1e-12
        return getattr(self.nm, fn_name), (self.ast[text],) + extra + (cfg,), BUDGET, check

    def _smoothness(self, j):
        return self._probe("smoothness_probe", j, True)

    def _convexity(self, j):
        return self._probe("strict_convexity_probe", j, True)

    def _symmetry(self, j):
        text = SMOOTH[j % len(SMOOTH)]
        return self._probe("symmetry_search", j, text in INNER_PRODUCT, (self.ab,))

    def _constant(self, fn_name: str, pairs, j: int):
        t1, t2 = pairs[j % len(pairs)]
        cfg = self._cfg(j)

        def check(est):
            _need(not est.unbounded and math.isfinite(est.value) and est.value > 0.0,
                  f"{fn_name}({t1}, {t2}) = {est.value!r}")
            _need(est.samples_used == BUDGET, f"{fn_name} used {est.samples_used} samples")
            return (est.value, float(est.skipped)), 1e-12
        return getattr(self.nm, fn_name), (self.ast[t1], self.ast[t2], self.ab, cfg), BUDGET, check

    def _angular(self, j):
        return self._constant("angular_constant", self.angular_pairs, j)

    def _equiv(self, j):
        return self._constant("norm_equiv_constant", self.equiv_pairs, j)

    def _preserver(self, j):
        m, text, preserves = self.maps[(j // 6) % len(self.maps)][j % 6]
        cfg = self._cfg(j, PRESERVER_BUDGET)

        def check(rep):
            _need(rep.all_pass == preserves,
                  f"preserver on {text} {m}: all_pass={rep.all_pass}, expected {preserves}")
            return (float(rep.all_pass), rep.operator_norm.value), 1e-12
        # the op is one sample: three sampled conditions of count samples each
        return (self.nm.preserver_check, (self.linear[(m, text)], self.ab, cfg),
                3 * PRESERVER_BUDGET, check)


# ---------------------------------------------------------------------------
# curves: locus tracing, mining, the oracle, the numeric ladder, operator norms


LOCUS_RELATIONS = ("birkhoff", "rho_ab", "rho_lambda", "rho", "isosceles", "pythagorean")
MINE_NORMS = ("l1", "linf", "max(l1, l2)", COMPOSITES[1])
MINE_PAIRS = (("birkhoff", "isosceles"), ("birkhoff", "rho_ab"), ("rho", "birkhoff"))
MINE_BUDGET = 6


def _sigma_max(m) -> float:
    (a, b), (c, d) = m
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    return math.sqrt(0.5 * (t + math.sqrt(max(t * t - 4.0 * det * det, 0.0))))


_OPERATOR_NORMS = {
    "l2": _sigma_max,
    "l1": lambda m: max(abs(m[0][0]) + abs(m[1][0]), abs(m[0][1]) + abs(m[1][1])),
    "linf": lambda m: max(abs(m[0][0]) + abs(m[0][1]), abs(m[1][0]) + abs(m[1][1])),
}


class Curves(_Base):
    name = "curves"

    def __init__(self, nm, seed: int):
        super().__init__(nm, seed)
        rnd = self.rnd
        self.pairs = {t: _pairs(rnd, corners=True) for t in NORMS}
        self.seeds = _seeds(rnd)
        self.rel = {tag: nm.Relation(tag) for tag in ("birkhoff", "rho", "isosceles", "pythagorean")}
        self.rel["rho_ab"] = nm.Relation("rho_ab", ab=self.ab)
        self.rel["rho_lambda"] = nm.Relation("rho_lambda", lam=self.lam)
        self.maps = []
        for _ in range(POOL):
            m = tuple(tuple(rnd.uniform(-2.0, 2.0) for _ in range(2)) for _ in range(2))
            self.maps.append({text: nm.LinearMap(m, self.ast[text], self.ast[text])
                              for text in _OPERATOR_NORMS})
        self.cfg = nm.SampleConfig(seed=0, count=1)
        self.kinds = [self._locus, self._mine, self._oracle, self._numeric, self._operator_norm]

    def _pick(self, j: int):
        text = NORMS[j % len(NORMS)]
        u, v = self.pairs[text][(j // len(NORMS)) % POOL]
        return self.ast[text], u, v

    def _locus(self, j):
        ast, u, _ = self._pick(j)
        tag = LOCUS_RELATIONS[j % len(LOCUS_RELATIONS)]

        def check(points):
            nu = self.norm(ast, u)
            _need(len(points) >= 720, "locus lost grid points")
            crossings = [p for p in points if p.is_zero_crossing]
            for p in points:
                _need(abs(self.norm(ast, (p.x, p.y)) - 1.0) <= 1e-12, "locus point off the unit sphere")
            scale = (1.0 + nu) ** 2
            for p in crossings:
                _need(abs(p.residual) <= 1e-6 * scale, f"{tag} crossing residual {p.residual!r}")
            if tag == "birkhoff":
                _need(min(p.residual for p in points) <= 0.05 * nu, "no Birkhoff-orthogonal direction")
            else:
                _need(len(crossings) >= 2, f"{tag} residual changes sign fewer than twice")
            return (float(len(points)), float(len(crossings)),
                    math.fsum(p.theta for p in crossings)), 1e-8 * (1 + len(crossings))
        return self.nm.ortho_locus, (ast, u, self.rel[tag], 720), 1, check

    def _mine(self, j):
        text = MINE_NORMS[j % len(MINE_NORMS)]
        ta, tb = MINE_PAIRS[j % CYCLE // len(MINE_NORMS)]
        ast = self.ast[text]
        rel_a = self.rel[ta]
        rel_b = self.rel[tb]
        cfg = self.nm.SampleConfig(seed=self.seeds[j % POOL], count=MINE_BUDGET)
        tol = 1e-7

        def verify(w, hold, fail):
            if w is None:
                return
            u, v = w
            _need(self.nm.is_orthogonal(hold, ast, u, v, tol).holds, "witness does not re-verify")
            verdict = self.nm.is_orthogonal(fail, ast, u, v, tol)
            res = verdict.residual if fail.tag == "birkhoff" else abs(verdict.residual)
            _need(not verdict.holds and res > 100.0 * tol, "witness fails only within the margin")

        def check(rep):
            _need(0 < rep.budget_used <= MINE_BUDGET + 1, f"budget_used {rep.budget_used}")
            _need(0 <= rep.discarded <= rep.budget_used, "discarded > used")
            verify(rep.witness_ab, rel_a, rel_b)
            verify(rep.witness_ba, rel_b, rel_a)
            return (float(rep.budget_used), float(rep.discarded),
                    float(rep.witness_ab is None), float(rep.witness_ba is None)), 0.0
        return self.nm.mine_incomparability, (ast, rel_a, rel_b, cfg, tol), 1, check

    def _oracle(self, j):
        ast, u, v = self._pick(j)

        def check(verdict):
            nu = self.norm(ast, u)
            nv = self.norm(ast, v)
            rm, rp = self.nm.rho_pair(ast, u, v)
            r = max(rm, -rp)
            if r <= 0.0:
                _need(verdict.holds, "oracle rejects a Birkhoff-orthogonal pair")
            elif r > 1e-2 * nu * nv:
                _need(not verdict.holds, "oracle accepts a clearly non-orthogonal pair")
            return (float(verdict.holds), verdict.residual), 1e-12 * nu
        return self.nm.birkhoff_oracle, (ast, u, v), 1, check

    def _numeric(self, j):
        ast, u, v = self._pick(j)
        side = ("minus", "plus")[j % 2]

        def check(res):
            rm, rp = self.nm.rho_pair(ast, u, v)
            exact = rp if side == "plus" else rm
            s = self.norm(ast, u) * self.norm(ast, v)
            _need(abs(res.value - exact) <= res.enclosure_width + REL * s,
                  f"numeric rho_{side} {res.value!r} +- {res.enclosure_width!r} misses {exact!r}")
            return (res.value,), res.enclosure_width + REL * s
        return self.nm.rho_pm_numeric, (ast, u, v, side, 1e-9), 1, check

    def _operator_norm(self, j):
        text = ("l2", "l1", "linf")[j % 3]
        lin = self.maps[(j // CYCLE) % POOL][text]

        def check(est):
            want = _OPERATOR_NORMS[text](lin.matrix)
            _need(est.grade == "fine", "planar estimate not graded fine")
            _need(_close(est.value, want, 1e-9), f"operator norm {est.value!r}, closed form {want!r}")
            return (est.value,), 0.0
        return self.nm.operator_norm, (lin, self.cfg), 1, check


# ---------------------------------------------------------------------------
# cli: in-process normortho.cli.run over all twelve subcommands


def cli_call(run, argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _vec(x) -> str:
    return ",".join(repr(c) for c in x)


CLI_COMMANDS = ("rho", "ortho", "solve", "interval", "locus", "angle", "probe",
                "identity", "constant", "preserver", "mine", "audit")
CLI_SAMPLES = 30


class Cli(_Base):
    name = "cli"

    def __init__(self, nm, seed: int):
        super().__init__(nm, seed)
        import normortho.cli

        self.cli = normortho.cli
        rnd = self.rnd
        self.pairs = _pairs(rnd, corners=False)
        self.seeds = _seeds(rnd)
        self.matrices = [tuple(tuple(rnd.uniform(-2.0, 2.0) for _ in range(2)) for _ in range(2))
                         for _ in range(POOL)]
        self.fresh = 0
        self.kinds = [getattr(self, "_" + c) for c in CLI_COMMANDS]

    def _unique_norm(self, j: int) -> str:
        # a scale factor never used before makes the expression new to the
        # process, so parse_norm, compile_ast and a get_program miss all run
        self.fresh += 1
        return f"scale({1.0 + self.fresh * 1e-7!r}, {NORMS[j % len(NORMS)]})"

    def _op(self, j, argv, expect):
        text = self._unique_norm(j)
        argv = [argv[0], f"--norm={text}"] + argv[1:]

        def check(res):
            code, out, err = res
            _need(code == 0, f"exit {code}: {err.strip()}")
            lines = out.splitlines()
            payload = (json.loads(lines[0]) if len(lines) == 1
                       else [json.loads(line) for line in lines])
            got, want = expect(self.nm.parse_norm(text, DIM), payload)
            for g, w in zip(got, want):
                _need(_close(float(g), float(w), 1e-12), f"{argv[0]}: cli {g!r} != library {w!r}")
            return tuple(float(w) for w in want), 1e-9
        return cli_call, (self.cli.run, argv), 1, check

    def _uv(self, j):
        return self.pairs[j % POOL]

    def _rho(self, j):
        u, v = self._uv(j)

        def expect(ast, p):
            rm, rp = self.nm.rho_pair(ast, u, v)
            want = (rm, rp, self.nm.rho_ab(ast, u, v, self.ab),
                    self.nm.rho_lambda(ast, u, v, self.lam))
            return (p["rho_minus"], p["rho_plus"], p["rho_ab"], p["rho_lambda"]), want
        return self._op(j, ["rho", f"--u={_vec(u)}", f"--v={_vec(v)}", "--alpha=0.3",
                            "--beta=0.5", "--lambda=0.25"], expect)

    def _ortho(self, j):
        u, v = self._uv(j)
        tag = ("birkhoff", "isosceles", "rho_ab", "birkhoff_oracle")[j % 4]

        def expect(ast, p):
            if tag == "birkhoff_oracle":
                verdict = self.nm.birkhoff_oracle(ast, u, v, tol=TOL)
            else:
                rel = self.nm.Relation(tag, ab=self.ab if tag == "rho_ab" else None)
                verdict = self.nm.is_orthogonal(rel, ast, u, v, TOL)
            return (p["holds"], p["residual"]), (verdict.holds, verdict.residual)
        return self._op(j, ["ortho", f"--relation={tag}", f"--u={_vec(u)}", f"--v={_vec(v)}",
                            "--alpha=0.3", "--beta=0.5"], expect)

    def _solve(self, j):
        u, v = self._uv(j)

        def expect(ast, p):
            s, w = self.nm.ab_orthogonalizer(ast, u, v, self.ab)
            r = self.nm.rho_ab(ast, u, w, self.ab)
            _need(abs(r) <= 1e-8 * self.norm(ast, u) * (self.norm(ast, w) + self.norm(ast, v)),
                  "rho_ab(u, w) is not ~0")
            return (p["s"], p["rho_ab_residual"]) + tuple(p["w"]), (s, r) + tuple(w)
        return self._op(j, ["solve", f"--u={_vec(u)}", f"--v={_vec(v)}", "--alpha=0.3",
                            "--beta=0.5"], expect)

    def _interval(self, j):
        u, v = self._uv(j)

        def expect(ast, p):
            lo, hi = self.nm.birkhoff_t_interval(ast, u, v)
            return (p["t_lo"], p["t_hi"]), (lo, hi)
        return self._op(j, ["interval", f"--u={_vec(u)}", f"--v={_vec(v)}"], expect)

    def _locus(self, j):
        u, _ = self._uv(j)
        tag = ("rho_ab", "isosceles", "birkhoff")[j % 3]

        def expect(ast, rows):
            rel = self.nm.Relation(tag, ab=self.ab if tag == "rho_ab" else None)
            points = self.nm.ortho_locus(ast, u, rel, resolution=48)
            got = [len(rows)] + [r["theta"] for r in rows if r["is_zero_crossing"]]
            want = [len(points)] + [p.theta for p in points if p.is_zero_crossing]
            _need(len(got) == len(want), "crossing count differs from the library")
            return got, want
        return self._op(j, ["locus", f"--relation={tag}", f"--u={_vec(u)}", "--resolution=48",
                            "--alpha=0.3", "--beta=0.5"], expect)

    def _angle(self, j):
        u, v = self._uv(j)

        def expect(ast, p):
            return (p["theta"],), (self.nm.angle_ab(ast, u, v, self.ab).theta,)
        return self._op(j, ["angle", f"--u={_vec(u)}", f"--v={_vec(v)}", "--alpha=0.3",
                            "--beta=0.5"], expect)

    def _probe(self, j):
        kind = ("smoothness", "convexity", "symmetry")[j % 3]
        seed = self.seeds[j % POOL]
        fn = {"smoothness": "smoothness_probe", "convexity": "strict_convexity_probe",
              "symmetry": "symmetry_search"}[kind]

        def expect(ast, p):
            cfg = self.nm.SampleConfig(seed=seed, count=CLI_SAMPLES)
            args = (ast, self.ab, cfg) if kind == "symmetry" else (ast, cfg)
            rep = getattr(self.nm, fn)(*args)
            _need(p["verdict"] == rep.verdict, "probe verdict differs from the library")
            diag = (p["diagnostic"] or 0.0, rep.diagnostic or 0.0)
            return (p["samples_used"], diag[0]), (rep.samples_used, diag[1])
        return self._op(j, ["probe", f"--kind={kind}", f"--seed={seed}",
                            f"--samples={CLI_SAMPLES}", "--alpha=0.3", "--beta=0.5"], expect)

    def _identity(self, j):
        u, v = self._uv(j)
        kind = ("quartic", "symmetry")[j % 2]
        fn = "quartic_identity_residual" if kind == "quartic" else "symmetry_residual"

        def expect(ast, p):
            return (p["residual"],), (getattr(self.nm, fn)(ast, u, v, self.ab),)
        return self._op(j, ["identity", f"--kind={kind}", f"--u={_vec(u)}", f"--v={_vec(v)}",
                            "--alpha=0.3", "--beta=0.5"], expect)

    def _constant(self, j):
        kind = ("angular", "equivalence")[j % 2]
        seed = self.seeds[j % POOL]
        text2 = self._unique_norm(j + 1)
        fn = "angular_constant" if kind == "angular" else "norm_equiv_constant"

        def expect(ast, p):
            cfg = self.nm.SampleConfig(seed=seed, count=CLI_SAMPLES)
            est = getattr(self.nm, fn)(ast, self.nm.parse_norm(text2, DIM), self.ab, cfg)
            got = (p["value"], p["samples_used"], p["skipped"], p["unbounded"])
            return got, (est.value, est.samples_used, est.skipped, est.unbounded)
        return self._op(j, ["constant", f"--kind={kind}", f"--norm2={text2}", f"--seed={seed}",
                            f"--samples={CLI_SAMPLES}", "--alpha=0.3", "--beta=0.5"], expect)

    def _preserver(self, j):
        m = self.matrices[j % POOL]
        seed = self.seeds[j % POOL]
        matrix = ";".join(_vec(row) for row in m)

        def expect(ast, p):
            lin = self.nm.LinearMap(m, ast, ast)
            cfg = self.nm.SampleConfig(seed=seed, count=8)
            rep = self.nm.preserver_check(lin, self.ab, cfg)
            got = (p["all_pass"], p["operator_norm"]["value"])
            return got, (rep.all_pass, rep.operator_norm.value)
        return self._op(j, ["preserver", f"--matrix={matrix}", f"--seed={seed}", "--samples=8",
                            "--alpha=0.3", "--beta=0.5"], expect)

    def _mine(self, j):
        seed = self.seeds[j % POOL]

        def expect(ast, p):
            cfg = self.nm.SampleConfig(seed=seed, count=4)
            rep = self.nm.mine_incomparability(ast, self.nm.Relation("birkhoff"),
                                               self.nm.Relation("isosceles"), cfg, tol=TOL)
            got = (p["budget_used"], p["discarded"], p["witness_ab"] is None,
                   p["witness_ba"] is None)
            return got, (rep.budget_used, rep.discarded, rep.witness_ab is None,
                         rep.witness_ba is None)
        return self._op(j, ["mine", "--relation=birkhoff", "--relation2=isosceles",
                            f"--seed={seed}", "--samples=4"], expect)

    def _audit(self, j):
        seed = self.seeds[j % POOL]

        def expect(ast, p):
            _need(p["violations"] == 0, f"audit found {p['violations']} violations")
            rep = self.nm.audit_norm(ast, self.nm.SampleConfig(seed=seed, count=CLI_SAMPLES))
            return (p["violations"], p["samples"]), (rep.violations, rep.samples)
        return self._op(j, ["audit", f"--seed={seed}", f"--samples={CLI_SAMPLES}"], expect)


WORKLOADS = {cls.name: cls for cls in (Points, Sampling, Curves, Cli)}
