"""Per-layer tracing from outside the library.

``Tracer.install`` rebinds every public function of each layer module in
every ``normortho`` module that imported it (``normortho.derivs.as_vector``,
``normortho.ortho.get_program``, ...), patches the ``SplitMix64`` draw
methods, and makes ``get_program`` hand out a timing proxy for the
interpreter's ``Program`` and for its line closures.  Nothing under
``src/`` changes; ``uninstall`` puts the original objects back.

A span is aggregated when it closes: calls, total time, and self time
(its duration minus the time of its direct child spans).  Spans are not
kept one by one, so memory stays flat however long the run.  A few
arguments of the entries in ``RETIMED`` are kept, so that ``retime`` can
time those entries again in a tight loop without the proxy overhead.

Layers are named by module; ``interp`` is the tape interpreter in use
(``_kernels`` or ``_kernels_py``).
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

LAYERS = ("normast", "program", "kernels", "space", "rng", "interp",
          "derivs", "ortho", "geometry", "explorer", "cli")
# private helpers wrapped on top of each module's public functions
EXTRA = {"space": ("_check_dim",)}
RNG_METHODS = ("next_u64", "random", "uniform", "substream")
# entries whose ns_per_call comes from re-timing on sampled arguments
RETIMED = ("normast.parse_norm", "program.compile_ast", "kernels.get_program",
           "space.as_vector", "interp.value", "interp.derivs", "interp.line",
           "rng.uniform")
SAMPLE_CAP = 256
SAMPLE_STRIDE = 7


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: dict[str, list[int]] = {}  # key -> [calls, total_ns, self_ns]
        self.stack = [0]  # child-time accumulators; [0] is the op itself
        self.samples: dict[str, list] = {k: [] for k in RETIMED}
        self.counts: dict[str, float] = {}  # counters read off results
        self._undo: list = []
        self._proxies: dict[type, type] = {}

    # -- spans ---------------------------------------------------------------

    def wrap(self, key: str, fn, post=None, hook=None):
        """fn timed as span key; post maps the result, hook reads it."""
        stats = self.stats.setdefault(key, [0, 0, 0])
        samples = self.samples.get(key)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if samples is not None and stats[0] % SAMPLE_STRIDE == 0 and len(samples) < SAMPLE_CAP:
                samples.append((fn, args))
            stack.append(0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
            if hook is not None:
                hook(self, out)
            return post(out) if post is not None else out

        return traced

    def reset(self) -> None:
        for s in self.stats.values():
            s[0] = s[1] = s[2] = 0
        self.counts.clear()
        self.stack[:] = [0]

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + n

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import normortho.kernels
        import normortho.rng

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "normortho" or name.startswith("normortho."))]
        self._get_program = normortho.kernels.get_program
        for layer in LAYERS:
            mod = sys.modules.get(f"normortho.{layer}")
            if mod is None or layer == "rng":
                continue
            for name, fn in list(vars(mod).items()):
                # functions and the lru_cache-wrapped get_program, not classes
                if inspect.isclass(fn) or not callable(fn) \
                        or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                if (name.startswith("_") and name not in EXTRA.get(layer, ())) \
                        or inspect.isgeneratorfunction(fn):
                    continue
                post = self._proxy if fn is self._get_program else None
                traced = self.wrap(f"{layer}.{name}", fn, post=post, hook=HOOKS.get(f"{layer}.{name}"))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._undo.append((m, attr, fn))
                            setattr(m, attr, traced)
        cls = normortho.rng.SplitMix64
        for name in RNG_METHODS:
            fn = cls.__dict__.get(name)
            if fn is not None:
                self._undo.append((cls, name, fn))
                setattr(cls, name, self.wrap(f"rng.{name}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def cache_info(self):
        return self._get_program.cache_info()

    def _proxy(self, prog):
        cls = self._proxies.get(type(prog))
        if cls is None:
            cls = self._proxies[type(prog)] = self._proxy_class(type(prog))
        return cls(prog)

    def _proxy_class(self, program_type):
        value = self.wrap("interp.value", program_type.value)
        derivs = self.wrap("interp.derivs", program_type.derivs)
        tracer = self

        def make_line(phi):
            return tracer.wrap("interp.line", phi)
        line_evaluator = self.wrap("interp.line_evaluator", program_type.line_evaluator,
                                   post=make_line)

        class ProgramProxy:
            __slots__ = ("_prog",)

            def __init__(self, prog):
                self._prog = prog

            def value(self, u):
                return value(self._prog, u)

            def derivs(self, u, v):
                return derivs(self._prog, u, v)

            def line_evaluator(self, u, v):
                return line_evaluator(self._prog, u, v)

            def __getattr__(self, name):
                return getattr(self._prog, name)

        return ProgramProxy

    # -- read-out --------------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for key, (_, _, self_ns) in self.stats.items():
            out[key.split(".", 1)[0]] += self_ns
        return out


def _extreme_hook(tracer: Tracer, est) -> None:
    tracer.count("geometry.skipped", est.skipped)
    tracer.count("geometry.samples", est.samples_used)


def _mine_hook(tracer: Tracer, rep) -> None:
    tracer.count("explorer.mine.used", rep.budget_used)
    tracer.count("explorer.mine.discarded", rep.discarded)


HOOKS = {
    "geometry.angular_constant": _extreme_hook,
    "geometry.norm_equiv_constant": _extreme_hook,
    "explorer.mine_incomparability": _mine_hook,
}


def retime(samples, round_ns: int = 20_000_000, rounds: int = 5) -> float:
    """Median ns per call of fn(*args) over the sampled (fn, args), less
    the cost of the bare loop around the calls."""
    clock = time.perf_counter_ns
    t0 = clock()
    for fn, args in samples:
        fn(*args)
    once = max(clock() - t0, 1)
    reps = max(1, round_ns // once)
    per_call = []
    for _ in range(rounds):
        t0 = clock()
        for _ in range(reps):
            for fn, args in samples:
                fn(*args)
        t1 = clock()
        for _ in range(reps):
            for fn, args in samples:
                pass
        t2 = clock()
        per_call.append(((t1 - t0) - (t2 - t1)) / (reps * len(samples)))
    return statistics.median(per_call)
