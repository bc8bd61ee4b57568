"""One workload on one backend, in a fresh single-threaded interpreter.

Started by ``run.py``; prints one JSON object on stdout and nothing else.
Modes:

- ``setup``: import, build inputs, warm up, report when the first timed op
  would start and the calibration scale around the set-up (the parent
  turns both into setup_s), exit.
- ``measure``: then run a closed loop for ``--window`` seconds: the next op
  is issued only after the previous one returned.  Only the call is
  timed; its output check runs after the clock stops.
- ``trace``: the same loop with every layer wrapped (spans.py), then the
  same ops again unwrapped to get the tracing overhead, then the sampled
  entries re-timed in a tight loop.

The compiled backend is the extension file given by ``--ext``, loaded as
``normortho._kernels`` without touching ``src/``; the pure backend is
selected by the parent through NORMORTHO_PURE_PYTHON.
"""

from __future__ import annotations

import argparse
import array
import importlib.abc
import importlib.util
import json
import math
import random
import resource
import statistics
import sys
import time

from workloads import WORKLOADS, CheckFailed, cli_call

LAT_CAP = 1 << 17  # latencies kept; beyond this a uniform reservoir
SIG_CAP = 2000  # ops whose outputs are compared across backends
FAIL_CAP = 20

# The machine the benchmark runs on shares its cores, and its speed drifts
# by up to 1.7x within milliseconds.  So op times are kept in reference seconds:
# after every chunk of ops a fixed pure-Python loop is timed, and the
# chunk's op times are scaled by CAL_REF_NS over that loop's time (the mean
# of the timings before and after the chunk).  The loop allocates and hits
# a dict, because the workloads' speed swings with the machine's the way
# such code does, far more than a loop of integer arithmetic.  CAL_REF_NS
# is the loop's typical time on the machine the benchmark was written on
# (Intel Xeon, 2 vCPUs, Python 3.11), so reference and wall seconds are
# close there.
CHUNK_S = 0.002
CAL_ITERS = 300
CAL_REF_NS = 90_000


def calibrate() -> int:
    """Time of a fixed loop, in ns."""
    clock = time.perf_counter_ns
    t0 = clock()
    d: dict = {}
    for k in range(CAL_ITERS):
        d[k & 63] = [float(k), k * 0.25]
        d.get((k * 7) & 63)
    return clock() - t0


class _ExtensionFinder(importlib.abc.MetaPathFinder):
    def __init__(self, path: str):
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname == "normortho._kernels":
            return importlib.util.spec_from_file_location(fullname, self.path)
        return None


class Loop:
    """Closed-loop runner; keeps op latencies, signatures and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.lat = array.array("d", [0.0]) * LAT_CAP  # allocated up front: RSS does not grow with speed
        self.seen = 0
        self.reservoir = random.Random(0)
        self.calls = 0
        self.ops = 0
        self.failed = 0
        self.op_ns = 0  # wall time of the calls
        self.ref_ns = 0.0  # the same in reference ns
        self.scale: list[float] = []  # CAL_REF_NS / calibration time, per chunk
        self.sigs: list = []
        self.failures: list = []

    def run(self, window_s: float | None = None, n_calls: int | None = None, tracer=None) -> None:
        """Ops 0, 1, ... until n_calls, or until window_s has passed and a
        whole number of the workload's periods has run."""
        wl = self.wl
        clock = time.perf_counter_ns
        period = wl.period
        deadline = time.perf_counter() + window_s if window_s is not None else math.inf
        cal = calibrate()
        chunk: list = []
        chunk_end = time.perf_counter() + CHUNK_S
        i = 0
        while True:
            if n_calls is not None:
                if i >= n_calls:
                    break
            elif i % period == 0 and time.perf_counter() >= deadline:
                break
            if time.perf_counter() >= chunk_end:
                cal = self._flush(chunk, cal)
                chunk_end = time.perf_counter() + CHUNK_S
            fn, args, weight, check = wl.op(i)
            if tracer is not None:
                tracer.on = True
            t0 = clock()
            try:
                res = fn(*args)
                err = None
            except Exception as exc:  # an op that raises is a failed op
                err = exc
            dt = clock() - t0
            if tracer is not None:
                tracer.on = False
            sig = None
            if err is None:
                try:
                    sig = check(res)
                except CheckFailed as exc:
                    err = exc
            self._record(i, weight, sig, err)
            chunk.append((dt, weight))
            i += 1
        self._flush(chunk, cal)

    def _flush(self, chunk: list, cal_before: int) -> int:
        """Record a chunk's op times in reference ns; returns the new
        timing of the calibration loop."""
        cal = calibrate()
        scale = 2.0 * CAL_REF_NS / (cal_before + cal)
        self.scale.append(scale)
        for dt, weight in chunk:
            self.op_ns += dt
            self.ref_ns += dt * scale
            k = self.seen if self.seen < LAT_CAP else self.reservoir.randrange(self.seen + 1)
            if k < LAT_CAP:
                self.lat[k] = dt * scale / weight
            self.seen += 1
        chunk.clear()
        return cal

    def _record(self, i, weight, sig, err) -> None:
        self.calls += 1
        self.ops += weight
        if err is not None:
            self.failed += weight
            if len(self.failures) < FAIL_CAP:
                self.failures.append([i, type(err).__name__, str(err)[:300]])
        if i < SIG_CAP:
            self.sigs.append(None if sig is None else [list(sig[0]), sig[1]])

    def summary(self) -> dict:
        """Throughput and latency percentiles, in reference time."""
        vals = sorted(self.lat[:min(self.seen, LAT_CAP)])
        n = len(vals)
        # the highest percentile with at least ten observations beyond it
        q = 99
        while q > 50 and n - math.ceil(q * n / 100) < 10:
            q -= 1
        return {"ops_per_s": self.ops / self.ref_ns * 1e9,
                "p50_ns": statistics.median(vals), "tail_q": q,
                "tail_ns": vals[max(0, math.ceil(q * n / 100) - 1)], "observations": n,
                "scale": statistics.median(self.scale)}


def _measure(wl, window: float) -> dict:
    loop = Loop(wl)
    loop.run(window_s=window)
    # read before summary() sorts the latencies into a list of its own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"calls": loop.calls, "ops": loop.ops, "failed": loop.failed,
            "op_ns": loop.op_ns, **loop.summary(), "peak_rss_mb": peak_rss_mb,
            "sigs": loop.sigs, "failures": loop.failures}


# cli commands that reach every re-timed entry and the cli layer, for
# workloads that never call them; the norm is new to the process
_REFERENCE_NORM = "scale(0.987654321, sum(lp(2.5), linf))"
REFERENCE_ARGV = (
    ["rho", f"--norm={_REFERENCE_NORM}", "--u=0.6,-0.8", "--v=0.3,0.9"],
    ["ortho", f"--norm={_REFERENCE_NORM}", "--relation=birkhoff_oracle", "--u=0.6,-0.8",
     "--v=0.3,0.9"],
    ["audit", f"--norm={_REFERENCE_NORM}", "--samples=8"],
)


def _trace(wl, window: float) -> dict:
    import normortho.cli
    import spans

    tracer = spans.Tracer()
    tracer.install()
    info0 = tracer.cache_info()
    traced = Loop(wl)
    traced.run(window_s=window, tracer=tracer)
    info1 = tracer.cache_info()
    stats = {k: list(v) for k, v in tracer.stats.items()}
    counts = dict(tracer.counts)
    layer_self = tracer.layer_self_ns()

    # entries this workload never reached are timed on reference calls
    reference = sorted(k for k, s in tracer.samples.items() if not s)
    if stats.get("cli.run", [0])[0] == 0:
        reference.append("cli.run")
    if reference:
        kept = {k: list(s) for k, s in tracer.samples.items() if s}
        tracer.reset()
        tracer.on = True
        for _ in range(3):
            for argv in REFERENCE_ARGV:
                cli_call(normortho.cli.run, argv)
        tracer.on = False
        tracer.samples.update(kept)
        ref_cli = tracer.stats.get("cli.run", [0, 0, 0])
        ref_cli_self = tracer.layer_self_ns()["cli"]
    tracer.uninstall()

    plain = Loop(wl)
    plain.run(n_calls=traced.calls)
    plain_rate = plain.summary()["ops_per_s"]
    ns = {k: spans.retime(s) for k, s in tracer.samples.items() if s}

    ops = max(traced.ops, 1)
    wall = max(traced.op_ns, 1)

    def calls(key):
        return stats.get(key, [0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    if calls("cli.run"):
        run_self_us = layer_self["cli"] / calls("cli.run") / 1e3
    else:
        run_self_us = ref_cli_self / max(ref_cli[0], 1) / 1e3
    hits = info1.hits - info0.hits
    misses = info1.misses - info0.misses
    metrics = {f"{layer}.self_share": layer_self[layer] / wall for layer in spans.LAYERS}
    metrics.update({
        "normast.parse_norm.calls_per_op": calls("normast.parse_norm") / ops,
        "normast.parse_norm.ns_per_call": ns["normast.parse_norm"],
        "program.compile_ast.ns_per_call": ns["program.compile_ast"],
        "kernels.get_program.calls_per_op": calls("kernels.get_program") / ops,
        "kernels.get_program.ns_per_call": ns["kernels.get_program"],
        "kernels.get_program.hit_ratio": ratio(hits, hits + misses),
        "space.as_vector.calls_per_op": calls("space.as_vector") / ops,
        "space.as_vector.ns_per_call": ns["space.as_vector"],
        "space.random_vector.calls_per_op": calls("space.random_vector") / ops,
        "rng.draws_per_op": calls("rng.next_u64") / ops,
        "rng.ns_per_draw": ns["rng.uniform"],
        "interp.value.calls_per_op": calls("interp.value") / ops,
        "interp.value.ns_per_call": ns["interp.value"],
        "interp.derivs.calls_per_op": calls("interp.derivs") / ops,
        "interp.derivs.ns_per_call": ns["interp.derivs"],
        "interp.line.calls_per_op": calls("interp.line") / ops,
        "interp.line.ns_per_call": ns["interp.line"],
        "derivs.rho_pair.calls_per_op": calls("derivs.rho_pair") / ops,
        "ortho.relation_residual.calls_per_op": calls("ortho.relation_residual") / ops,
        "geometry.skipped_ratio": ratio(counts.get("geometry.skipped", 0),
                                        counts.get("geometry.samples", 0)),
        "explorer.mine.useful_ratio": ratio(
            counts.get("explorer.mine.used", 0) - counts.get("explorer.mine.discarded", 0),
            counts.get("explorer.mine.used", 0)),
        "explorer.apply_map.calls_per_op": calls("explorer.apply_map") / ops,
        "cli.run.self_us": run_self_us,
        "trace.overhead_share": plain_rate / traced.summary()["ops_per_s"] - 1.0,
    })
    return {"calls": traced.calls, "ops": traced.ops,
            "failed": traced.failed + plain.failed, "attempted": traced.ops + plain.ops,
            "plain_ops_per_s": plain_rate,
            "metrics": metrics, "reference": reference,
            "failures": traced.failures + plain.failures}


def main() -> None:
    cal_start = min(calibrate() for _ in range(3))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--window", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--ext", default="")
    args = ap.parse_args()

    if args.ext:
        sys.meta_path.insert(0, _ExtensionFinder(args.ext))
    import normortho

    wl = WORKLOADS[args.workload](normortho, args.seed)
    wl.warmup()
    t_ready = time.monotonic()
    cal_end = min(calibrate() for _ in range(3))
    out = {"t_ready": t_ready, "backend": normortho.backend_name(),
           "setup_scale": 2.0 * CAL_REF_NS / (cal_start + cal_end)}
    if args.mode == "measure":
        out.update(_measure(wl, args.window))
    elif args.mode == "trace":
        out.update(_trace(wl, args.window))
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
