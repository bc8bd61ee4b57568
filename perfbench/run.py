"""End-to-end and per-layer benchmark of normortho, on both backends.

Run from the root of a checkout:

    python3 perfbench/run.py --workload points --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload runs in a fresh single-threaded interpreter per backend, the
compiled one first and then the pure-Python one, never at the same time.
``--seconds`` is split evenly between the two.  The compiled backend is
built once from ``src/normortho/_kernels.c`` with gcc into ``.bench_build/``
and reused while the ``.c`` is unchanged; when it cannot be built the
compiled process runs whatever backend the package picks, and the report
says so.  Every op's output is checked, and the two backends' outputs are
compared op by op.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
ones.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
report: run metadata, every metric with its unit, failures, and the
compiled/pure ratios.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
BACKENDS = ("compiled", "pure")
WORKLOAD_NAMES = ("points", "sampling", "curves", "cli")
SETUP_RUNS = 9  # setup_s is the median over this many compiled launches
RUN_BUDGET_S = 170  # a run, build excluded, ends within this or fails
AGREE_REL = 1e-9

# name -> unit; every end-to-end metric but setup_s carries a backend suffix
END_TO_END = {"ops_per_s": "ops/s", "p50_us": "us", "p99_us": "us",
              "success_ratio": "ratio", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"self_share": "share", "calls_per_op": "calls/op", "ns_per_call": "ns",
                   "hit_ratio": "ratio", "draws_per_op": "draws/op", "ns_per_draw": "ns",
                   "skipped_ratio": "ratio", "useful_ratio": "ratio", "self_us": "us",
                   "overhead_share": "share"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# compiled backend


def build_extension() -> tuple[str | None, str]:
    """(path of the built extension or None, how it was obtained)."""
    c_file = os.path.join(SRC, "normortho", "_kernels.c")
    if not os.path.isfile(c_file):
        return None, "no src/normortho/_kernels.c"
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return None, "no Python headers"
    gcc = shutil.which("gcc")
    if gcc is None:
        return None, "no gcc"
    flags = ["-O2", "-shared", "-fPIC"]
    with open(c_file, "rb") as fh:
        digest = hashlib.sha256(fh.read())
    digest.update(" ".join(flags + [sys.version]).encode())
    out_dir = os.path.join(BUILD, "ext-" + digest.hexdigest()[:16])
    out = os.path.join(out_dir, "_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    if os.path.isfile(out):
        return out, "cached build of _kernels.c"
    os.makedirs(out_dir, exist_ok=True)
    tmp = f"{out}.{os.getpid()}.tmp"
    # gcc's own temporary files stay inside the checkout too
    env = dict(os.environ, TMPDIR=out_dir)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([gcc, *flags, f"-I{include}", c_file, "-o", tmp],
                              capture_output=True, text=True, timeout=600, env=env)
    except subprocess.TimeoutExpired:
        return None, "gcc timed out"
    if proc.returncode != 0:
        if os.path.exists(tmp):
            os.remove(tmp)
        return None, "gcc failed: " + (proc.stderr.strip().splitlines() or [""])[-1][:200]
    os.replace(tmp, out)
    return out, f"built _kernels.c in {time.monotonic() - t0:.1f} s"


# ---------------------------------------------------------------------------
# child processes


def launch(workload: str, backend: str, seed: int, window: float, mode: str,
           ext: str | None, deadline: float) -> tuple[dict, float]:
    """Run one worker, killed at the monotonic time deadline; returns its
    result and the seconds from launch to its first timed op."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # bytecode is cached under .bench_build, as an installed package's would
    # be, so setup_s does not recompile the sources on every launch
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    env.pop("NORMORTHO_PURE_PYTHON", None)
    if backend == "pure":
        env["NORMORTHO_PURE_PYTHON"] = "1"
    # -S: the package is stdlib-only, so site-packages start-up hooks are
    # left out of setup_s
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--window", repr(window), "--mode", mode]
    if backend == "compiled" and ext:
        cmd += ["--ext", ext]
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(deadline - t_launch, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}/{backend} {mode} ran past the run's time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}/{backend} {mode} exited with {proc.returncode}")
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    return res, res["t_ready"] - t_launch


def compare(sigs_a: list, sigs_b: list) -> list[int]:
    """Indices of ops whose outputs differ between the two backends."""
    bad = []
    for i, (a, b) in enumerate(zip(sigs_a, sigs_b)):
        if a is None or b is None:
            continue  # already counted as a failed op
        (va, ta), (vb, tb) = a, b
        tol = max(ta, tb)
        if len(va) != len(vb) or any(
                x != y and not abs(x - y) <= tol + AGREE_REL * max(abs(x), abs(y))
                for x, y in zip(va, vb)):
            bad.append(i)
    return bad


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, ext: str | None,
                 deadline: float) -> dict:
    window = seconds / len(BACKENDS)
    mode = "trace" if trace else "measure"
    # set-up launches go first, so that the first one writes the bytecode
    # cache and no measured process pays for compiling the sources
    setup_runs = [] if trace else [launch(name, "compiled", seed, 0.0, "setup", ext, deadline)
                                   for _ in range(SETUP_RUNS)]
    setup_raw = [t for _, t in setup_runs]
    # in reference seconds, like the op times (see worker.py)
    setup = [t * r["setup_scale"] for r, t in setup_runs]
    res = {b: launch(name, b, seed, window, mode, ext, deadline)[0] for b in BACKENDS}
    notes: list[str] = []
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for b in BACKENDS:
        r = res[b]
        if trace:
            attempted += r["attempted"]
            for key, value in r["metrics"].items():
                unit = PER_LAYER_UNITS[key.rsplit(".", 1)[-1]]
                metrics[f"{key}.{b}"] = {"value": value, "unit": unit}
            if r["reference"]:
                notes.append(f"{b}: {', '.join(r['reference'])} timed on reference cli calls")
        else:
            attempted += r["ops"]
            values = {"ops_per_s": r["ops_per_s"], "p50_us": r["p50_ns"] / 1e3,
                      "p99_us": r["tail_ns"] / 1e3, "success_ratio": 1.0 - r["failed"] / r["ops"],
                      "peak_rss_mb": r["peak_rss_mb"]}
            for key, value in values.items():
                metrics[f"{key}.{b}"] = {"value": value, "unit": END_TO_END[key]}
            notes.append(f"{b}: {r['ops']} ops in {r['calls']} calls, {r['op_ns'] / 1e9:.3f} s "
                         f"timed, {r['ops'] * 1e9 / r['op_ns']:.6g} ops per wall s, median "
                         f"speed scale {r['scale']:.3f}; "
                         f"p99_us is p{r['tail_q']} of {r['observations']} observations; "
                         f"error_ratio {r['failed'] / r['ops']:.3g}")
        failed += r["failed"]
        for i, kind, msg in r["failures"]:
            notes.append(f"FAILED {b} op {i}: {kind}: {msg}")
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        notes.append("setup_s launches: " + ", ".join(f"{t:.4f}" for t in setup)
                     + f"; median in wall seconds {statistics.median(setup_raw):.4f}")
        mismatched = compare(res["compiled"]["sigs"], res["pure"]["sigs"])
        failed += len(mismatched)
        notes.append(f"backends agree on {min(len(res[b]['sigs']) for b in BACKENDS) - len(mismatched)}"
                     f" compared ops; {len(mismatched)} mismatches"
                     + (f" at ops {mismatched[:20]}" if mismatched else ""))
        speed = res["compiled"]["ops_per_s"] / res["pure"]["ops_per_s"]
        notes.append(f"compiled/pure: end-to-end ops_per_s {speed:.2f}x")
    else:
        m = {b: res[b]["metrics"] for b in BACKENDS}
        kernel = "  ".join(
            f"{k} {m['pure'][f'interp.{k}.ns_per_call'] / m['compiled'][f'interp.{k}.ns_per_call']:.2f}x"
            for k in ("value", "derivs", "line"))
        e2e = res["compiled"]["plain_ops_per_s"] / res["pure"]["plain_ops_per_s"]
        notes.append(f"compiled/pure: kernel-level {kernel}  |  end-to-end ops_per_s {e2e:.2f}x")
    backends = {b: res[b]["backend"] for b in BACKENDS}
    if backends["compiled"] != "compiled":
        notes.append(f"compiled metrics come from the {backends['compiled']} fallback")
    return {"workload": name, "metrics": metrics, "attempted": attempted, "failed": failed,
            "backends": backends, "notes": notes}


# ---------------------------------------------------------------------------
# metadata and report


def _git(*args: str) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(seed: int) -> dict:
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_rev": rev or "unavailable (not a git checkout)",
            "dirty": None if status is None else bool(status),
            "python": platform.python_version(), "cpu": _cpu_model(),
            "nproc": os.cpu_count(), "seed": seed}


def _fmt(v: float) -> str:
    return f"{v:.6g}" if v and (abs(v) >= 1e5 or abs(v) < 1e-3) else f"{v:.4f}"


def report(result: dict) -> None:
    print(f"== workload {result['workload']}  backends "
          + ", ".join(f"{b}={r}" for b, r in result["backends"].items()))
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {_fmt(m['value']):>14} {m['unit']}")
    for note in result["notes"]:
        print(f"  # {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--no-build", action="store_true",
                    help="do not build the extension; the compiled process runs "
                         "whatever backend the package picks")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "normortho", "__init__.py")):
        print("perfbench: no src/normortho next to the benchmark; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    meta = metadata(args.seed)
    meta["loadavg_before"] = os.getloadavg()
    if args.no_build:
        ext, how = None, "not built (--no-build)"
    else:
        ext, how = build_extension()
    meta["extension"] = how
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), ext, deadline)
                   for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_after"] = os.getloadavg()
    meta["backend"] = {r["workload"]: r["backends"] for r in results}
    print("meta " + json.dumps(meta))
    for r in results:
        report(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    print(json.dumps({"correct": failed == 0 and not bad,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
