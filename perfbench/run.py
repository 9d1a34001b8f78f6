"""iontrap benchmark: geometry in, figures of merit out.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one operation at a time (closed loop, one client), BLAS threads
pinned to the CPUs this process may use. An operation (op) is one report
(geometry.build_default -> bem.solve_unit_excitations -> merit.full_report)
or one pseudopotential map through cli.main. A pass runs every op of the
workload once. Passes repeat while the next one is expected to end within
--seconds; there is always at least one. Every op is checked against
reference.json and against the workload's cache guard; an op that raises or
misses either counts as failed.

Workloads (inputs are fixed; the seed only shuffles the order of the ops in
a pass):
  cold-surface  surface trap, empty solver cache on every pass: the only
                workload that runs assembly, LU, residual check and the
                cache write.
  warm-designs  surface, gnd-surface and cross-rf (h = 200 um) from a filled
                cache: cache loads plus three full reports. Covers the x/y
                and diagonal fit axes, the boundary-limited depth path and
                the saddle polish.
  map-surface   `iontrap map` of the surface trap from a filled cache, 5454
                points in one bulk field evaluation; no merit code.

The warm workloads share a solver cache in .perfbench_work/cache/<hash>,
where <hash> is the SHA-256 of the iontrap sources, so every version of the
code solves and checks its own entries. A child process fills it the first
time a version needs it; that fill is kept in the record as fill_s and is
not part of setup_s.

--trace 0 prints the end-to-end metrics (run_s, peak_rss_mb, setup_s).
--trace 1 makes traced passes plus one untraced pass and prints the
per-layer metrics; on cold-surface it also repeats the solve in a child
process with one BLAS thread. The last stdout line is the result JSON; the
full record (environment, samples, spans) goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from child import DESIGNS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# ops of one pass: a design name is one report, "map" is one `iontrap map`
WORKLOADS = {
    "cold-surface": ("surface",),
    "warm-designs": tuple(DESIGNS),
    "map-surface": ("map",),
}
MAP_ARGS = ("map", "--design", "surface", "--center-um", "0,90,0",
            "--span-um", "300,160,0", "--res-um", "3")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(n: int, env=os.environ):
    # must reach a process before it first imports numpy
    for var in BLAS_THREAD_VARS:
        env[var] = str(n)


# -- environment record ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository or its refs are packed (the source
    hash below identifies the code either way)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return None


def _source_sha256() -> str:
    """Hash of the package sources, which identifies the code where git can't."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "iontrap")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# -- correctness -------------------------------------------------------------


def check_report(rep, ref: dict, rel: float):
    """Raise AssertionError naming every figure of merit off its reference."""
    bad = []
    for key in ("d_um", "k", "k_x", "k_y", "D_meV"):
        value = getattr(rep, key)
        if not abs(value - ref[key]) <= rel * abs(ref[key]):  # NaN fails
            bad.append(f"{key} {value!r} vs {ref[key]!r}")
    for key in ("n_panels", "depth_boundary_limited"):
        if getattr(rep, key) != ref[key]:
            bad.append(f"{key} {getattr(rep, key)!r} vs {ref[key]!r}")
    if bad:
        raise AssertionError(f"{rep.design}: " + "; ".join(bad))


def read_map_csv(path) -> dict:
    """(x_um, y_um, z_um) -> psi_meV of an `iontrap map` CSV."""
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(("#", "x_um")):
                continue
            x, y, z, v = (float(c) for c in line.split(","))
            out[(x, y, z)] = v
    return out


def check_map(values: dict, ref: dict, rel: float):
    if len(values) != ref["rows"]:
        raise AssertionError(f"map has {len(values)} points, expected {ref['rows']}")
    bad = []
    for x, y, z, psi in ref["points"]:
        got = values.get((x, y, z))
        if got is None or not abs(got - psi) <= rel * abs(psi) + ref["psi_abs_meV"]:
            bad.append(f"psi({x}, {y}, {z}) {got!r} vs {psi!r}")
    if bad:
        raise AssertionError("map: " + "; ".join(bad))


# -- workload ops ------------------------------------------------------------


def matrix_calls(tracer, since: int) -> int:
    return sum(sp.name == "bem.potential_matrix" for sp in tracer.spans[since:])


class Workload:
    """The ops of one workload, their guards and their correctness checks."""

    def __init__(self, name: str, reference: dict, seed: int, cache: str):
        from iontrap import bem, cli, geometry, merit

        self.name = name
        self.bem, self.cli, self.geometry, self.merit = bem, cli, geometry, merit
        self.rel = reference["rel_tol"]
        self.cold = name == "cold-surface"
        self.ops = WORKLOADS[name]
        self.designs = [d for d in self.ops if d != "map"] or ["surface"]
        self.refs = reference["reports"]
        for design in self.designs:
            if self.refs[design]["h_um"] != DESIGNS[design]:
                raise BenchError(f"reference for {design} is at h_um="
                                 f"{self.refs[design]['h_um']}, not {DESIGNS[design]}")
        self.map_ref = reference["map-surface"]
        self.rng = random.Random(seed)
        self.scratch = os.path.join(WORK, f"{name}-{os.getpid()}")
        self.cache = cache

    def build(self, design):
        return self.geometry.build_default(design, h_um=DESIGNS[design])

    def fill_cache(self) -> float:
        """Solve each design missing from the shared cache in a child process
        and return the seconds spent. Cold workloads use no shared cache."""
        if self.cold:
            return 0.0
        spent = 0.0
        for design in self.designs:
            name = f"{self.build(design).signature()}.itsc"
            if os.path.exists(os.path.join(self.cache, name)):
                continue
            t0 = time.perf_counter()
            fill = os.path.join(WORK, f"fill-{os.getpid()}")
            shutil.rmtree(fill, ignore_errors=True)
            try:
                run_child(["solve", "--design", design, "--cache-dir", fill],
                          nproc())
                os.makedirs(self.cache, exist_ok=True)
                os.replace(os.path.join(fill, name), os.path.join(self.cache, name))
            finally:
                shutil.rmtree(fill, ignore_errors=True)
            spent += time.perf_counter() - t0
        return spent

    def setup_s(self) -> list[float]:
        """Wall seconds of fresh processes that import iontrap, build the
        workload's geometries and, warm, load each from the cache."""
        argv = ["setup", "--designs", ",".join(self.designs)]
        if not self.cold:
            argv += ["--cache-dir", self.cache]
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            run_child(argv, nproc())
            times.append(time.perf_counter() - t0)
        return times

    def run_pass(self, tracer, tally) -> dict[str, float]:
        """Every op of the workload once, in seed-shuffled order; returns the
        seconds of each op. A failed op is counted and the pass goes on."""
        order = list(self.ops)
        self.rng.shuffle(order)
        times = {}
        for op in order:
            tracer.op = tally.attempted
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                times[op] = self.run_op(op, tracer)
            except Exception:  # an op failure is counted, the run goes on
                times[op] = time.perf_counter() - t0
                tally.failed += 1
                traceback.print_exc()
            finally:
                shutil.rmtree(self.scratch, ignore_errors=True)
        return times

    def run_op(self, op: str, tracer) -> float:
        """One op; returns its wall seconds. Raises when the op fails its
        cache guard or its reference check."""
        since = len(tracer.spans)
        os.makedirs(self.scratch)
        if op == "map":
            out = os.path.join(self.scratch, "map.csv")
            t0 = time.perf_counter()
            rc = self.cli.main(["--cache-dir", self.cache, *MAP_ARGS, "--out", out])
            elapsed = time.perf_counter() - t0
            if rc != 0:
                raise AssertionError(f"iontrap map exited with {rc}")
        else:
            cache_dir = os.path.join(self.scratch, "cache") if self.cold else self.cache
            t0 = time.perf_counter()
            solved = self.bem.solve_unit_excitations(self.build(op),
                                                     cache_dir=cache_dir)
            rep = self.merit.full_report(solved)
            elapsed = time.perf_counter() - t0

        calls = matrix_calls(tracer, since)
        if self.cold:
            written = os.listdir(cache_dir) if os.path.isdir(cache_dir) else []
            if calls != 1 or len(written) != 1:
                raise AssertionError(
                    f"cold guard: potential_matrix ran {calls} times, "
                    f"cache holds {written}")
        elif calls:
            raise AssertionError(f"warm guard: potential_matrix ran {calls} times")
        if op == "map":
            check_map(read_map_csv(out), self.map_ref, self.rel)
        else:
            check_report(rep, self.refs[op], self.rel)
        return elapsed


def run_child(argv, threads) -> str:
    """Run child.py with `threads` BLAS threads; returns its stdout."""
    env = dict(os.environ)
    pin_blas_threads(threads, env)
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"),
                           *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child.py {argv[0]} failed:\n{proc.stderr}")
    return proc.stdout


# -- measurement loop --------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_passes(work: Workload, tracer, seconds: float,
               tally: Tally) -> list[dict[str, float]]:
    """Closed loop: passes while the next is expected to end within
    `seconds`, at least one. Each pass is {op: seconds}."""
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(work.run_pass(tracer, tally))
        t = time.perf_counter() - t0
        if time.perf_counter() - t_start + t > seconds:
            return passes


def pass_s(passes) -> list[float]:
    return [sum(p.values()) for p in passes]


def measure(ns) -> dict:
    threads = nproc()
    pin_blas_threads(threads)
    if not os.path.isfile(os.path.join(SRC, "iontrap", "__init__.py")):
        raise BenchError(f"no iontrap package under {SRC}; run from the "
                         "repository root")
    sys.path.insert(0, SRC)
    import iontrap
    if not os.path.abspath(iontrap.__file__).startswith(SRC + os.sep):
        raise BenchError(f"iontrap imported from {iontrap.__file__}, not {SRC}")

    import layers
    from tracer import Tracer, maxrss_mb

    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)
    env = environment(ns.seed, threads)
    work = Workload(ns.workload, reference, ns.seed,
                    os.path.join(WORK, "cache", env["source_sha256"]))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)

    fill_s = work.fill_cache()
    setups = work.setup_s()
    guard = Tracer()
    layers.install(guard, full=False)

    tally = Tally()
    record = {"workload": ns.workload, "trace": ns.trace, "env": env,
              "fill_s": fill_s, "setup_samples": setups}
    if not ns.trace:
        passes = run_passes(work, guard, ns.seconds, tally)
        guard.uninstall()
        metrics = {
            "run_s": (statistics.median(pass_s(passes)), "s"),
            "peak_rss_mb": (maxrss_mb(), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        record["passes"] = passes
    else:
        guard.uninstall()
        tracer = Tracer()
        layers.install(tracer, full=True)
        passes = run_passes(work, tracer, ns.seconds, tally)
        tracer.uninstall()
        layers.install(guard, full=False)
        untraced = run_passes(work, guard, 0.0, tally)
        guard.uninstall()
        metrics = layers.per_layer(tracer, len(passes))
        for design in DESIGNS:
            metrics[f"report_s.{design}"] = (
                statistics.median(p.get(design, 0.0) for p in passes), "s")
        one = {"s": 0.0, "self_s": 0.0}
        if work.cold:
            scratch = os.path.join(WORK, f"onethread-{os.getpid()}")
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                out = run_child(["solve", "--cache-dir", scratch], 1)
                one = json.loads(out.strip().splitlines()[-1])
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
        solve = "bem.solve_unit_excitations"
        metrics[f"{solve}.s_1thread"] = (one["s"], "s")
        metrics[f"{solve}.self_s_1thread"] = (one["self_s"], "s")
        traced_s = statistics.median(pass_s(passes))
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - pass_s(untraced)[0], "s")
        metrics["trace.top_cover"] = (
            layers.top_level_s(tracer) / sum(pass_s(passes)), "ratio")
        metrics["trace.spans"] = (len(tracer.spans) / len(passes), "count")
        record.update(passes=passes, untraced_passes=untraced)
        spans_path = os.path.join(
            WORK, "results", f"{ns.workload}-seed{ns.seed}-spans.json")
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "maxrss_mb", "counts"],
                       "spans": tracer.dump()}, f)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    names = [m["name"] for m in declared["per_layer" if ns.trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(metrics))}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    with open(os.path.join(WORK, "results",
                           f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="iontrap benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        record = measure(ns)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for i, p in enumerate(record["passes"]):
        ops = " ".join(f"{op}={t:.3f}" for op, t in p.items())
        print(f"# {ns.workload} trace={ns.trace} seed={ns.seed} pass {i}: "
              f"{sum(p.values()):.3f} s ({ops})")
    result = record["result"]
    print(f"# ops={result['attempted']} ops_failed={result['failed']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
