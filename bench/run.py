"""Benchmark of the rydberg-receiver command line, run as cold processes.

    python3 bench/run.py --workload landscape --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from its ``src/``.
Each iteration spawns a fresh interpreter (``child.py``) that imports
``rydberg_receiver.cli`` and calls ``cli.main`` for each of the workload's
commands in order: a closed loop with one client. After one warm-up
iteration, which is checked but not timed, iterations repeat until
``--seconds`` have passed (at least three, four when traced), and the
end-to-end metrics are medians over them. Their times are scaled to a
reference machine speed, which a sampler thread measures on each CPU all
through the run (``SpeedSampler``); the times as the clocks read them are
printed and stored beside them. With ``--trace 0`` each iteration is
followed by an import-only process, so ``setup_s`` gets two samples per
iteration. With ``--trace 1``, traced and untraced iterations alternate and
the per-layer metrics come from the traced ones. ``--workload all`` runs
every workload in both modes and prints everything. The last line of
standard output is one JSON object with the metrics named in
``BENCHMARK.json``. See ``bench/README.md``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "rydberg_receiver"
WORK = Path(".bench_work")
RESULTS = WORK / "results"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: One BLAS thread per process: the pooled map runs 2 workers on 2 cores,
#: so processes x threads never exceeds the cores measured on.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before this process loads numpy for the sampler
MIN_ITERATIONS = {0: 3, 1: 4}
CHILD_TIMEOUT_S = 150
SAMPLE_INTERVAL_S = 0.05
SAMPLE_LOOPS = 8
#: CPU time of one sampler pass at the reference speed. It sets the scale of
#: the scaled times, not their ratios; on the 2-CPU Xeon (KVM guest, cores
#: shared with other tenants) the baseline was measured on, passes took
#: 2-8 ms, about 3 ms in the median.
REFERENCE_PASS_S = 2.5e-3


def monotonic():
    # child.py reads the same system-wide clock after its import
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedSampler(threading.Thread):
    """Samples how fast each CPU runs a fixed kernel while the workload runs.

    Every ``SAMPLE_INTERVAL_S`` the sampler moves to the next CPU and times
    one short pass of small dense algebra and interpreter work by its own
    CPU time, so time it spends preempted does not count. A CPU whose
    hardware is shared with a busy neighbour runs the pass slower, and the
    workload on it too.
    """

    def __init__(self, cpus):
        super().__init__(daemon=True)
        self.cpus = sorted(cpus)
        self.samples = {cpu: [] for cpu in self.cpus}
        self.halt = threading.Event()
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36)) + 8 * np.eye(36)
        self.s, self.v = rng.standard_normal((6, 6)), rng.standard_normal(36)

    def pass_time(self):
        np, a = self.np, self.a
        start = time.thread_time()
        for _ in range(SAMPLE_LOOPS):
            x = np.linalg.solve(a + np.kron(self.s, self.s), self.v)
            np.linalg.svd(a @ a, compute_uv=False)
            ",".join(f"{t:.9g}" for t in x.real)
            sum(i * i for i in range(300))
        return time.thread_time() - start

    def run(self):
        k = 0
        while not self.halt.wait(SAMPLE_INTERVAL_S):
            cpu = self.cpus[k % len(self.cpus)]
            k += 1
            os.sched_setaffinity(0, {cpu})
            self.samples[cpu].append((monotonic(), self.pass_time()))

    def stop(self):
        self.halt.set()
        self.join()


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def spawn(argv, log_path, extra_flags=()):
    """Run ``python [flags] argv`` in its own process group; return timings and usage."""
    start = monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, *extra_flags, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    end = monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage


def tree_digest(path):
    """(sha256 over relative names and contents, total bytes) of a directory."""
    digest, size = hashlib.sha256(), 0
    for file in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        data = file.read_bytes()
        digest.update(str(file.relative_to(path)).encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


class Run:
    """One benchmark run: a workload, a seed, a trace mode."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        scheme_text = (PACKAGE / "data" / "cesium_six_level.ini").read_text()
        self.plan, self.files = workloads.generate(workload, seed, self.dir / "inputs", scheme_text)
        self.iterations = []
        self.probe_problems = []
        # Serial work runs on one CPU, so the samples of that CPU apply to it.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.serial = self.cpus[:1]
        self.speed = None

    def _plan_for(self, out_root):
        return [
            {**step, "argv": [a.replace(workloads.OUT, str(out_root)) for a in step["argv"]],
             "out": step["out"].replace(workloads.OUT, str(out_root)),
             "cpus": self.cpus if "--workers" in step["argv"] else self.serial}
            for step in self.plan
        ]

    def _spans(self, plan, start, end, result):
        """Split a workload process's life into serial and pooled (start, end) spans."""
        pooled_labels = {step["label"] for step in plan if step["cpus"] != self.serial}
        commands = result["commands"] if result else []
        pooled = [(c["start"], c["end"]) for c in commands if c["label"] in pooled_labels]
        serial, at = [], start
        for a, b in pooled:
            serial.append((at, a))
            at = b
        serial.append((at, end))
        return {"serial": serial, "pooled": pooled}

    def _child(self, it_dir, name, plan, trace_dir=None):
        """Run child.py on ``plan``; return (start, end, exit code, usage, result or None)."""
        plan_path, result_path = it_dir / f"{name}-plan.json", it_dir / f"{name}-result.json"
        plan_path.write_text(json.dumps(plan))
        argv = [str(BENCH_DIR / "child.py"), str(plan_path), str(result_path)]
        if trace_dir is not None:
            argv.append(str(trace_dir))
        start, end, code, usage = spawn(argv, it_dir / f"{name}-log.txt")
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        return start, end, code, usage, result

    def iterate(self, traced, warm_up=False):
        import checks

        index = len(self.iterations)
        it_dir = self.dir / f"it{index}"
        out_root = it_dir / "out"
        plan = self._plan_for(out_root)
        it_dir.mkdir(parents=True)
        trace_dir = it_dir / "trace" if traced else None
        if traced:
            trace_dir.mkdir()
        start, end, code, usage, result = self._child(it_dir, "workload", plan, trace_dir)
        record = {
            "traced": traced,
            "warm_up": warm_up,
            "exit_code": code,
            "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # max over the process tree, KiB on Linux
        }
        codes = {c["label"]: c["code"] for c in result["commands"]} if result else {}
        record["setup_s"] = [result["imported_at"] - start] if result else []
        record["spans"] = self._spans(plan, start, end, result)
        record["setup_spans"] = [[(start, result["imported_at"])]] if result else []
        if result:
            record["command_s"] = {c["label"]: c["s"] for c in result["commands"]}
        record["problems"] = {
            step["label"]: checks.check_command(
                step["command"], step["label"], step["out"], codes.get(step["label"], "missing")
            )
            for step in plan
        }
        if not self.trace and not warm_up:
            # A second set-up sample: the same import, with no command after it.
            start, _, code, _, result = self._child(it_dir, "import", [])
            if result:
                record["setup_s"].append(result["imported_at"] - start)
                record["setup_spans"].append([(start, result["imported_at"])])
            record["problems"]["import"] = [] if code == 0 and result else [f"exit code {code}"]
        record["out_dirs"] = {step["label"]: step["out"] for step in plan}
        record["digest"], record["bytes"] = tree_digest(out_root) if out_root.exists() else ("", 0)
        if not any(record["problems"].values()):
            record["failed_points"] = checks.failed_points(self.workload, record["out_dirs"])
        if traced:
            import tracer

            dumps = [json.loads(p.read_text()) for p in sorted((it_dir / "trace").glob("*.json"))]
            record["layers"] = tracer.summarize(dumps)
            record["layers"]["cli.io.bytes"] = record["bytes"]
            shutil.rmtree(it_dir / "trace")
        self.iterations.append(record)
        return record

    def measure(self):
        # The first iteration fills the bytecode and page caches, which a
        # user pays once, not on every call; it is checked but not timed.
        sampler = SpeedSampler(self.cpus)
        sampler.start()
        os.sched_setaffinity(0, self.serial)  # inherited by every child
        try:
            self.iterate(traced=False, warm_up=True)
            deadline = monotonic() + self.seconds
            while len(self.iterations) <= MIN_ITERATIONS[self.trace] or monotonic() < deadline:
                self.iterate(traced=bool(self.trace) and len(self.iterations) % 2 == 0)
        finally:
            os.sched_setaffinity(0, self.cpus)
            sampler.stop()
        self.speed = sampler.samples

    def at_reference_speed(self, spans):
        """Seconds the ``spans`` would take at the reference speed.

        ``spans`` maps "serial" and "pooled" to lists of (start, end). Each
        kind is scaled by the mean sampler pass over its CPUs and its spans.
        """
        total = 0.0
        for kind, windows in spans.items():
            cpus = self.serial if kind == "serial" else self.cpus
            inside = [
                t for cpu in cpus for at, t in self.speed[cpu]
                if any(a <= at <= b for a, b in windows)
            ]
            if not inside:  # a span shorter than the sampling interval
                inside = [t for cpu in cpus for _, t in self.speed[cpu]]
            total += sum(b - a for a, b in windows) * REFERENCE_PASS_S / statistics.fmean(inside)
        return total

    def importtime(self):
        import tracer

        code = "import sys; sys.path.insert(0, 'src'); import rydberg_receiver.cli"
        log = self.dir / "importtime.txt"
        _, _, status, _ = spawn(["-c", code], log, extra_flags=("-X", "importtime"))
        if status != 0:
            self.probe_problems.append(f"import-time probe exited {status}")
            return {}
        return tracer.importtime_metrics(log.read_text())


# ----------------------------------------------------------------------
# Metrics and report


def median(values):
    return statistics.median(values) if values else float("nan")


def timed(run, traced):
    return [it for it in run.iterations if it["traced"] == traced and not it["warm_up"]]


def as_timed(run):
    """The untraced samples as the clocks read them."""
    plain = timed(run, traced=False)
    return {
        "wall_s": [it["wall_s"] for it in plain],
        "setup_s": [s for it in plain for s in it["setup_s"]],
        "cpu_s": [it["cpu_s"] for it in plain],
        "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
    }


def end_to_end(run):
    """The untraced samples, times at the reference speed (see ``SpeedSampler``)."""
    plain = timed(run, traced=False)
    walls = [run.at_reference_speed(it["spans"]) for it in plain]
    return {
        "wall_s": walls,
        "setup_s": [
            run.at_reference_speed({"serial": span}) for it in plain for span in it["setup_spans"]
        ],
        # the process tree's CPU time, scaled like its wall time
        "cpu_s": [it["cpu_s"] * wall / it["wall_s"] for it, wall in zip(plain, walls)],
        "peak_rss_mb": [it["peak_rss_mb"] for it in plain],
    }


def per_layer(run, import_metrics):
    traced = [it for it in timed(run, traced=True) if "layers" in it]
    names = traced[0]["layers"].keys() if traced else ()
    # work counters repeat exactly (correctness() checks it); times vary
    layers = {
        name: traced[0]["layers"][name] if is_work_counter(name)
        else median([it["layers"][name] for it in traced])
        for name in names
    }
    layers.update(import_metrics)
    plain = timed(run, traced=False)
    layers["trace.overhead_s"] = (
        median([run.at_reference_speed(it["spans"]) for it in traced])
        - median([run.at_reference_speed(it["spans"]) for it in plain])
    )
    return layers


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us") or name.endswith("us_per_step"):
        return "us"
    if name == "cli.io.bytes":
        return "B"
    if name == "receiver.solves_per_gain":
        return "ratio"
    return "count"


def is_work_counter(name):
    return unit_of(name) in ("count", "B", "ratio")


def correctness(run):
    """(attempted, failed, problems): output checks, spot checks, repeatability."""
    import checks

    attempted = failed = 0
    problems = list(run.probe_problems)
    for k, it in enumerate(run.iterations):
        for label, found in it["problems"].items():
            attempted += 1
            if found:
                failed += 1
                problems += [f"iteration {k} {label}: {p}" for p in found]
    if failed == 0:
        first = run.iterations[0]
        problems += checks.spot_check(
            run.workload, run.seed, first["out_dirs"], run.dir / "inputs" / "scheme.ini"
        )
        if len({it["digest"] for it in run.iterations}) != 1:
            problems.append("output trees differ between iterations of one seed")
        traced = [it["layers"] for it in run.iterations if "layers" in it]
        for name in traced[0] if traced else ():
            if is_work_counter(name) and len({layers[name] for layers in traced}) != 1:
                problems.append(f"work counter {name} differs between traced iterations")
    return attempted, failed, problems


def describe(values):
    if not values:
        return "n=0"
    return (
        f"median {median(values):.4f}  min {min(values):.4f}  max {max(values):.4f}  "
        f"n={len(values)}"
    )


def report(run, e2e, raw, layers, attempted, failed, problems):
    out = [
        f"== {run.workload}  seed {run.seed}  trace {run.trace}  "
        f"{len(run.iterations) - 1} iterations after a warm-up  (closed loop, 1 client; "
        f"BLAS threads 1, nproc {os.cpu_count()})"
    ]
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    for name, values in e2e.items():
        out.append(f"  {name:<14} {describe(values)}  {units[name]}, lower is better")
    for name in ("wall_s", "setup_s", "cpu_s"):
        out.append(f"  {name + ' timed':<14} {describe(raw[name])}  {units[name]}, as the clocks read")
    out.append(f"  {'failed_ops':<14} {failed}/{attempted} commands and import-only processes")
    points = [it["failed_points"] for it in run.iterations if "failed_points" in it]
    if points:
        bad, total = points[0]
        share = f"{bad / total:.4f}" if total else "n/a"
        out.append(f"  {'failed_points':<14} {bad}/{total} grid points and candidates ({share})")
    for problem in problems:
        out.append(f"  PROBLEM {problem}")
    for name, value in sorted(layers.items()):
        out.append(f"  {name:<46} {value:.6g} {unit_of(name)}")
    return "\n".join(out)


def declared_metrics():
    spec = json.loads(BENCHMARK_FILE.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def versions():
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def run_one(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds, trace)
    run.measure()
    import_metrics = run.importtime() if trace else {}
    e2e, raw = end_to_end(run), as_timed(run)
    layers = per_layer(run, import_metrics) if trace else {}
    attempted, failed, problems = correctness(run)
    print(report(run, e2e, raw, layers, attempted, failed, problems), flush=True)

    e2e_units, layer_units = declared_metrics()
    values = {name: median(e2e[name]) for name in e2e_units} if not trace else {
        name: layers.get(name, float("nan")) for name in layer_units
    }
    units = layer_units if trace else e2e_units
    missing = sorted(name for name, value in values.items() if not math.isfinite(value))
    correct = failed == 0 and not problems
    if missing and correct:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    # A broken program reports what was measured, with correct false.
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name not in missing
        },
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "threads": {**THREAD_ENV, "nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0))},
        "versions": versions(),
        "inputs": run.files,
        "argv": [step["argv"] for step in run.plan],
        "end_to_end_samples": e2e,
        "timed_samples": raw,
        "per_layer": layers,
        "iterations": [
            {k: v for k, v in it.items() if k not in ("out_dirs", "layers")}
            for it in run.iterations
        ],
        "problems": problems,
        "speed_samples": {str(cpu): samples for cpu, samples in run.speed.items()},
        "result": result,
    }
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(run.dir)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"bench: no package at {PACKAGE}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))  # the spot checks import the package
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    combined = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            combined[f"{workload}.trace{trace}"] = run_one(workload, args.seed, args.seconds, trace)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
