"""Span tracer for the benchmark's traced runs, installed from outside the package.

The tracer wraps the public functions of each ``rydberg_receiver`` module
(the layers) after the package is imported. A wrapper records one span per
call: name, start, end, parent span and a failure flag; spans stay in
memory and are written out when the process ends. Modules import each other
with ``from .x import f``, so every module attribute bound to a wrapped
function is replaced, not only the defining one.

Three kinds of hook sit beside the spans:

* light wrappers count calls and time without a span, for functions called
  tens of thousands of times (the exponential integral, the blackbody
  density, the FIR designers, the time-dependent generator's evaluation);
  their time is charged to the enclosing span as child time so that span's
  self time stays honest;
* file writes: the package's modules get an ``open`` that times each file
  opened for writing, from open to close, as a ``cli.io.write`` span;
* the fidelity module's process pool is replaced by a subclass that times
  the parent's wait for results.

Pool workers are forked with the tracer already installed. A worker drops
the spans it inherited and writes its own file at exit, so per-layer work
done in workers is counted too.
"""

import builtins
import functools
import inspect
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util as mp_util

clock = time.perf_counter

NAME, START, END, PARENT, LIGHT, FAILED = range(6)


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, out_dir, run_id):
        self.out_dir = out_dir
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counts = {}
        self.context = {}
        self._worker_dump_pending = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # multiprocessing clears its finalizer registry after this hook
        # runs, so the exit dump is registered on the worker's first call.
        self.spans, self.stack, self.counts, self.context = [], [], {}, {}
        self._worker_dump_pending = True

    def _register_worker_dump(self):
        self._worker_dump_pending = False
        mp_util.Finalize(None, self.dump, exitpriority=10)

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def layer(self, name, fn, after=None, before=None):
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``name`` may be a callable of the call's bound arguments (a dict
        with defaults applied); the ``before`` and ``after`` hooks receive
        the tracer, those arguments and (after) the result, and record counts.
        """
        tracer = self
        signature = inspect.signature(fn)
        needs_arguments = before is not None or after is not None or not isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._worker_dump_pending:
                tracer._register_worker_dump()
            arguments = _bind(signature, args, kwargs) if needs_arguments else None
            label = name if isinstance(name, str) else name(arguments)
            if before is not None:
                before(tracer, arguments)
            stack = tracer.stack
            record = [label, clock(), 0.0, stack[-1] if stack else -1, 0.0, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[FAILED] = 1
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                after(tracer, arguments, result)
            return result

        return wrapper

    def light(self, name, fn, after=None):
        """Wrap ``fn`` to count calls and time without recording spans.

        The ``after`` hook receives the tracer, the positional arguments and
        the result.
        """
        tracer = self
        calls, seconds = f"{name}.calls", f"{name}.s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                counts = tracer.counts
                counts[calls] = counts.get(calls, 0) + 1
                counts[seconds] = counts.get(seconds, 0.0) + elapsed
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][LIGHT] += elapsed
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def charge_wait(self, key, start):
        """Add the time since ``start`` to counter ``key`` and to the open span."""
        elapsed = clock() - start
        self.add(key, elapsed)
        if self.stack:
            self.spans[self.stack[-1]][LIGHT] += elapsed

    def open(self, file, mode="r", *args, **kwargs):
        """``open`` for the package's modules: writes become spans."""
        fh = builtins.open(file, mode, *args, **kwargs)
        if not any(flag in mode for flag in "wax"):
            return fh
        return _TimedWrite(self, fh)

    def dump(self):
        """Write this process's spans and counters as JSON."""
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with builtins.open(path, "w") as fh:
            json.dump(
                {"run_id": self.run_id, "pid": os.getpid(), "spans": self.spans,
                 "counts": self.counts},
                fh,
            )


class _TimedWrite:
    """File proxy whose lifetime, from open to close, is a ``cli.io.write`` span."""

    def __init__(self, tracer, fh):
        self._fh = fh
        self._tracer = tracer
        self._index = len(tracer.spans)
        stack = tracer.stack
        self._record = ["cli.io.write", clock(), 0.0, stack[-1] if stack else -1, 0.0, 0]
        stack.append(self._index)
        tracer.spans.append(self._record)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if self._fh.closed:
            return
        self._fh.close()
        self._record[END] = clock()
        self._tracer.add("cli.io.files", 1)
        if self._index in self._tracer.stack:
            self._tracer.stack.remove(self._index)


# ----------------------------------------------------------------------
# Hooks that turn arguments and results into work counters


def _bind(signature, args, kwargs):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _is_time_dependent(generator):
    return hasattr(generator, "delta")


def _evolve_name(arguments):
    kind = "td" if _is_time_dependent(arguments["generator"]) else "const"
    return f"lindblad.evolve.{kind}"


def _before_evolve(tracer, arguments):
    tracer.context["generator_times"] = []


def _after_evolve(tracer, arguments, trajectory):
    if not _is_time_dependent(arguments["generator"]):
        tracer.add("lindblad.evolve.const.snapshots", len(trajectory.times))


def _after_generator(tracer, args, matrix):
    # One RK4 step evaluates the generator at t, t + h/2 and t + h, in that
    # order. Steps are counted from the evaluation times the integrator
    # asks for, so an integrator with other stages reads 0 RK4 steps and
    # shows its own work in the evaluation count.
    times = tracer.context.setdefault("generator_times", [])
    times.append(args[1])
    if len(times) < 3:
        return
    t0, t1, t2 = times
    if t2 > t0 and abs(2.0 * t1 - t0 - t2) <= 1e-6 * (t2 - t0):
        tracer.add("lindblad.evolve.td.rk4_steps", 1)
        times.clear()
    else:
        del times[0]


def _after_rho21(tracer, arguments, rho21):
    tracer.add("analytic.rho21_from_amplitudes.samples", int(getattr(rho21, "size", 1)))


def _after_scan(tracer, arguments, scan):
    size = int(scan.fidelities.size)
    finite = int((scan.fidelities == scan.fidelities).sum())  # NaN != NaN
    tracer.add("fidelity.points", size)
    tracer.add("fidelity.failed_points", size - finite)


def _after_optimize(tracer, arguments, result):
    tracer.add("fidelity.points", result.evaluated)
    tracer.add("fidelity.failed_points", len(result.failures))


def _after_gain(tracer, arguments, gains):
    if arguments["model"] == "numerical":
        tracer.add("receiver.gain_coefficients.numerical_calls", 1)


def _after_synthesis(tracer, arguments, waveform):
    tracer.add("receiver.synthesize_pd_waveform.samples", len(waveform.times))


def _before_demod(tracer, arguments):
    tracer.context["demod_samples"] = len(arguments["waveform"].samples)


def _fir_macs(arms):
    # iq_demodulate runs the bandpass once and the lowpass on both arms,
    # each as a full-length convolution over the record.
    def after(tracer, args, taps):
        tracer.add("receiver.fir_macs", arms * len(taps) * tracer.context.get("demod_samples", 0))

    return after


COMMANDS = {
    "cmd_steady_state": "steady-state",
    "cmd_dynamics": "dynamics",
    "cmd_fidelity_map": "fidelity-map",
    "cmd_optimize_lo": "optimize-lo",
    "cmd_waveform": "waveform",
    "cmd_sumrate": "sumrate",
    "cmd_validate_scheme": "validate-scheme",
}

#: (module, attribute, span name, after hook, before hook)
LAYERS = [
    ("config", "load_config", "config.load_config", None, None),
    ("scheme", "load_scheme", "scheme.load", None, None),
    ("scheme", "cesium_scheme", "scheme.load", None, None),
    ("lindblad", "make_generator", "lindblad.make_generator", None, None),
    ("lindblad", "steady_state", "lindblad.steady_state", None, None),
    ("lindblad", "evolve", _evolve_name, _after_evolve, _before_evolve),
    ("numerics", "null_space", "numerics.null_space", None, None),
    ("numerics", "psd_sqrt", "numerics.psd_sqrt", None, None),
    ("analytic", "analytic_steady_state", "analytic.analytic_steady_state", None, None),
    ("analytic", "rho21_from_amplitudes", "analytic.rho21_from_amplitudes", _after_rho21, None),
    ("fidelity", "fidelity", "fidelity.fidelity", None, None),
    ("fidelity", "fidelity_scan", "fidelity.fidelity_scan", _after_scan, None),
    ("fidelity", "average_fidelity", "fidelity.average_fidelity", None, None),
    ("fidelity", "optimize_operating_point", "fidelity.optimize_operating_point",
     _after_optimize, None),
    ("receiver", "gain_coefficients", "receiver.gain_coefficients", _after_gain, None),
    ("receiver", "photodetector_output", "receiver.photodetector_output", None, None),
    ("receiver", "synthesize_pd_waveform", "receiver.synthesize_pd_waveform",
     _after_synthesis, None),
    ("receiver", "iq_demodulate", "receiver.iq_demodulate", None, _before_demod),
    ("receiver", "spectrogram_data", "receiver.spectrogram_data", None, None),
    ("comms", "compare_architectures", "comms.compare_architectures", None, None),
    ("comms", "ergodic_sum_rate", "comms.ergodic_sum_rate", None, None),
] + [("cli", attr, f"cli.{command}", None, None) for attr, command in COMMANDS.items()]

#: (module, attribute, counter name, after hook): counted, no span each
COUNTED = [
    ("numerics", "exp_e1_scaled", "numerics.exp_e1_scaled", None),
    ("comms", "blackbody_psd", "comms.blackbody_psd", None),
    ("receiver", "_kaiser_bandpass", "receiver.fir_design", _fir_macs(1)),
    ("receiver", "_kaiser_lowpass", "receiver.fir_design", _fir_macs(2)),
]

#: (module, class, method, counter name, after hook): counted, no span each
COUNTED_METHODS = [
    ("lindblad", "TimeDependentLiouvillian", "matrix", "lindblad.td_generator",
     _after_generator),
]


def _rebind(modules, original, wrapped):
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(tracer, package="rydberg_receiver"):
    """Wrap every layer of the already imported ``package``."""
    modules = {
        name[len(package) + 1:] if name != package else "": module
        for name, module in sys.modules.items()
        if name == package or name.startswith(package + ".")
    }
    targets = list(modules.values())
    for mod, attr, name, after, before in LAYERS:
        original = getattr(modules[mod], attr)
        _rebind(targets, original, tracer.layer(name, original, after=after, before=before))
    for mod, attr, name, after in COUNTED:
        original = getattr(modules[mod], attr)
        _rebind(targets, original, tracer.light(name, original, after=after))
    for mod, cls_name, attr, name, after in COUNTED_METHODS:
        cls = getattr(modules[mod], cls_name)
        setattr(cls, attr, tracer.light(name, vars(cls)[attr], after=after))
    for module in targets:
        module.open = tracer.open

    class TracedPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            start = clock()
            results = super().map(fn, *iterables, **kwargs)
            tracer.charge_wait("fidelity.fidelity_scan.pool_wait_s", start)
            return _timed(results)

        def shutdown(self, *args, **kwargs):
            start = clock()
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                tracer.charge_wait("fidelity.fidelity_scan.pool_wait_s", start)

    def _timed(results):
        while True:
            start = clock()
            try:
                item = next(results)
            except StopIteration:
                tracer.charge_wait("fidelity.fidelity_scan.pool_wait_s", start)
                return
            tracer.charge_wait("fidelity.fidelity_scan.pool_wait_s", start)
            yield item

    modules["fidelity"].ProcessPoolExecutor = TracedPool


# ----------------------------------------------------------------------
# Aggregation, in the benchmark's parent process


def _percentile50(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0.0


def summarize(dumps):
    """Per-layer metrics from the span files of one traced iteration.

    A span's self time is its duration minus the time its direct child
    spans and light-wrapped calls cover. Spans of every process (the
    workload process and its pool workers) are pooled by name.
    """
    calls, total, self_s, failures, durations = {}, {}, {}, {}, {}
    counts = {}
    solves_in_gains = 0
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        under_gain = [False] * len(spans)
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                child[parent] += span[END] - span[START]
                under_gain[i] = under_gain[parent]
            if span[NAME] == "receiver.gain_coefficients":
                under_gain[i] = True
        for i, span in enumerate(spans):
            name, duration = span[NAME], span[END] - span[START]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child[i] - span[LIGHT]
            failures[name] = failures.get(name, 0) + span[FAILED]
            durations.setdefault(name, []).append(duration)
            if name == "lindblad.steady_state" and under_gain[i]:
                solves_in_gains += 1
        for key, value in dump["counts"].items():
            counts[key] = counts.get(key, 0) + value

    m = {}
    for command in COMMANDS.values():
        m[f"cli.{command}.s"] = total.get(f"cli.{command}", 0.0)
    m["cli.io.write_s"] = total.get("cli.io.write", 0.0)
    m["cli.io.files"] = counts.get("cli.io.files", 0)
    m["config.load_config.s"] = total.get("config.load_config", 0.0)
    m["scheme.load.s"] = total.get("scheme.load", 0.0)

    def layer(name, *quantities):
        for q in quantities:
            if q == "calls":
                m[f"{name}.calls"] = calls.get(name, 0)
            elif q == "self_s":
                m[f"{name}.self_s"] = self_s.get(name, 0.0)
            elif q == "p50_us":
                m[f"{name}.p50_us"] = 1e6 * _percentile50(durations.get(name, []))
            elif q == "failures":
                m[f"{name}.failures"] = failures.get(name, 0)

    layer("lindblad.make_generator", "calls", "self_s", "p50_us")
    layer("lindblad.steady_state", "calls", "self_s", "p50_us", "failures")
    layer("lindblad.evolve.const", "calls", "self_s")
    m["lindblad.evolve.const.snapshots"] = counts.get("lindblad.evolve.const.snapshots", 0)
    layer("lindblad.evolve.td", "calls", "self_s")
    m["lindblad.td_generator.calls"] = counts.get("lindblad.td_generator.calls", 0)
    m["lindblad.td_generator.self_s"] = counts.get("lindblad.td_generator.s", 0.0)
    steps = counts.get("lindblad.evolve.td.rk4_steps", 0)
    m["lindblad.evolve.td.rk4_steps"] = steps
    # the whole span per step, generator evaluations included
    m["lindblad.evolve.td.us_per_step"] = (
        1e6 * total.get("lindblad.evolve.td", 0.0) / steps if steps else 0.0
    )
    layer("numerics.null_space", "calls", "self_s")
    layer("numerics.psd_sqrt", "calls", "self_s")
    m["numerics.exp_e1_scaled.calls"] = counts.get("numerics.exp_e1_scaled.calls", 0)
    m["numerics.exp_e1_scaled.self_s"] = counts.get("numerics.exp_e1_scaled.s", 0.0)
    layer("analytic.analytic_steady_state", "calls", "self_s")
    layer("analytic.rho21_from_amplitudes", "calls", "self_s")
    m["analytic.rho21_from_amplitudes.samples"] = counts.get(
        "analytic.rho21_from_amplitudes.samples", 0
    )
    layer("fidelity.fidelity", "calls", "self_s")
    layer("fidelity.fidelity_scan", "self_s")
    m["fidelity.fidelity_scan.pool_wait_s"] = counts.get("fidelity.fidelity_scan.pool_wait_s", 0.0)
    layer("fidelity.optimize_operating_point", "self_s")
    layer("fidelity.average_fidelity", "calls")
    m["fidelity.points"] = counts.get("fidelity.points", 0)
    m["fidelity.failed_points"] = counts.get("fidelity.failed_points", 0)
    layer("receiver.gain_coefficients", "calls", "self_s")
    numerical_gains = counts.get("receiver.gain_coefficients.numerical_calls", 0)
    m["receiver.solves_per_gain"] = solves_in_gains / numerical_gains if numerical_gains else 0.0
    layer("receiver.photodetector_output", "calls")
    layer("receiver.synthesize_pd_waveform", "self_s")
    m["receiver.synthesize_pd_waveform.samples"] = counts.get(
        "receiver.synthesize_pd_waveform.samples", 0
    )
    layer("receiver.iq_demodulate", "self_s")
    m["receiver.fir_macs"] = counts.get("receiver.fir_macs", 0)
    layer("receiver.spectrogram_data", "self_s")
    layer("comms.compare_architectures", "self_s")
    layer("comms.ergodic_sum_rate", "calls", "self_s")
    m["comms.blackbody_psd.calls"] = counts.get("comms.blackbody_psd.calls", 0)
    return m


IMPORT_GROUPS = ("numpy", "scipy.constants", "scipy.signal")


def importtime_metrics(stderr_text, package="rydberg_receiver"):
    """Import cost from ``python -X importtime`` output, in seconds.

    ``cli.import.<group>_s`` sums the cumulative time of the outermost
    entries of that module tree: what importing it cost the CLI, wherever
    it was first imported. ``cli.import.rydberg_receiver_s`` sums the self
    time of the package's own modules; ``cli.import.total_s`` is the whole
    import of ``<package>.cli`` under the import-time hook (which adds its
    own overhead, so it reads above ``setup_s``).
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except (ValueError, IndexError):  # the header line
            continue
        raw = fields[2].rstrip()
        depth = len(raw) - len(raw.lstrip())
        entries.append((depth, raw.strip(), self_us / 1e6, cum_us / 1e6))

    def member(name, group):
        return name == group or name.startswith(group + ".")

    metrics = {f"cli.import.{group}_s": 0.0 for group in IMPORT_GROUPS}
    metrics["cli.import.rydberg_receiver_s"] = 0.0
    metrics["cli.import.total_s"] = 0.0
    ancestors = []
    # children are printed before their parent, so walk parents first
    for depth, name, self_s, cum_s in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for group in IMPORT_GROUPS:
            if member(name, group) and not any(member(a, group) for _, a in ancestors):
                metrics[f"cli.import.{group}_s"] += cum_s
        if member(name, package):
            metrics["cli.import.rydberg_receiver_s"] += self_s
        if name == f"{package}.cli" and not ancestors:
            metrics["cli.import.total_s"] = cum_s
        ancestors.append((depth, name))
    return metrics
