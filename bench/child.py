"""One workload iteration: a fresh interpreter runs the CLI commands in order.

    python3 bench/child.py PLAN.json RESULT.json [TRACE_DIR]

The first thing this process does is import ``rydberg_receiver.cli`` from the
checkout's ``src/`` and read the system-wide monotonic clock, so the parent
can measure set-up time from spawn to import. It then calls ``cli.main`` for
each planned command, as a cold CLI call would, and writes per-command exit
codes and times. Each command runs on the CPUs its plan step names. With
TRACE_DIR, the layers are wrapped (see ``tracer.py``) and the spans are
written there at exit.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import rydberg_receiver.cli as cli  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import traceback  # noqa: E402


def main(plan_path, result_path, trace_dir=None):
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if trace_dir is not None:
        sys.path.insert(0, BENCH_DIR)
        import tracer as tracing

        tracer = tracing.Tracer(trace_dir, run_id=os.path.basename(trace_dir))
        tracing.install(tracer)
    commands = []
    home = os.sched_getaffinity(0)
    for step in plan:
        # a pooled command's workers inherit the CPUs it is given
        os.sched_setaffinity(0, step["cpus"])
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            code = cli.main(step["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crash of the run
            traceback.print_exc()
            code = "exception"
        end = time.clock_gettime(time.CLOCK_MONOTONIC)
        os.sched_setaffinity(0, home)
        commands.append(
            {"label": step["label"], "code": code, "start": start, "end": end, "s": end - start}
        )
        sys.stdout.flush()
    if tracer is not None:
        tracer.dump()
    with open(result_path, "w") as fh:
        json.dump({"imported_at": IMPORTED_AT, "commands": commands}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
