"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of CLI commands run in order by one process.
The seed chooses where in drive space the work falls (scan axes, fixed RF
amplitudes, loop detuning, signal phases, the noise seed); it never changes
how much work there is: grid sizes, horizons, steps, sample counts and sweep
lengths are constants of this file.

``generate`` writes the INI files into a directory and returns the argv of
every command, so the program under test only ever sees generated files.
"""

import math
import random

WORKLOADS = ("landscape", "transient", "link")

#: Placeholder for the per-iteration output directory in planned argv.
OUT = "{out}"

AXIS_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

#: Work sizes. Changing any of these changes the benchmark, not the program.
MAP_RESOLUTION = 25          # 25 x 25 = 625 points per fidelity map
MAP_WORKERS = 2              # the pooled map; equals the 2 cores measured here
OPT_AXIS_STEPS = 3           # candidates k * step on 4 axes, k = 0..3, sum(k) <= 3
OPT_CANDIDATES = math.comb(OPT_AXIS_STEPS + 4, 4)  # 35
TD_T_END_US = 3.0            # 30,000 RK4 steps at dt = 1e-4 us
TD_SNAPSHOTS = 101
CONST_T_END_US = 10.0
CONST_SNAPSHOTS = 1001
WAVEFORM_DURATION_US = 4000.0  # 64,000 samples at 16 MHz
WAVEFORM_RATE_MHZ = 16.0
POWER_STEP_DB = 0.02         # 2001 transmit powers from -30 to +10 dBm
SUMRATE_BANDWIDTHS = 100     # log-spaced 10 kHz .. 1 MHz

#: Ordered commands of each workload, as (label, CLI command, extra argv).
COMMANDS = {
    "landscape": (
        ("map-evolve", "fidelity-map", ()),
        ("map-null", "fidelity-map", ("--workers", str(MAP_WORKERS))),
        ("optimize", "optimize-lo", ()),
    ),
    "transient": (
        ("dyn-td", "dynamics", ()),
        ("dyn-const", "dynamics", ()),
        ("steady", "steady-state", ()),
    ),
    "link": (
        ("waveform", "waveform", ()),
        ("sumrate", "sumrate", ()),
        ("validate", "validate-scheme", ()),
    ),
}


def _list(values, digits=6):
    return ", ".join(f"{v:.{digits}g}" for v in values)


def _amplitudes(rng):
    """Four RF Rabi amplitudes in MHz (ordinary), rounded for a readable INI."""
    return [round(rng.uniform(1.0, 8.0), 3) for _ in range(4)]


def _landscape(rng):
    first = rng.choice(AXIS_PAIRS)
    second = rng.choice([p for p in AXIS_PAIRS if p != first])
    step = round(rng.uniform(0.8, 1.6), 3)
    half_widths = [round(rng.uniform(1.0, 3.0), 3) for _ in range(4)]

    def fidelity_map(axes, method):
        return (
            "[drive]\n"
            f"rf_rabi_mhz = {_list(_amplitudes(rng))}\n\n"
            "[scan]\n"
            f"axes = {axes[0]}, {axes[1]}\n"
            "range_lo_mhz = 0, 0\n"
            "range_hi_mhz = 10, 10\n"
            f"resolution = {MAP_RESOLUTION}\n"
            f"method = {method}\n"
            "t_end_us = 10\n"
            "dt_us = 0.0001\n"
        )

    optimize = (
        "[optimize]\n"
        "search_lo_mhz = 0\n"
        f"search_hi_mhz = {step * OPT_AXIS_STEPS:.6g}\n"
        f"grid_step_mhz = {step:.6g}\n"
        # sums are whole multiples of the step, so half a step more admits
        # exactly the candidates with sum(k) <= OPT_AXIS_STEPS, with no
        # rounding edge
        f"sum_constraint_mhz = {step * (OPT_AXIS_STEPS + 0.5):.6g}\n"
        f"half_widths_khz = {_list(half_widths)}\n"
        "samples_per_axis = 3\n"
        "method = null_space\n"
    )
    return {
        "map-evolve": fidelity_map(first, "evolve"),
        "map-null": fidelity_map(second, "null_space"),
        "optimize": optimize,
    }


def _transient(rng):
    # The bundled scheme's RF detunings (1, 1, 2, 4 kHz) close the loop;
    # moving the fourth breaks it and makes the generator time dependent.
    loop_khz = rng.choice((-1.0, 1.0)) * round(rng.uniform(5.0, 50.0), 3)
    detuned = (
        "[drive]\n"
        f"rf_rabi_mhz = {_list(_amplitudes(rng))}\n"
        f"rf_detunings_khz = 1, 1, 2, {4.0 + loop_khz:.6g}\n\n"
        "[dynamics]\n"
        f"t_end_us = {TD_T_END_US:g}\n"
        "dt_us = 0.0001\n"
        f"max_snapshots = {TD_SNAPSHOTS}\n"
    )
    closed = (
        "[drive]\n"
        f"rf_rabi_mhz = {_list(_amplitudes(rng))}\n\n"
        "[dynamics]\n"
        f"t_end_us = {CONST_T_END_US:g}\n"
        "dt_us = 0.0001\n"
        f"max_snapshots = {CONST_SNAPSHOTS}\n"
        "all_coherences = true\n"
    )
    steady = (
        "[drive]\n"
        f"rf_rabi_mhz = {_list(_amplitudes(rng))}\n\n"
        "[steady_state]\n"
        "method = null_space\n"
        "compare_analytic = true\n"
    )
    return {"dyn-td": detuned, "dyn-const": closed, "steady": steady}


def _link(rng):
    phases = [round(rng.uniform(0.0, 6.283), 4) for _ in range(4)]
    waveform = (
        "[signal]\n"
        f"phases = {_list(phases)}\n\n"
        "[waveform]\n"
        f"duration_us = {WAVEFORM_DURATION_US:g}\n"
        f"sample_rate_mhz = {WAVEFORM_RATE_MHZ:g}\n"
        # about a thousandth of the detector DC at the documented operating point
        "noise_std = 1e-25\n"
        "demodulate = true\n"
        "spectrogram = true\n"
    )
    n_bw = SUMRATE_BANDWIDTHS
    bandwidths = [0.01 * 100.0 ** (k / (n_bw - 1)) for k in range(n_bw)]
    # between the package's reference sets (7, 1, 1, 1) and (2, 1, 1, 1) MHz
    rabi = [round(rng.uniform(2.0, 7.0), 3), 1, 1, 1]
    sumrate = (
        "[sumrate]\n"
        f"rabi_mhz = {_list(rabi)}\n"
        "power_min_dbm = -30\n"
        "power_max_dbm = 10\n"
        f"power_step_db = {POWER_STEP_DB:g}\n"
        f"bandwidths_mhz = {_list(bandwidths, 9)}\n"
        f"power_sweep_bandwidth_mhz = {round(rng.uniform(0.02, 0.5), 4):g}\n"
        f"bandwidth_sweep_power_dbm = {round(rng.uniform(-20.0, 0.0), 3):g}\n"
    )
    return {"waveform": waveform, "sumrate": sumrate}


_BUILDERS = {"landscape": _landscape, "transient": _transient, "link": _link}


def generate(workload, seed, inputs_dir, scheme_text):
    """Write the workload's input files and return ``(plan, files)``.

    The plan lists ``{"label", "command", "argv", "out"}`` in run order; the
    caller replaces :data:`OUT` with each iteration's output directory, so
    iterations differ only there. ``files`` maps each generated file name to
    its text, so a stored result can be replayed.
    """
    rng = random.Random(f"{workload}:{seed}")
    configs = _BUILDERS[workload](rng)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    scheme_path = inputs_dir / "scheme.ini"
    scheme_path.write_text(scheme_text)
    files = {"scheme.ini": scheme_text}
    plan = []
    for label, command, extra in COMMANDS[workload]:
        argv = [command, "--scheme", str(scheme_path)]
        if label in configs:
            path = inputs_dir / f"{label}.ini"
            path.write_text(configs[label])
            files[path.name] = configs[label]
            argv += ["--config", str(path)]
        out = f"{OUT}/{label}"
        if command != "validate-scheme":
            argv += ["--out", out]
        if command == "waveform":
            argv += ["--seed", str(rng.randrange(2**31))]
        argv += list(extra)
        plan.append({"label": label, "command": command, "argv": argv, "out": out})
    return plan, files
