"""Command-line interface.

Seven subcommands cover the workflow end to end: ``steady-state``,
``dynamics``, ``fidelity-map``, ``optimize-lo``, ``waveform``, ``sumrate``,
and ``validate-scheme``. Every run is configured by an optional strict INI
file (missing file sections fall back to the bundled defaults, which
reproduce the documented cesium operating point), writes its products into
``--out``, and finishes with a ``manifest.json`` recording the resolved
parameters and output names. Manifests and data files carry no timestamps
or absolute paths, so identical invocations produce byte-identical trees.

Exit codes: 0 success, 1 usage, configuration or scheme errors (and an
invalid ``validate-scheme`` report), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .comms import RABI_SET1, RABI_SET2, EnvironmentParams, compare_architectures
from .config import ConfigError, Field, dbm_to_watts, load_config, parse_config
from .fidelity import (
    _OPTIMIZE_RULES, _SCAN_RULES, PerturbationRegion, fidelity_scan, optimize_operating_point,
)
from .lindblad import (
    _EVOLVE_RULES,
    DEFAULT_DT,
    MIN_SNAPSHOTS,
    STEADY_STATE_METHODS,
    DriveConfig,
    TimeDependentLiouvillian,
    _raise_first,
    basis_state,
    evolve,
    make_generator,
    steady_state_numerical,
    vectorize,
)
from .analytic import analytic_steady_state
from .numerics import TWO_PI, _lattice, write_csv
from .receiver import (
    _SYNTHESIS_RULES,
    RfSignalSpec,
    VaporCellParams,
    iq_demodulate,
    linearization_discrepancy,
    signal_amplitudes,
    synthesize_pd_waveform,
    write_spectrogram_csv,
    write_waveform_csv,
)
from .scheme import (
    Architecture,
    cesium_scheme,
    load_scheme,
    require_hybrid_six,
    validate_scheme,
)


def _keys(rules, **defaults):
    """The config keys of the library ``rules`` named in ``defaults``, each with its default."""
    return {name: replace(rules[name], default=default) for name, default in defaults.items()}


_DRIVE_SCHEMA = {**DriveConfig.RULES, **_keys(
    DriveConfig.RULES, omega_p=TWO_PI * 5.7, omega_c=TWO_PI * 0.97,
    rf_rabi=(TWO_PI * 2.0, TWO_PI * 7.0, TWO_PI * 1.0, TWO_PI * 6.0),
    # None: inherit the per-transition detunings declared by the scheme.
    rf_detunings=None,
)}

#: The drive keys the detector commands read: the lasers and the RF amplitudes, which
#: ``sumrate`` takes from its rabi set. The susceptibility constant divides by the probe Rabi.
_PROBED_DRIVE_SCHEMA = {"omega_p": replace(_DRIVE_SCHEMA["omega_p"], sign=">"),
                        **{key: _DRIVE_SCHEMA[key] for key in ("omega_c", "rf_rabi")}}

#: The horizon of the commands that evolve or solve a state: ``t_end`` and the step ``dt``.
_HORIZON = _keys(_EVOLVE_RULES, t_end=10.0, dt=DEFAULT_DT)

_RABI_SETS = {"set1": RABI_SET1, "set2": RABI_SET2}
_freeze_import_heap = cache(gc.freeze)  # once per process: see main

SCHEMAS = {
    "steady-state": {
        "drive": _DRIVE_SCHEMA,
        "steady_state": {
            "method": Field("str", "null_space", choices=(*STEADY_STATE_METHODS, "analytic")),
            **_HORIZON,
            "compare_analytic": Field("bool", True),
        },
    },
    "dynamics": {
        "drive": _DRIVE_SCHEMA,
        "dynamics": {
            **_HORIZON,
            **_keys(_EVOLVE_RULES, max_snapshots=1001),
            "all_coherences": Field("bool", False),
            "initial_level": Field("int", 1),
        },
    },
    "fidelity-map": {
        "drive": _DRIVE_SCHEMA,
        "scan": {
            "axes": Field("int_list", (1, 4), counts=(2,)),
            "range_lo": Field("angular_frequency_list", (0.0, 0.0), sign=">=", counts=(2,)),
            "range_hi": Field("angular_frequency_list", (TWO_PI * 10.0,) * 2, sign=">=",
                              counts=(2,)),
            **_keys(_SCAN_RULES, resolution=(21,)),
            "method": Field("str", "evolve", choices=STEADY_STATE_METHODS),
            **_HORIZON,
        },
    },
    "optimize-lo": {
        "drive": _DRIVE_SCHEMA,
        "optimize": {
            **_keys(_OPTIMIZE_RULES, search_lo=0.0, grid_step=TWO_PI * 1.0,
                    sum_constraint=TWO_PI * 16.0, plateau_tolerance=1e-5),
            "search_hi": Field("angular_frequency", TWO_PI * 10.0),
            # documented robustness region: 2 kHz perturbations per channel
            **_keys(PerturbationRegion.RULES, half_widths=(TWO_PI * 2e-3,) * 4),
            "samples_per_axis": PerturbationRegion.RULES["samples_per_axis"],
            "method": Field("str", "null_space", choices=STEADY_STATE_METHODS),
            **_HORIZON,
        },
    },
    "waveform": {
        "drive": _PROBED_DRIVE_SCHEMA,
        "cell": VaporCellParams.RULES,
        "signal": {
            # amplitudes None: calibrate them from modulation_index per channel.
            **RfSignalSpec.RULES,
            **_keys(RfSignalSpec.RULES, offsets=(TWO_PI * 0.2, TWO_PI * 0.5, TWO_PI * 0.8,
                                                 TWO_PI * 1.1)),
            "modulation_index": Field("float", 5e-3, sign=">="),
        },
        "waveform": {
            **_keys(_SYNTHESIS_RULES, duration=200.0, sample_rate=16.0, noise_std=0.0),
            "spectrogram": Field("bool", True),
            "demodulate": Field("bool", True),
        },
    },
    "sumrate": {
        "drive": {key: _PROBED_DRIVE_SCHEMA[key] for key in ("omega_p", "omega_c")},
        "cell": VaporCellParams.RULES,
        "sumrate": {
            "rabi_set": Field("str", "set1", choices=tuple(_RABI_SETS)),
            "rabi": Field("angular_frequency_list", None, sign=">=", counts=(4,)),
            "power_min_dbm": Field("float", -30.0),
            "power_max_dbm": Field("float", 10.0),
            "power_step_db": Field("float", 2.0, sign=">"),
            # any number of bandwidths
            "bandwidths": Field("ordinary_frequency_list", (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
                                sign=">"),
            "power_sweep_bandwidth": Field("ordinary_frequency", 0.1, sign=">"),
            "bandwidth_sweep_power_dbm": Field("float", -10.0),
            "temperature": EnvironmentParams.RULES["temperature"],
            "beta": Field("float", 1.0, sign=">"),
        },
    },
    "validate-scheme": {},
}

#: Rules that relate a section's keys to each other or to the scheme:
#: (section, test of the section's values and the scheme size, message).
_RULES = (
    ("dynamics", lambda v, size: v["max_snapshots"] >= MIN_SNAPSHOTS,
     f"max_snapshots must be >= {MIN_SNAPSHOTS}"),
    ("dynamics", lambda v, size: 1 <= v["initial_level"] <= size,
     "initial_level must be in 1..{size}"),
    ("scan", lambda v, size: v["axes"][0] != v["axes"][1] and set(v["axes"]) <= {1, 2, 3, 4},
     "axes must name two distinct RF channels in 1..4"),
    ("scan", lambda v, size: all(lo <= hi for lo, hi in zip(v["range_lo"], v["range_hi"])),
     "range_hi must be >= range_lo"),
    ("optimize", lambda v, size: v["search_lo"] <= v["search_hi"],
     "search_hi must be >= search_lo"),
    ("sumrate", lambda v, size: v["power_min_dbm"] <= v["power_max_dbm"],
     "power_max_dbm must be >= power_min_dbm"),
) + tuple(
    ("sumrate", lambda v, size, key=key, to=to: _converts(to, v[key]), f"{key} overflows in {unit}")
    for keys, to, unit in ((("power_min_dbm", "power_max_dbm", "bandwidth_sweep_power_dbm"),
                            dbm_to_watts, "watts"),
                           (("bandwidths", "power_sweep_bandwidth"), (1e6).__mul__, "Hz"))
    for key in keys
)


def _converts(to, value):
    """Whether ``to`` maps ``value``, or each of its entries, to a finite float (MHz to Hz,
    dBm to watts) without overflow."""
    try:
        return all(np.isfinite(to(x)) for x in np.ravel(value).tolist())
    except OverflowError:
        return False


#: Files each command writes, as ``--dry-run`` reports them; None for
#: ``validate-scheme``, which writes nothing. A file in ``_OPTIONAL`` is
#: written only when its ``[waveform]`` flag is on.
_OPTIONAL = {"demod.csv": "demodulate", "spectrogram.csv": "spectrogram"}
PLANNED = {
    "steady-state": ["steady_state.csv", "summary.json", "manifest.json"],
    "dynamics": ["trajectory.csv", "summary.json", "manifest.json"],
    "fidelity-map": ["fidelity_map.csv", "summary.json", "manifest.json"],
    "optimize-lo": ["operating_point.json", "manifest.json"],
    "waveform": ["waveform.csv", "demod.csv", "spectrogram.csv", "summary.json", "manifest.json"],
    "sumrate": ["rates.csv", "summary.json", "manifest.json"],
    "validate-scheme": None,
}


def _json_default(x):
    """What ``json`` writes for the types it cannot encode; it walks dicts, lists and tuples."""
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, Architecture):
        return x.value
    if isinstance(x, (np.ndarray, np.generic)):  # a numpy scalar's tolist() is its item()
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _load_inputs(args):
    schema = SCHEMAS[args.command]
    origin = args.config if args.config is not None else "<defaults>"
    cfg = (load_config(args.config, schema) if args.config is not None
           else parse_config("", schema, origin))
    scheme = load_scheme(args.scheme) if args.scheme else cesium_scheme()
    if args.command != "validate-scheme":
        try:
            require_hybrid_six(scheme)
        except ValueError as exc:
            raise ConfigError(f"{args.scheme}: {exc}") from None
    for section, test, message in _RULES:
        if section in cfg and not test(cfg[section], scheme.size):
            raise ConfigError(f"{origin}: [{section}] " + message.format(size=scheme.size))
    return cfg, scheme


def _resolve_drive(drive_cfg, scheme):
    declared = tuple(scheme.transition(n).detuning for n in range(1, 5))  # the scheme's
    return DriveConfig(**{**drive_cfg, "rf_detunings": drive_cfg["rf_detunings"] or declared})


def _run(args):
    """Load and check the inputs, compute, then write every product.

    A command computes everything that can fail and returns ``({file name:
    writer}, summary, message)``; the files, then ``summary.json`` unless the
    summary is None, are written in order after it returns, so a failed run
    writes none. A command whose verdict fails (an invalid scheme) returns
    None for the files and the run exits 1.
    """
    cfg, scheme = _load_inputs(args)
    planned = PLANNED[args.command]
    if args.dry_run:
        report = {"command": args.command, "dry_run": True}
        if planned is not None:
            planned = [n for n in planned if n not in _OPTIONAL or cfg["waveform"][_OPTIONAL[n]]]
            report.update(parameters=cfg, would_write=planned)
        print(json.dumps(report, indent=2, sort_keys=True, default=_json_default))
        return 0
    files, summary, message = args.func(cfg, scheme, args.seed)
    if summary is not None:
        files["summary.json"] = lambda path: _dump_json(path, summary)
    if files:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            write(out / name)
        manifest = {
            "command": args.command,
            "version": __version__,
            "config": Path(args.config).name if args.config else None,
            "scheme": Path(args.scheme).name if args.scheme else "bundled:cesium-six-level",
            "seed": args.seed,
            "parameters": cfg,
            "units": "angular frequencies rad/us, ordinary frequencies MHz, times us, powers W, SI otherwise",
            "outputs": list(files),
        }
        _dump_json(out / "manifest.json", manifest)
    print(message)
    return 0 if files is not None else 1


# ----------------------------------------------------------------------
# Subcommands: each takes (cfg, scheme, seed) and returns (files, summary, message)


def cmd_steady_state(cfg, scheme, seed):
    drive = _resolve_drive(cfg["drive"], scheme)
    ss = cfg["steady_state"]
    method = ss["method"]
    if method == "analytic":
        rho = analytic_steady_state(drive, scheme)
        residual = None
    else:
        rho = steady_state_numerical(drive, scheme, method, ss["t_end"], ss["dt"])
        generator = make_generator(drive, scheme)  # for the residual only
        time_dependent = isinstance(generator, TimeDependentLiouvillian)
        matrix = generator.matrix(ss["t_end"]) if time_dependent else generator.matrix
        residual = float(np.linalg.norm(matrix @ vectorize(rho.matrix)))

    comparison = None
    if ss["compare_analytic"] and method != "analytic":
        try:
            ref = analytic_steady_state(drive, scheme)
            comparison = {
                "max_abs_difference": float(np.max(np.abs(rho.matrix - ref.matrix))),
                "resonant_drive": drive.is_resonant,
            }
        except ValueError as exc:
            comparison = {"unavailable": str(exc)}

    def write_states(path):
        i, j = np.indices(rho.matrix.shape).reshape(2, -1)
        write_csv(path, "i,j,re,im", "%d,%d,%.12g,%.12g",
                  [(i + 1, j + 1, rho.matrix.real.ravel(), rho.matrix.imag.ravel())])

    summary = {
        "method": method,
        "populations": [rho.population(k) for k in range(1, 7)],
        "rho21": rho.coherence(2, 1),
        "liouvillian_residual": residual,
        "analytic_comparison": comparison,
    }
    pops = ", ".join(f"{p:.6f}" for p in summary["populations"])
    return {"steady_state.csv": write_states}, summary, (
        f"steady-state ({method}): populations [{pops}]\nrho21 = {summary['rho21']:.6e}"
    )


def cmd_dynamics(cfg, scheme, seed):
    drive = _resolve_drive(cfg["drive"], scheme)
    dyn = cfg["dynamics"]
    trajectory = evolve(
        basis_state(dyn["initial_level"]),
        make_generator(drive, scheme),
        t_end=dyn["t_end"],
        dt=dyn["dt"],
        max_snapshots=dyn["max_snapshots"],
    )
    final = trajectory.final
    summary = {
        "t_end": dyn["t_end"],
        "dt": dyn["dt"],
        "snapshots": len(trajectory.times),
        "max_trace_drift": trajectory.max_trace_drift,
        "final_populations": [final.population(k) for k in range(1, 7)],
        "final_rho21": final.coherence(2, 1),
    }

    def write_trajectory(path):
        trajectory.write_csv(path, all_coherences=dyn["all_coherences"])

    return {"trajectory.csv": write_trajectory}, summary, (
        f"dynamics: {summary['snapshots']} snapshots to t={dyn['t_end']:g} us, "
        f"trace drift {summary['max_trace_drift']:.3e}"
    )


def cmd_fidelity_map(cfg, scheme, seed):
    drive = _resolve_drive(cfg["drive"], scheme)
    scan_cfg = cfg["scan"]
    axes = scan_cfg["axes"]
    lo, hi = scan_cfg["range_lo"], scan_cfg["range_hi"]
    scan = fidelity_scan(
        drive,
        axes,
        scheme,
        ranges=((lo[0], hi[0]), (lo[1], hi[1])),
        resolution=scan_cfg["resolution"],
        steady_state_method=scan_cfg["method"],
        t_end=scan_cfg["t_end"],
        dt=scan_cfg["dt"],
    )
    finite = scan.fidelities[np.isfinite(scan.fidelities)]
    if finite.size == 0:
        _raise_first(*scan.record, f"fidelity-map: all {scan.fidelities.size} grid points "
                     "failed; first failed point: ")
    i_min, j_min = scan.min_point()
    summary = {
        "axes": list(axes),
        "points": int(scan.fidelities.size),
        "failures": int(scan.fidelities.size - finite.size),
        "min_fidelity": float(scan.fidelities[i_min, j_min]),
        "max_fidelity": float(np.max(finite)),
        "min_point_rf_rabi": list(scan.drive_at(i_min, j_min).rf_rabi),
    }
    return {"fidelity_map.csv": scan.write_csv}, summary, (
        f"fidelity-map: {scan.fidelities.size} points on axes {axes}, "
        f"min {summary['min_fidelity']:.6f}, max {summary['max_fidelity']:.6f}"
    )


def cmd_optimize_lo(cfg, scheme, seed):
    drive = _resolve_drive(cfg["drive"], scheme)
    opt = cfg["optimize"]
    result = optimize_operating_point(
        (opt["search_lo"], opt["search_hi"]),
        opt["sum_constraint"],
        opt["half_widths"],
        opt["samples_per_axis"],
        base_drive=drive,
        scheme=scheme,
        grid_step=opt["grid_step"],
        steady_state_method=opt["method"],
        t_end=opt["t_end"],
        dt=opt["dt"],
        plateau_tolerance=opt["plateau_tolerance"],
    )
    payload = {
        "operating_point_rad_per_us": list(result.point),
        "operating_point_mhz": [v / TWO_PI for v in result.point],
        "average_fidelity": result.average_fidelity,
        "accepted_plateau_rad_per_us": [list(p) for p in result.accepted],
        "evaluated": result.evaluated,
        "failures": [list(p) for p in result.failures],
    }
    mhz = ", ".join(f"{v:.3f}" for v in payload["operating_point_mhz"])
    return {"operating_point.json": lambda path: _dump_json(path, payload)}, None, (
        f"optimize-lo: best point 2pi x [{mhz}] MHz, "
        f"average fidelity {payload['average_fidelity']:.8f}, "
        f"{len(result.accepted)} plateau candidates of {payload['evaluated']} evaluated"
    )


def cmd_waveform(cfg, scheme, seed):
    drive = DriveConfig(**cfg["drive"])
    cell = VaporCellParams(**cfg["cell"])
    sig = cfg["signal"]
    wf_cfg = cfg["waveform"]

    amplitudes = sig["amplitudes"]
    if amplitudes is None:
        amplitudes = signal_amplitudes(drive, scheme, sig["modulation_index"])
    spec = RfSignalSpec(
        amplitudes=amplitudes,
        offsets=sig["offsets"],
        phases=sig["phases"],
        bandwidths=sig["bandwidths"],
    )
    waveform = synthesize_pd_waveform(
        spec, drive, cell, scheme, wf_cfg["duration"], wf_cfg["sample_rate"],
        noise_std=wf_cfg["noise_std"], seed=seed,
    )
    files = {"waveform.csv": lambda path: write_waveform_csv(path, waveform)}
    channel_summaries = []
    if wf_cfg["demodulate"]:
        active = spec.active_channels()
        demods = iq_demodulate(
            waveform,
            [spec.offsets[n - 1] for n in active],
            [spec.bandwidths[n - 1] for n in active],
        )
        for n, ch in zip(active, demods):
            expected = waveform.gains[n] * spec.amplitudes[n - 1] * np.exp(1j * spec.phases[n - 1])
            measured = np.mean(ch.steady())
            # a balanced loop has no gain, so no envelope to compare with
            ratio = float(np.abs(measured) / np.abs(expected)) if expected != 0 else None
            channel_summaries.append(
                {
                    "channel": n,
                    "expected_envelope": complex(expected),
                    "measured_envelope": complex(measured),
                    "magnitude_ratio": ratio,
                }
            )

        files["demod.csv"] = lambda path: write_csv(
            path,
            "channel,t,re,im",
            "%d,%.9g,%.12g,%.12g",
            [(n, ch.times, ch.baseband.real, ch.baseband.imag) for n, ch in zip(active, demods)],
        )
    if wf_cfg["spectrogram"]:
        files["spectrogram.csv"] = lambda path: write_spectrogram_csv(path, waveform)
    summary = {
        "dc_level": waveform.dc_level,
        "samples": len(waveform.times),
        "sample_rate_mhz": wf_cfg["sample_rate"],
        "amplitudes_v_per_m": list(amplitudes),
        "gains_a_per_v_per_m": list(waveform.gains.gains),
        "linearization_rms_over_dc": linearization_discrepancy(waveform),
        "channels": channel_summaries,
    }
    return files, summary, (
        f"waveform: {summary['samples']} samples, DC {summary['dc_level']:.6e} A, "
        f"linearization residual {summary['linearization_rms_over_dc']:.3e} of DC"
    )


def cmd_sumrate(cfg, scheme, seed):
    sr = cfg["sumrate"]
    rabi_set = sr["rabi"] if sr["rabi"] is not None else _RABI_SETS[sr["rabi_set"]]
    powers = _lattice(sr["power_min_dbm"], sr["power_max_dbm"], sr["power_step_db"],
                      "sumrate.power_step_db")
    bandwidths_hz = np.asarray(sr["bandwidths"]) * 1e6  # MHz -> Hz

    comparison = compare_architectures(
        scheme,
        rabi_set,
        powers,
        bandwidths_hz,
        omega_p=cfg["drive"]["omega_p"],
        omega_c=cfg["drive"]["omega_c"],
        cell=VaporCellParams(**cfg["cell"]),
        temperature=sr["temperature"],
        beta=sr["beta"],
        power_sweep_bandwidth_hz=sr["power_sweep_bandwidth"] * 1e6,
        bandwidth_sweep_power_dbm=sr["bandwidth_sweep_power_dbm"],
    )
    at_max = {a.value: float(rates[-1]) for a, rates in comparison.power_rates.items()}
    summary = {
        "rabi_set_rad_per_us": list(comparison.rabi_set),
        "gains": {a.value: list(g.gains) for a, g in comparison.gains.items()},
        "y_lo": {a.value: v for a, v in comparison.y_lo.items()},
        "power_sweep_bandwidth_hz": comparison.power_sweep_bandwidth_hz,
        "bandwidth_sweep_power_dbm": comparison.bandwidth_sweep_power_dbm,
        "rate_at_max_power": at_max,
    }
    return {"rates.csv": comparison.write_csv}, summary, (
        f"sumrate at {powers[-1]:g} dBm, {sr['power_sweep_bandwidth']:g} MHz: "
        f"hybrid {at_max['Hybrid']:.4g} bit/s, cascade {at_max['CRS']:.4g} bit/s, "
        f"parallel {at_max['PRS']:.4g} bit/s"
    )


def cmd_validate_scheme(cfg, scheme, seed):
    report = validate_scheme(scheme)
    return ({} if report.valid else None), None, report.summary()


# ----------------------------------------------------------------------
# Parser


def _add_common(sp):
    sp.add_argument("--config", default=None, help="INI configuration file")
    sp.add_argument(
        "--scheme", default=None, help="level-scheme INI file (default: bundled cesium)"
    )
    sp.add_argument("--out", default=".", help="output directory (default: current)")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed for noisy synthesis")
    sp.add_argument("--workers", type=int, help="accepted and ignored; every run is serial")
    sp.add_argument(
        "--dry-run", action="store_true", help="resolve inputs and report without computing"
    )


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="rydberg-receiver",
        description="Six-level hybrid atomic RF receiver: steady states, dynamics, "
        "operating-point optimization, waveform synthesis, and link rates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    specs = [
        ("steady-state", cmd_steady_state, "solve the driven-dissipative steady state"),
        ("dynamics", cmd_dynamics, "integrate the master equation in time"),
        ("fidelity-map", cmd_fidelity_map, "scan steady-state fidelity over two RF amplitudes"),
        ("optimize-lo", cmd_optimize_lo, "search for a robust local-oscillator operating point"),
        ("waveform", cmd_waveform, "synthesize and demodulate detector waveforms"),
        ("sumrate", cmd_sumrate, "compare architecture ergodic sum rates"),
        ("validate-scheme", cmd_validate_scheme, "check a level-scheme file"),
    ]
    common = argparse.ArgumentParser(add_help=False)  # built once, shared by every command
    _add_common(common)
    for name, func, help_text in specs:
        sub.add_parser(name, help=help_text, parents=[common]).set_defaults(func=func)
    return parser


def main(argv=None):
    """Run one command and return its exit code.

    A cold call pays the import, the command and the exit. The first call per process
    freezes what is alive then (numpy and this package stay imported until exit), so no
    collection walks it, the ones at exit included; later calls leave their garbage collectable.
    """
    _freeze_import_heap()
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # numpy's linear-algebra errors are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size the config allows but this machine cannot hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
