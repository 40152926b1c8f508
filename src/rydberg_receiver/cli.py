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
from .comms import RABI_SET1, RABI_SET2, compare_architectures
from .config import ConfigError, Field, dbm_to_watts, load_config, parse_config
from .fidelity import (
    PerturbationRegion,
    fidelity_scan,
    optimize_operating_point,
)
from .lindblad import (
    DEFAULT_DT,
    STEADY_STATE_METHODS,
    DriveConfig,
    TimeDependentLiouvillian,
    _raise_first,
    basis_state,
    evolve,
    make_generator,
    steady_state,
    steady_state_numerical,
    vectorize,
)
from .analytic import analytic_steady_state
from .numerics import TWO_PI, write_csv
from .receiver import (
    DEFAULT_CELL,
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
    SchemeFileError,
    cesium_scheme,
    load_scheme,
    require_hybrid_six,
    validate_scheme,
)

_DRIVE_SCHEMA = {
    "omega_p": Field("angular_frequency", TWO_PI * 5.7, sign=">="),
    "omega_c": Field("angular_frequency", TWO_PI * 0.97, sign=">="),
    "rf_rabi": Field(
        "angular_frequency_list",
        (TWO_PI * 2.0, TWO_PI * 7.0, TWO_PI * 1.0, TWO_PI * 6.0),
        sign=">=",
        counts=(4,),
    ),
    "delta_p": Field("angular_frequency", 0.0),
    "delta_c": Field("angular_frequency", 0.0),
    # None: inherit the per-transition detunings declared by the scheme.
    "rf_detunings": Field("angular_frequency_list", None, counts=(4,)),
    "rf_phases": Field("float_list", (0.0, 0.0, 0.0, 0.0), counts=(4,)),
}

#: The drive of the commands that read the detector, whose susceptibility
#: constant divides by the probe Rabi amplitude.
_PROBED_DRIVE_SCHEMA = {**_DRIVE_SCHEMA, "omega_p": replace(_DRIVE_SCHEMA["omega_p"], sign=">")}

_CELL_SCHEMA = {
    "cell_length": Field("length", DEFAULT_CELL.cell_length, sign=">"),
    "atomic_density": Field("density", DEFAULT_CELL.atomic_density, sign=">"),
    "probe_dipole": Field("dipole", DEFAULT_CELL.probe_dipole, sign=">"),
    "probe_wavelength": Field("length", DEFAULT_CELL.probe_wavelength, sign=">"),
    "probe_power": Field("power", DEFAULT_CELL.probe_power, sign=">"),
    "responsivity": Field("responsivity", DEFAULT_CELL.responsivity, sign=">"),
}

_RABI_SETS = {"set1": RABI_SET1, "set2": RABI_SET2}
_freeze_import_heap = cache(gc.freeze)  # once per process: see main

SCHEMAS = {
    "steady-state": {
        "drive": _DRIVE_SCHEMA,
        "steady_state": {
            "method": Field("str", "null_space", choices=(*STEADY_STATE_METHODS, "analytic")),
            "t_end": Field("time", 10.0, sign=">="),
            "dt": Field("time", DEFAULT_DT, sign=">"),
            "compare_analytic": Field("bool", True),
        },
    },
    "dynamics": {
        "drive": _DRIVE_SCHEMA,
        "dynamics": {
            "t_end": Field("time", 10.0, sign=">="),
            "dt": Field("time", DEFAULT_DT, sign=">"),
            "max_snapshots": Field("int", 1001),
            "all_coherences": Field("bool", False),
            "initial_level": Field("int", 1),
        },
    },
    "fidelity-map": {
        "drive": _DRIVE_SCHEMA,
        "scan": {
            "axes": Field("int_list", (1, 4), counts=(2,)),
            "range_lo": Field("angular_frequency_list", (0.0, 0.0), sign=">=", counts=(2,)),
            "range_hi": Field(
                "angular_frequency_list",
                (TWO_PI * 10.0, TWO_PI * 10.0),
                sign=">=",
                counts=(2,),
            ),
            "resolution": Field("int_list", (21,), sign=">", counts=(1, 2)),
            "method": Field("str", "evolve", choices=STEADY_STATE_METHODS),
            "t_end": Field("time", 10.0, sign=">="),
            "dt": Field("time", DEFAULT_DT, sign=">"),
        },
    },
    "optimize-lo": {
        "drive": _DRIVE_SCHEMA,
        "optimize": {
            "search_lo": Field("angular_frequency", 0.0, sign=">="),
            "search_hi": Field("angular_frequency", TWO_PI * 10.0),
            "grid_step": Field("angular_frequency", TWO_PI * 1.0, sign=">"),
            "sum_constraint": Field("angular_frequency", TWO_PI * 16.0, sign=">"),
            # documented robustness region: 2 kHz perturbations per channel
            "half_widths": Field(
                "angular_frequency_list",
                (TWO_PI * 2e-3, TWO_PI * 2e-3, TWO_PI * 2e-3, TWO_PI * 2e-3),
                sign=">=",
                counts=(4,),
            ),
            "samples_per_axis": Field("int", 3, sign=">"),
            "method": Field("str", "null_space", choices=STEADY_STATE_METHODS),
            "plateau_tolerance": Field("float", 1e-5, sign=">="),
            "t_end": Field("time", 10.0, sign=">="),
            "dt": Field("time", DEFAULT_DT, sign=">"),
        },
    },
    "waveform": {
        "drive": _PROBED_DRIVE_SCHEMA,
        "cell": _CELL_SCHEMA,
        "signal": {
            # None: calibrate amplitudes from modulation_index per channel.
            "amplitudes": Field("float_list", None, sign=">=", counts=(4,)),
            "modulation_index": Field("float", 5e-3, sign=">="),
            "offsets": Field(
                "angular_frequency_list",
                (TWO_PI * 0.2, TWO_PI * 0.5, TWO_PI * 0.8, TWO_PI * 1.1),
                counts=(4,),
            ),
            "phases": Field("float_list", (0.0, 0.0, 0.0, 0.0), counts=(4,)),
            "bandwidths": Field(
                "ordinary_frequency_list", (0.1, 0.1, 0.1, 0.1), sign=">", counts=(4,)
            ),
        },
        "waveform": {
            "duration": Field("time", 200.0, sign=">"),
            "sample_rate": Field("ordinary_frequency", 16.0, sign=">"),
            "noise_std": Field("float", 0.0, sign=">="),
            "spectrogram": Field("bool", True),
            "demodulate": Field("bool", True),
        },
    },
    "sumrate": {
        "drive": {key: _PROBED_DRIVE_SCHEMA[key] for key in ("omega_p", "omega_c")},
        "cell": _CELL_SCHEMA,
        "sumrate": {
            "rabi_set": Field("str", "set1", choices=tuple(_RABI_SETS)),
            "rabi": Field("angular_frequency_list", None, sign=">=", counts=(4,)),
            "power_min_dbm": Field("float", -30.0),
            "power_max_dbm": Field("float", 10.0),
            "power_step_db": Field("float", 2.0, sign=">"),
            # any number of bandwidths
            "bandwidths": Field(
                "ordinary_frequency_list", (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0), sign=">"
            ),
            "power_sweep_bandwidth": Field("ordinary_frequency", 0.1, sign=">"),
            "bandwidth_sweep_power_dbm": Field("float", -10.0),
            "temperature": Field("temperature", 300.0, sign=">"),
            "beta": Field("float", 1.0, sign=">"),
        },
    },
    "validate-scheme": {},
}

#: Rules that relate a section's keys to each other or to the scheme:
#: (section, test of the section's values and the scheme size, message).
_RULES = (
    ("dynamics", lambda v, size: v["max_snapshots"] >= 2, "max_snapshots must be >= 2"),
    ("dynamics", lambda v, size: 1 <= v["initial_level"] <= size,
     "initial_level must be in 1..{size}"),
    ("scan", lambda v, size: v["axes"][0] != v["axes"][1] and set(v["axes"]) <= {1, 2, 3, 4},
     "axes must name two distinct RF channels in 1..4"),
    ("optimize", lambda v, size: v["search_lo"] <= v["search_hi"],
     "search_hi must be >= search_lo"),
    ("sumrate", lambda v, size: v["power_min_dbm"] <= v["power_max_dbm"],
     "power_max_dbm must be >= power_min_dbm"),
) + tuple(
    ("sumrate", lambda v, size, key=key: _has_watts(v[key]), f"{key} overflows in watts")
    for key in ("power_min_dbm", "power_max_dbm", "bandwidth_sweep_power_dbm")
)


def _has_watts(dbm):
    """Whether ``dbm`` dBm converts to watts without overflow."""
    try:
        return np.isfinite(dbm_to_watts(dbm))
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


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, Architecture):
        return x.value
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def _dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
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
            raise SchemeFileError(f"{args.scheme}: {exc}") from None
    for section, test, message in _RULES:
        if section in cfg and not test(cfg[section], scheme.size):
            raise ConfigError(f"{origin}: [{section}] " + message.format(size=scheme.size))
    return cfg, scheme


def _resolve_drive(drive_cfg, scheme):
    detunings = drive_cfg.get("rf_detunings")
    if detunings is None:
        detunings = tuple(scheme.transition(n).detuning for n in range(1, 5))
    return DriveConfig(
        omega_p=drive_cfg["omega_p"],
        omega_c=drive_cfg["omega_c"],
        rf_rabi=drive_cfg["rf_rabi"],
        delta_p=drive_cfg["delta_p"],
        delta_c=drive_cfg["delta_c"],
        rf_detunings=detunings,
        rf_phases=drive_cfg["rf_phases"],
    )


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
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
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
    method = cfg["steady_state"]["method"]
    if method == "analytic":
        rho = analytic_steady_state(drive, scheme)
        residual = None
    else:
        generator = make_generator(drive, scheme)
        if method == "null_space":
            rho = steady_state(generator)
        else:
            rho = steady_state_numerical(
                drive, scheme, method, cfg["steady_state"]["t_end"], cfg["steady_state"]["dt"]
            )
        matrix = (
            generator.matrix(0.0)
            if isinstance(generator, TimeDependentLiouvillian)
            else generator.matrix
        )
        residual = float(np.linalg.norm(matrix @ vectorize(rho.matrix)))

    comparison = None
    if cfg["steady_state"]["compare_analytic"] and method != "analytic":
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
    pops = ", ".join(f"{rho.population(k):.6f}" for k in range(1, 7))
    return {"steady_state.csv": write_states}, summary, (
        f"steady-state ({method}): populations [{pops}]\n"
        f"rho21 = {rho.coherence(2, 1):.6e}"
    )


def cmd_dynamics(cfg, scheme, seed):
    drive = _resolve_drive(cfg["drive"], scheme)
    dyn = cfg["dynamics"]
    trajectory = evolve(
        basis_state(dyn["initial_level"], dim=scheme.size),
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
        f"dynamics: {len(trajectory.times)} snapshots to t={dyn['t_end']:g} us, "
        f"trace drift {trajectory.max_trace_drift:.3e}"
    )


def cmd_fidelity_map(cfg, scheme, seed):
    drive = _resolve_drive(cfg["drive"], scheme)
    scan_cfg = cfg["scan"]
    axes = scan_cfg["axes"]
    lo, hi = scan_cfg["range_lo"], scan_cfg["range_hi"]
    res = scan_cfg["resolution"]
    resolution = res[0] if len(res) == 1 else tuple(res)
    scan = fidelity_scan(
        drive,
        axes,
        scheme,
        ranges=((lo[0], hi[0]), (lo[1], hi[1])),
        resolution=resolution,
        steady_state_method=scan_cfg["method"],
        t_end=scan_cfg["t_end"],
        dt=scan_cfg["dt"],
    )
    finite = scan.fidelities[np.isfinite(scan.fidelities)]
    if finite.size == 0:
        failed = f"fidelity-map: all {scan.fidelities.size} grid points failed"
        _raise_first(*scan.record, failed + "; first failed point: ")
        raise ValueError(failed)
    i_min, j_min = scan.min_point()
    min_drive = scan.drive_at(i_min, j_min)
    min_fid = scan.fidelities[i_min, j_min]
    summary = {
        "axes": list(axes),
        "points": int(scan.fidelities.size),
        "failures": int(scan.fidelities.size - finite.size),
        "min_fidelity": float(min_fid),
        "max_fidelity": float(np.max(finite)),
        "min_point_rf_rabi": list(min_drive.rf_rabi),
    }
    return {"fidelity_map.csv": scan.write_csv}, summary, (
        f"fidelity-map: {scan.fidelities.size} points on axes {axes}, "
        f"min {min_fid:.6f}, max {float(np.max(finite)):.6f}"
    )


def cmd_optimize_lo(cfg, scheme, seed):
    drive = _resolve_drive(cfg["drive"], scheme)
    opt = cfg["optimize"]
    hw = opt["half_widths"]
    template = PerturbationRegion(
        center=hw, half_widths=hw, samples_per_axis=opt["samples_per_axis"]
    )
    result = optimize_operating_point(
        (opt["search_lo"], opt["search_hi"]),
        opt["sum_constraint"],
        template,
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
    mhz = ", ".join(f"{v / TWO_PI:.3f}" for v in result.point)
    return {"operating_point.json": lambda path: _dump_json(path, payload)}, None, (
        f"optimize-lo: best point 2pi x [{mhz}] MHz, "
        f"average fidelity {result.average_fidelity:.8f}, "
        f"{len(result.accepted)} plateau candidates of {result.evaluated} evaluated"
    )


def cmd_waveform(cfg, scheme, seed):
    drive = _resolve_drive(cfg["drive"], scheme)
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
        f"waveform: {len(waveform.times)} samples, DC {waveform.dc_level:.6e} A, "
        f"linearization residual {summary['linearization_rms_over_dc']:.3e} of DC"
    )


def cmd_sumrate(cfg, scheme, seed):
    sr = cfg["sumrate"]
    rabi_set = sr["rabi"] if sr["rabi"] is not None else _RABI_SETS[sr["rabi_set"]]
    n_steps = int(np.floor((sr["power_max_dbm"] - sr["power_min_dbm"]) / sr["power_step_db"] + 1e-9))
    powers = sr["power_min_dbm"] + sr["power_step_db"] * np.arange(n_steps + 1)
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
    ref_idx = int(np.argmax(comparison.power_rates[Architecture.HYBRID]))
    summary = {
        "rabi_set_rad_per_us": list(comparison.rabi_set),
        "gains": {a.value: list(g.gains) for a, g in comparison.gains.items()},
        "y_lo": {a.value: v for a, v in comparison.y_lo.items()},
        "power_sweep_bandwidth_hz": comparison.power_sweep_bandwidth_hz,
        "bandwidth_sweep_power_dbm": comparison.bandwidth_sweep_power_dbm,
        "rate_at_max_power": {
            a.value: float(comparison.power_rates[a][ref_idx]) for a in comparison.power_rates
        },
    }
    hyb = comparison.power_rates[Architecture.HYBRID][-1]
    crs = comparison.power_rates[Architecture.CRS][-1]
    prs = comparison.power_rates[Architecture.PRS][-1]
    return {"rates.csv": comparison.write_csv}, summary, (
        f"sumrate at {powers[-1]:g} dBm, {sr['power_sweep_bandwidth']:g} MHz: "
        f"hybrid {hyb:.4g} bit/s, cascade {crs:.4g} bit/s, parallel {prs:.4g} bit/s"
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
    except (ConfigError, SchemeFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size the config allows but this machine cannot hold
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
