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
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .comms import RABI_SET1, RABI_SET2, compare_architectures
from .config import ConfigError, Field, load_config, parse_config
from .fidelity import (
    PerturbationRegion,
    average_fidelity,
    fidelity_scan,
    optimize_operating_point,
)
from .lindblad import (
    DEFAULT_DT,
    STEADY_STATE_METHODS,
    DriveConfig,
    TimeDependentLiouvillian,
    basis_state,
    evolve,
    ground_state,
    make_generator,
    steady_state,
    vectorize,
)
from .analytic import AnalyticContext, analytic_steady_state
from .numerics import TWO_PI
from .receiver import (
    DEFAULT_CELL,
    RfSignalSpec,
    VaporCellParams,
    _rabi_per_field,
    gain_coefficients,
    iq_demodulate,
    linearization_discrepancy,
    photodetector_output,
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
    "omega_p": Field("angular_frequency", TWO_PI * 5.7),
    "omega_c": Field("angular_frequency", TWO_PI * 0.97),
    "rf_rabi": Field(
        "angular_frequency_list", (TWO_PI * 2.0, TWO_PI * 7.0, TWO_PI * 1.0, TWO_PI * 6.0)
    ),
    "delta_p": Field("angular_frequency", 0.0),
    "delta_c": Field("angular_frequency", 0.0),
    # None: inherit the per-transition detunings declared by the scheme.
    "rf_detunings": Field("angular_frequency_list", None),
    "rf_phases": Field("float_list", (0.0, 0.0, 0.0, 0.0)),
}

_CELL_SCHEMA = {
    "cell_length": Field("length", DEFAULT_CELL.cell_length),
    "atomic_density": Field("density", DEFAULT_CELL.atomic_density),
    "probe_dipole": Field("dipole", DEFAULT_CELL.probe_dipole),
    "probe_wavelength": Field("length", DEFAULT_CELL.probe_wavelength),
    "probe_power": Field("power", DEFAULT_CELL.probe_power),
    "responsivity": Field("responsivity", DEFAULT_CELL.responsivity),
}

SCHEMAS = {
    "steady-state": {
        "drive": _DRIVE_SCHEMA,
        "steady_state": {
            "method": Field("str", "null_space"),
            "t_end": Field("time", 10.0),
            "dt": Field("time", DEFAULT_DT),
            "compare_analytic": Field("bool", True),
        },
    },
    "dynamics": {
        "drive": _DRIVE_SCHEMA,
        "dynamics": {
            "t_end": Field("time", 10.0),
            "dt": Field("time", DEFAULT_DT),
            "max_snapshots": Field("int", 1001),
            "all_coherences": Field("bool", False),
            "initial_level": Field("int", 1),
        },
    },
    "fidelity-map": {
        "drive": _DRIVE_SCHEMA,
        "scan": {
            "axes": Field("int_list", (1, 4)),
            "range_lo": Field("angular_frequency_list", (0.0, 0.0)),
            "range_hi": Field("angular_frequency_list", (TWO_PI * 10.0, TWO_PI * 10.0)),
            "resolution": Field("int_list", (21,)),
            "method": Field("str", "evolve"),
            "t_end": Field("time", 10.0),
            "dt": Field("time", DEFAULT_DT),
        },
    },
    "optimize-lo": {
        "drive": _DRIVE_SCHEMA,
        "optimize": {
            "search_lo": Field("angular_frequency", 0.0),
            "search_hi": Field("angular_frequency", TWO_PI * 10.0),
            "grid_step": Field("angular_frequency", TWO_PI * 1.0),
            "sum_constraint": Field("angular_frequency", TWO_PI * 16.0),
            # documented robustness region: 2 kHz perturbations per channel
            "half_widths": Field(
                "angular_frequency_list",
                (TWO_PI * 2e-3, TWO_PI * 2e-3, TWO_PI * 2e-3, TWO_PI * 2e-3),
            ),
            "samples_per_axis": Field("int", 3),
            "method": Field("str", "null_space"),
            "plateau_tolerance": Field("float", 1e-5),
            "t_end": Field("time", 10.0),
            "dt": Field("time", DEFAULT_DT),
        },
    },
    "waveform": {
        "drive": _DRIVE_SCHEMA,
        "cell": _CELL_SCHEMA,
        "signal": {
            # None: calibrate amplitudes from modulation_index per channel.
            "amplitudes": Field("float_list", None),
            "modulation_index": Field("float", 5e-3),
            "offsets": Field(
                "angular_frequency_list",
                (TWO_PI * 0.2, TWO_PI * 0.5, TWO_PI * 0.8, TWO_PI * 1.1),
            ),
            "phases": Field("float_list", (0.0, 0.0, 0.0, 0.0)),
            "bandwidths": Field("ordinary_frequency_list", (0.1, 0.1, 0.1, 0.1)),
        },
        "waveform": {
            "duration": Field("time", 200.0),
            "sample_rate": Field("ordinary_frequency", 16.0),
            "noise_std": Field("float", 0.0),
            "spectrogram": Field("bool", True),
            "demodulate": Field("bool", True),
        },
    },
    "sumrate": {
        "drive": {
            "omega_p": Field("angular_frequency", TWO_PI * 5.7),
            "omega_c": Field("angular_frequency", TWO_PI * 0.97),
        },
        "cell": _CELL_SCHEMA,
        "sumrate": {
            "rabi_set": Field("str", "set1"),
            "rabi": Field("angular_frequency_list", None),
            "power_min_dbm": Field("float", -30.0),
            "power_max_dbm": Field("float", 10.0),
            "power_step_db": Field("float", 2.0),
            "bandwidths": Field(
                "ordinary_frequency_list", (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
            ),
            "power_sweep_bandwidth": Field("ordinary_frequency", 0.1),
            "bandwidth_sweep_power_dbm": Field("float", -10.0),
            "temperature": Field("temperature", 300.0),
            "beta": Field("float", 1.0),
        },
    },
    "validate-scheme": {},
}

#: Keys whose value, or every entry of whose list, must be > 0 or >= 0, in
#: whichever section has them; a key left at None is not checked.
_SIGNS = {
    **dict.fromkeys(
        ("dt", "resolution", "grid_step", "sum_constraint", "samples_per_axis",
         "bandwidths", "duration", "sample_rate", "power_step_db",
         "power_sweep_bandwidth", "temperature", "beta", *_CELL_SCHEMA),
        ">",
    ),
    **dict.fromkeys(
        ("omega_p", "omega_c", "rf_rabi", "rabi", "t_end", "search_lo",
         "half_widths", "plateau_tolerance", "amplitudes", "modulation_index",
         "noise_std"),
        ">=",
    ),
}

#: Allowed entry counts of list keys by (section, key); a key left at None
#: is not checked.
_LENGTHS = {
    **dict.fromkeys((("scan", "axes"), ("scan", "range_lo"), ("scan", "range_hi")), (2,)),
    ("scan", "resolution"): (1, 2),
    **dict.fromkeys(
        (("drive", "rf_rabi"), ("drive", "rf_detunings"), ("drive", "rf_phases"),
         ("optimize", "half_widths"), ("signal", "amplitudes"), ("signal", "offsets"),
         ("signal", "phases"), ("signal", "bandwidths"), ("sumrate", "rabi")),
        (4,),
    ),
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


def _load_inputs(args, command):
    schema = SCHEMAS[command]
    if args.config is not None:
        cfg = load_config(args.config, schema)
    else:
        cfg = parse_config("", schema, origin="<defaults>")
    # Reject, with the key named, any non-finite number, a value of the
    # wrong sign or a list of the wrong length, fewer than two trajectory
    # snapshots, scan axes that are not two distinct RF channels and an
    # unknown steady-state protocol.
    for section, values in cfg.items():
        for key, value in values.items():
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not np.isfinite(v) for v in entries):
                raise ConfigError(f"[{section}] {key} must be finite, got {value}")
            if value is None:
                continue
            lengths = _LENGTHS.get((section, key))
            if lengths and len(value) not in lengths:
                counts = " or ".join(str(n) for n in lengths)
                raise ConfigError(f"[{section}] {key} must have {counts} entries")
            op = _SIGNS.get(key)
            if op and not all(v > 0 if op == ">" else v >= 0 for v in entries):
                raise ConfigError(f"[{section}] {key} must be {op} 0")
        if values.get("max_snapshots", 2) < 2:
            raise ConfigError(f"[{section}] max_snapshots must be >= 2")
        axes = values.get("axes")
        if axes and not (axes[0] != axes[1] and set(axes) <= {1, 2, 3, 4}):
            raise ConfigError("[scan] axes must name two distinct RF channels in 1..4")
        methods = STEADY_STATE_METHODS + (("analytic",) if section == "steady_state" else ())
        if "method" in values and values["method"] not in methods:
            raise ConfigError(f"[{section}] method must be one of {', '.join(methods)}")
    scheme = load_scheme(args.scheme) if args.scheme else cesium_scheme()
    try:
        require_hybrid_six(scheme)
    except ValueError as exc:
        raise SchemeFileError(f"{args.scheme}: {exc}") from None
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


def _resolve_cell(cell_cfg):
    return VaporCellParams(**cell_cfg)


def _dry_run(args, command, cfg, planned):
    print(
        json.dumps(
            _jsonable(
                {
                    "command": command,
                    "dry_run": True,
                    "parameters": cfg,
                    "would_write": planned,
                }
            ),
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _write_manifest(out_dir, command, args, cfg, outputs):
    manifest = {
        "command": command,
        "version": __version__,
        "config": Path(args.config).name if args.config else None,
        "scheme": Path(args.scheme).name if args.scheme else "bundled:cesium-six-level",
        "seed": args.seed,
        "parameters": cfg,
        "units": "angular frequencies rad/us, ordinary frequencies MHz, times us, powers W, SI otherwise",
        "outputs": outputs,
    }
    _dump_json(out_dir / "manifest.json", manifest)


def _out_dir(args):
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Subcommands


def cmd_steady_state(args):
    cfg, scheme = _load_inputs(args, "steady-state")
    planned = ["steady_state.csv", "summary.json", "manifest.json"]
    if args.dry_run:
        return _dry_run(args, "steady-state", cfg, planned)
    drive = _resolve_drive(cfg["drive"], scheme)
    method = cfg["steady_state"]["method"]
    if method == "analytic":
        rho = analytic_steady_state(AnalyticContext.from_drive(drive, scheme.decay_rate(2, 1)))
        residual = None
    else:
        generator = make_generator(drive, scheme)
        if method == "null_space":
            rho = steady_state(generator)
        else:
            rho = evolve(
                ground_state(),
                generator,
                t_end=cfg["steady_state"]["t_end"],
                dt=cfg["steady_state"]["dt"],
                max_snapshots=2,
            ).final
        matrix = (
            generator.matrix(0.0)
            if isinstance(generator, TimeDependentLiouvillian)
            else generator.matrix
        )
        residual = float(np.linalg.norm(matrix @ vectorize(rho.matrix)))

    comparison = None
    if cfg["steady_state"]["compare_analytic"] and method != "analytic":
        try:
            ctx = AnalyticContext.from_drive(drive, scheme.decay_rate(2, 1))
            ref = analytic_steady_state(ctx)
            comparison = {
                "max_abs_difference": float(np.max(np.abs(rho.matrix - ref.matrix))),
                "resonant_drive": drive.is_resonant,
            }
        except ValueError as exc:
            comparison = {"unavailable": str(exc)}

    out = _out_dir(args)
    i, j = np.indices(rho.matrix.shape).reshape(2, -1)
    with open(out / "steady_state.csv", "w", newline="") as fh:
        np.savetxt(
            fh,
            np.column_stack([i + 1, j + 1, rho.matrix.real.ravel(), rho.matrix.imag.ravel()]),
            fmt="%d,%d,%.12g,%.12g",
            newline="\r\n",
            header="i,j,re,im",
            comments="",
        )
    summary = {
        "method": method,
        "populations": [rho.population(k) for k in range(1, 7)],
        "rho21": rho.coherence(2, 1),
        "liouvillian_residual": residual,
        "analytic_comparison": comparison,
    }
    _dump_json(out / "summary.json", summary)
    _write_manifest(out, "steady-state", args, cfg, planned[:-1])
    pops = ", ".join(f"{rho.population(k):.6f}" for k in range(1, 7))
    print(f"steady-state ({method}): populations [{pops}]")
    print(f"rho21 = {rho.coherence(2, 1):.6e}")
    return 0


def cmd_dynamics(args):
    cfg, scheme = _load_inputs(args, "dynamics")
    planned = ["trajectory.csv", "summary.json", "manifest.json"]
    if args.dry_run:
        return _dry_run(args, "dynamics", cfg, planned)
    drive = _resolve_drive(cfg["drive"], scheme)
    dyn = cfg["dynamics"]
    if not 1 <= dyn["initial_level"] <= scheme.size:
        raise ConfigError(f"[dynamics] initial_level must be in 1..{scheme.size}")
    rho0 = basis_state(dyn["initial_level"], dim=scheme.size)
    generator = make_generator(drive, scheme)
    trajectory = evolve(
        rho0,
        generator,
        t_end=dyn["t_end"],
        dt=dyn["dt"],
        max_snapshots=dyn["max_snapshots"],
    )
    out = _out_dir(args)
    trajectory.write_csv(out / "trajectory.csv", all_coherences=dyn["all_coherences"])
    final = trajectory.final
    summary = {
        "t_end": dyn["t_end"],
        "dt": dyn["dt"],
        "snapshots": len(trajectory.times),
        "max_trace_drift": trajectory.max_trace_drift,
        "final_populations": [final.population(k) for k in range(1, 7)],
        "final_rho21": final.coherence(2, 1),
    }
    _dump_json(out / "summary.json", summary)
    _write_manifest(out, "dynamics", args, cfg, planned[:-1])
    print(
        f"dynamics: {len(trajectory.times)} snapshots to t={dyn['t_end']:g} us, "
        f"trace drift {trajectory.max_trace_drift:.3e}"
    )
    return 0


def cmd_fidelity_map(args):
    cfg, scheme = _load_inputs(args, "fidelity-map")
    planned = ["fidelity_map.csv", "summary.json", "manifest.json"]
    if args.dry_run:
        return _dry_run(args, "fidelity-map", cfg, planned)
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
        raise ValueError(f"fidelity-map: all {scan.fidelities.size} grid points failed")
    out = _out_dir(args)
    scan.write_csv(out / "fidelity_map.csv")
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
    _dump_json(out / "summary.json", summary)
    _write_manifest(out, "fidelity-map", args, cfg, planned[:-1])
    print(
        f"fidelity-map: {scan.fidelities.size} points on axes {axes}, "
        f"min {min_fid:.6f}, max {float(np.max(finite)):.6f}"
    )
    return 0


def cmd_optimize_lo(args):
    cfg, scheme = _load_inputs(args, "optimize-lo")
    planned = ["operating_point.json", "manifest.json"]
    if args.dry_run:
        return _dry_run(args, "optimize-lo", cfg, planned)
    drive = _resolve_drive(cfg["drive"], scheme)
    opt = cfg["optimize"]
    hw = opt["half_widths"]
    if not opt["search_hi"] >= opt["search_lo"]:
        raise ConfigError("[optimize] search_hi must be >= search_lo")
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
    out = _out_dir(args)
    payload = {
        "operating_point_rad_per_us": list(result.point),
        "operating_point_mhz": [v / TWO_PI for v in result.point],
        "average_fidelity": result.average_fidelity,
        "accepted_plateau_rad_per_us": [list(p) for p in result.accepted],
        "evaluated": result.evaluated,
        "failures": [list(p) for p in result.failures],
    }
    _dump_json(out / "operating_point.json", payload)
    _write_manifest(out, "optimize-lo", args, cfg, planned[:-1])
    mhz = ", ".join(f"{v / TWO_PI:.3f}" for v in result.point)
    print(
        f"optimize-lo: best point 2pi x [{mhz}] MHz, "
        f"average fidelity {result.average_fidelity:.8f}, "
        f"{len(result.accepted)} plateau candidates of {result.evaluated} evaluated"
    )
    return 0


def cmd_waveform(args):
    cfg, scheme = _load_inputs(args, "waveform")
    planned = ["waveform.csv", "demod.csv", "spectrogram.csv", "summary.json", "manifest.json"]
    if args.dry_run:
        return _dry_run(args, "waveform", cfg, planned)
    drive = _resolve_drive(cfg["drive"], scheme)
    cell = _resolve_cell(cfg["cell"])
    sig = cfg["signal"]
    wf_cfg = cfg["waveform"]

    amplitudes = sig["amplitudes"]
    if amplitudes is None:
        amplitudes = tuple(
            sig["modulation_index"] * drive.rf_rabi[n - 1] / _rabi_per_field(n, scheme)
            for n in range(1, 5)
        )
    spec = RfSignalSpec(
        amplitudes=amplitudes,
        offsets=sig["offsets"],
        phases=sig["phases"],
        bandwidths=sig["bandwidths"],
    )
    exact = synthesize_pd_waveform(
        spec, drive, cell, scheme, wf_cfg["duration"], wf_cfg["sample_rate"], mode="exact"
    )
    gains = gain_coefficients(drive, cell, scheme, model="analytic")
    linearized = synthesize_pd_waveform(
        spec,
        drive,
        cell,
        scheme,
        wf_cfg["duration"],
        wf_cfg["sample_rate"],
        mode="linearized",
        noise_std=wf_cfg["noise_std"],
        seed=args.seed,
        gains=gains,
    )
    # Everything that can fail runs before the first file is written.
    channel_summaries = []
    if wf_cfg["demodulate"]:
        active = spec.active_channels()
        demods = iq_demodulate(
            exact,
            [spec.offsets[n - 1] for n in active],
            [spec.bandwidths[n - 1] for n in active],
        )
        for n, ch in zip(active, demods):
            expected = gains[n] * spec.amplitudes[n - 1] * np.exp(1j * spec.phases[n - 1])
            measured = np.mean(ch.steady())
            channel_summaries.append(
                {
                    "channel": n,
                    "expected_envelope": complex(expected),
                    "measured_envelope": complex(measured),
                    "magnitude_ratio": float(np.abs(measured) / np.abs(expected)),
                }
            )
    summary = {
        "dc_level": exact.dc_level,
        "samples": len(exact.times),
        "sample_rate_mhz": wf_cfg["sample_rate"],
        "amplitudes_v_per_m": list(amplitudes),
        "gains_a_per_v_per_m": list(gains.gains),
        "linearization_rms_over_dc": linearization_discrepancy(exact, linearized),
        "channels": channel_summaries,
    }

    out = _out_dir(args)
    outputs = ["waveform.csv"]
    write_waveform_csv(out / "waveform.csv", exact, linearized)
    if wf_cfg["demodulate"]:
        with open(out / "demod.csv", "w", newline="") as fh:
            fh.write("channel,t,re,im\r\n")
            for n, ch in zip(active, demods):
                np.savetxt(
                    fh,
                    np.column_stack([ch.times, ch.baseband.real, ch.baseband.imag]),
                    fmt=f"{n},%.9g,%.12g,%.12g",
                    newline="\r\n",
                )
        outputs.append("demod.csv")
    if wf_cfg["spectrogram"]:
        write_spectrogram_csv(out / "spectrogram.csv", exact)
        outputs.append("spectrogram.csv")
    _dump_json(out / "summary.json", summary)
    outputs.append("summary.json")
    _write_manifest(out, "waveform", args, cfg, outputs)
    print(
        f"waveform: {len(exact.times)} samples, DC {exact.dc_level:.6e} A, "
        f"linearization residual {summary['linearization_rms_over_dc']:.3e} of DC"
    )
    return 0


def cmd_sumrate(args):
    cfg, scheme = _load_inputs(args, "sumrate")
    planned = ["rates.csv", "summary.json", "manifest.json"]
    if args.dry_run:
        return _dry_run(args, "sumrate", cfg, planned)
    sr = cfg["sumrate"]
    if sr["rabi"] is not None:
        rabi_set = sr["rabi"]
    elif sr["rabi_set"] == "set1":
        rabi_set = RABI_SET1
    elif sr["rabi_set"] == "set2":
        rabi_set = RABI_SET2
    else:
        raise ConfigError(f"[sumrate] rabi_set must be set1 or set2, got {sr['rabi_set']!r}")
    if not sr["power_max_dbm"] >= sr["power_min_dbm"]:
        raise ConfigError("[sumrate] power_max_dbm must be >= power_min_dbm")
    n_steps = int(round((sr["power_max_dbm"] - sr["power_min_dbm"]) / sr["power_step_db"]))
    powers = sr["power_min_dbm"] + sr["power_step_db"] * np.arange(n_steps + 1)
    bandwidths_hz = np.asarray(sr["bandwidths"]) * 1e6  # MHz -> Hz

    comparison = compare_architectures(
        scheme,
        rabi_set,
        powers,
        bandwidths_hz,
        omega_p=cfg["drive"]["omega_p"],
        omega_c=cfg["drive"]["omega_c"],
        cell=_resolve_cell(cfg["cell"]),
        temperature=sr["temperature"],
        beta=sr["beta"],
        power_sweep_bandwidth_hz=sr["power_sweep_bandwidth"] * 1e6,
        bandwidth_sweep_power_dbm=sr["bandwidth_sweep_power_dbm"],
    )
    out = _out_dir(args)
    comparison.write_csv(out / "rates.csv")
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
    _dump_json(out / "summary.json", summary)
    _write_manifest(out, "sumrate", args, cfg, planned[:-1])
    hyb = comparison.power_rates[Architecture.HYBRID][-1]
    crs = comparison.power_rates[Architecture.CRS][-1]
    prs = comparison.power_rates[Architecture.PRS][-1]
    print(
        f"sumrate at {powers[-1]:g} dBm, {sr['power_sweep_bandwidth']:g} MHz: "
        f"hybrid {hyb:.4g} bit/s, cascade {crs:.4g} bit/s, parallel {prs:.4g} bit/s"
    )
    return 0


def cmd_validate_scheme(args):
    if args.dry_run:
        print(json.dumps({"command": "validate-scheme", "dry_run": True}, indent=2))
        return 0
    scheme = load_scheme(args.scheme) if args.scheme else cesium_scheme()
    report = validate_scheme(scheme)
    print(report.summary())
    return 0 if report.valid else 1


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
    for name, func, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        sp.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemeFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
