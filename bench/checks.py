"""Output checks for the benchmark workloads.

``check_command`` reads one command's output tree and returns a list of
problems (empty when the outputs hold their invariants); a command with a
problem counts as a failed operation. ``spot_check`` recomputes a few
seeded grid points and the optimizer's winning objective through the
per-point library path and compares them with what the CLI wrote.

The checks are invariants, not the acceptance targets: no bound here
encodes a criterion the current physics is known to miss.
"""

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

import workloads

FIDELITY_SLACK = 1e-9      # Uhlmann fidelity lies in [0, 1] up to round-off
TRACE_DRIFT_MAX = 1e-9
POPULATION_SLACK = 1e-9    # CSV values carry 12 significant digits
RESIDUAL_MAX = 1e-8        # ||L vec(rho)|| of a null-space steady state
MAGNITUDE_RATIO_SLACK = 0.03  # the demodulation bound of the CLI tests
SPOT_TOLERANCE = 1e-9      # CSV rounding of inputs and outputs sits near 1e-12
SPOT_POINTS = 3            # per fidelity map


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _fidelity_ok(value):
    return 0.0 <= value <= 1.0 + FIDELITY_SLACK


def failed_points(workload, out_dirs):
    """(failed, evaluated) grid points and optimizer candidates of one iteration."""
    failed = evaluated = 0
    for label, command, _ in workloads.COMMANDS[workload]:
        out = Path(out_dirs[label])
        if command == "fidelity-map":
            summary = _json(out / "summary.json")
            failed += summary["failures"]
            evaluated += summary["points"]
        elif command == "optimize-lo":
            payload = _json(out / "operating_point.json")
            failed += len(payload["failures"])
            evaluated += payload["evaluated"]
    return failed, evaluated


def _check_manifest(out, problems):
    manifest = _json(out / "manifest.json")
    for name in manifest["outputs"]:
        if not (out / name).is_file():
            problems.append(f"manifest lists missing output {name}")


def _check_map(out, problems):
    summary = _json(out / "summary.json")
    _, rows = _rows(out / "fidelity_map.csv")
    size = workloads.MAP_RESOLUTION**2
    if summary["points"] != size or len(rows) != size:
        problems.append(f"map has {len(rows)} rows, summary {summary['points']}, want {size}")
    nans = 0
    for row in rows:
        if row[-1] == "nan":
            nans += 1
        elif not _fidelity_ok(float(row[-1])):
            problems.append(f"fidelity {row[-1]} outside [0, 1]")
            break
    if nans != summary["failures"]:
        problems.append(f"map has {nans} NaN points, summary reports {summary['failures']}")
    for key in ("min_fidelity", "max_fidelity"):
        if not _fidelity_ok(summary[key]):
            problems.append(f"{key} {summary[key]} outside [0, 1]")


def _check_optimize(out, problems):
    payload = _json(out / "operating_point.json")
    want = workloads.OPT_CANDIDATES
    if payload["evaluated"] != want:
        problems.append(f"optimizer evaluated {payload['evaluated']} candidates, want {want}")
    if not _fidelity_ok(payload["average_fidelity"]):
        problems.append(f"average fidelity {payload['average_fidelity']} outside [0, 1]")
    for _, value in payload["accepted_plateau_rad_per_us"]:
        if not _fidelity_ok(value):
            problems.append(f"plateau fidelity {value} outside [0, 1]")


def _population_sum_ok(pops):
    return abs(sum(pops) - 1.0) <= POPULATION_SLACK and all(
        -POPULATION_SLACK <= p <= 1.0 + POPULATION_SLACK for p in pops
    )


def _check_dynamics(out, problems, snapshots):
    summary = _json(out / "summary.json")
    if summary["snapshots"] != snapshots:
        problems.append(f"{summary['snapshots']} snapshots, want {snapshots}")
    if not summary["max_trace_drift"] <= TRACE_DRIFT_MAX:
        problems.append(f"max_trace_drift {summary['max_trace_drift']:.3e} > {TRACE_DRIFT_MAX}")
    if not _population_sum_ok(summary["final_populations"]):
        problems.append("final populations do not sum to 1")
    header, rows = _rows(out / "trajectory.csv")
    if len(rows) != snapshots:
        problems.append(f"trajectory.csv has {len(rows)} rows, want {snapshots}")
    pop_cols = [k for k, name in enumerate(header) if name in {f"rho{n}{n}" for n in range(1, 7)}]
    for row in rows:
        if not _population_sum_ok([float(row[k]) for k in pop_cols]):
            problems.append(f"populations at t={row[0]} do not sum to 1")
            break


def _check_steady(out, problems):
    summary = _json(out / "summary.json")
    if not _population_sum_ok(summary["populations"]):
        problems.append("steady-state populations do not sum to 1")
    if not summary["liouvillian_residual"] <= RESIDUAL_MAX:
        problems.append(f"Liouvillian residual {summary['liouvillian_residual']:.3e}")


def _check_waveform(out, problems):
    summary = _json(out / "summary.json")
    samples = int(round(workloads.WAVEFORM_DURATION_US * workloads.WAVEFORM_RATE_MHZ))
    if summary["samples"] != samples:
        problems.append(f"{summary['samples']} samples, want {samples}")
    if not (summary["dc_level"] > 0 and math.isfinite(summary["linearization_rms_over_dc"])):
        problems.append("non-positive DC level or non-finite linearization residual")
    if len(summary["channels"]) != 4:
        problems.append(f"{len(summary['channels'])} demodulated channels, want 4")
    for ch in summary["channels"]:
        if not abs(ch["magnitude_ratio"] - 1.0) < MAGNITUDE_RATIO_SLACK:
            problems.append(
                f"channel {ch['channel']} magnitude ratio {ch['magnitude_ratio']:.4f}"
            )


def _rate_ok(value):
    return math.isfinite(value) and value >= 0.0


def _check_sumrate(out, problems):
    _, rows = _rows(out / "rates.csv")
    powers = int(round(40.0 / workloads.POWER_STEP_DB)) + 1
    want = 3 * (powers + workloads.SUMRATE_BANDWIDTHS)
    if len(rows) != want:
        problems.append(f"rates.csv has {len(rows)} rows, want {want}")
    bad = [row for row in rows if not _rate_ok(float(row[-1]))]
    if bad:
        problems.append(f"{len(bad)} rates are negative or not finite, first {bad[0]}")
    for arch, value in _json(out / "summary.json")["rate_at_max_power"].items():
        if not _rate_ok(value):
            problems.append(f"{arch} rate at max power {value}")


def check_command(command, label, out, code):
    """Problems with one command's run; empty when it succeeded and its outputs hold."""
    if code != 0:
        return [f"exit code {code}"]
    if command == "validate-scheme":
        return []
    out = Path(out)
    problems = []
    try:
        _check_manifest(out, problems)
        if command == "fidelity-map":
            _check_map(out, problems)
        elif command == "optimize-lo":
            _check_optimize(out, problems)
        elif command == "dynamics":
            snapshots = workloads.CONST_SNAPSHOTS if label == "dyn-const" else workloads.TD_SNAPSHOTS
            _check_dynamics(out, problems, snapshots)
        elif command == "steady-state":
            _check_steady(out, problems)
        elif command == "waveform":
            _check_waveform(out, problems)
        elif command == "sumrate":
            _check_sumrate(out, problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


# ----------------------------------------------------------------------
# Spot checks through the per-point library path


def _drive(params, scheme, lib, rf_rabi):
    detunings = params["rf_detunings"]
    if detunings is None:
        detunings = tuple(scheme.transition(n).detuning for n in range(1, 5))
    return lib.DriveConfig(
        omega_p=params["omega_p"],
        omega_c=params["omega_c"],
        rf_rabi=rf_rabi,
        delta_p=params["delta_p"],
        delta_c=params["delta_c"],
        rf_detunings=detunings,
        rf_phases=params["rf_phases"],
    )


def _point_fidelity(lib, drive, scheme, method, t_end, dt):
    numerical = lib.steady_state_numerical(drive, scheme, method=method, t_end=t_end, dt=dt)
    ctx = lib.AnalyticContext.from_drive(drive, scheme.decay_rate(2, 1))
    return lib.fidelity(numerical, lib.analytic_steady_state(ctx))


def _spot_map(lib, scheme, out, rng):
    params = _json(out / "manifest.json")["parameters"]
    scan = params["scan"]
    _, rows = _rows(out / "fidelity_map.csv")
    problems = []
    for k in rng.sample(range(len(rows)), SPOT_POINTS):
        row = rows[k]
        drive = _drive(params["drive"], scheme, lib, [float(v) for v in row[:4]])
        try:
            value = _point_fidelity(lib, drive, scheme, scan["method"], scan["t_end"], scan["dt"])
        except (ValueError, np.linalg.LinAlgError):
            value = float("nan")
        written = float(row[-1])
        if math.isnan(value) != math.isnan(written) or abs(value - written) > SPOT_TOLERANCE:
            problems.append(f"{out.name} row {k}: per-point {value!r}, scan wrote {row[-1]}")
    return problems


def _spot_optimize(lib, scheme, out):
    params = _json(out / "manifest.json")["parameters"]
    opt = params["optimize"]
    payload = _json(out / "operating_point.json")
    point = payload["operating_point_rad_per_us"]
    half_widths = [min(h, c) for h, c in zip(opt["half_widths"], point)]
    region = lib.PerturbationRegion(
        center=point, half_widths=half_widths, samples_per_axis=opt["samples_per_axis"]
    )
    base = _drive(params["drive"], scheme, lib, params["drive"]["rf_rabi"])
    value = lib.average_fidelity(
        region, base, scheme, steady_state_method=opt["method"], t_end=opt["t_end"], dt=opt["dt"]
    )
    if abs(value - payload["average_fidelity"]) > SPOT_TOLERANCE:
        return [f"optimizer objective {payload['average_fidelity']!r}, per-point {value!r}"]
    return []


def spot_check(workload, seed, out_dirs, scheme_path):
    """Recompute seeded landscape points one by one; returns a list of problems."""
    if workload != "landscape":
        return []
    import rydberg_receiver as lib

    scheme = lib.load_scheme(scheme_path)
    rng = random.Random(f"spot:{workload}:{seed}")
    problems = []
    for label in ("map-evolve", "map-null"):
        problems += _spot_map(lib, scheme, Path(out_dirs[label]), rng)
    problems += _spot_optimize(lib, scheme, Path(out_dirs["optimize"]))
    return problems
