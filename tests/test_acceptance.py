"""Acceptance gate: one pass/fail line per top-level behavior contract.

Every test computes its metrics first, records a single ``[PASS]``/``[FAIL]``
line (echoed after the run by the terminal-summary hook in conftest, so it
is visible under any capture mode), and only then asserts. Failing lines
are genuine open defects of the stated contract, not test bugs; the
recorded diagnostics carry the measured values and, where it matters, the
converged-limit counterparts that localize the cause.
"""

import time

import numpy as np
import pytest

import rydberg_receiver as rr
from rydberg_receiver.analytic import analytic_steady_state, rho21_from_amplitudes
from rydberg_receiver.receiver import (
    DEFAULT_CELL,
    RfSignalSpec,
    iq_demodulate,
    linearization_discrepancy,
    signal_amplitudes,
    synthesize_pd_waveform,
)
from rydberg_receiver.scheme import Architecture

TWO_PI = 2.0 * np.pi
FOUR_OFFSETS = (TWO_PI * 0.2, TWO_PI * 0.5, TWO_PI * 0.8, TWO_PI * 1.1)


VERDICTS = []


def _report(num, ok, detail):
    """Record one verdict line per criterion for the end-of-run summary."""
    VERDICTS.append((num, f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"))
    return detail


def _four_tone_spec(lo, scheme, modulation_index):
    amps = signal_amplitudes(lo, scheme, modulation_index)
    return RfSignalSpec(amplitudes=amps, offsets=FOUR_OFFSETS)


def test_criterion_01_closed_form_oracle_agreement(op_drive, scheme):
    t0 = time.perf_counter()
    analytic = analytic_steady_state(op_drive, scheme)
    evolved = rr.steady_state_numerical(op_drive, scheme, method="evolve", t_end=10.0)
    f_10us = rr.fidelity(evolved, analytic)
    converged = rr.steady_state_numerical(op_drive, scheme, method="null_space")
    f_converged = rr.fidelity(converged, analytic)
    elapsed = time.perf_counter() - t0
    ok = f_10us >= 0.9999 and elapsed < 60.0
    detail = _report(
        1,
        ok,
        f"fidelity(analytic, full-decay evolved@10us) = {f_10us:.7f} (need >= 0.9999); "
        f"converged null-space fidelity = {f_converged:.7f}; runtime {elapsed:.1f} s < 60 s",
    )
    assert ok, detail


def test_criterion_02_reduced_model_exactness(reduced_scheme):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260802)
    worst = 0.0
    accepted = 0
    while accepted < 50:
        rf = rng.uniform(0.0, TWO_PI * 8.0, 4)
        if rf[1] <= TWO_PI * 0.1 or rf[2] <= TWO_PI * 0.1:
            continue
        if abs(rr.zeta(rf)) <= 0.1 * (rf[0] * rf[2] + rf[1] * rf[3]):
            continue
        drive = rr.DriveConfig(
            omega_p=rng.uniform(TWO_PI * 0.5, TWO_PI * 8.0),
            omega_c=rng.uniform(TWO_PI * 0.2, TWO_PI * 4.0),
            rf_rabi=tuple(rf),
        )
        numerical = rr.steady_state_numerical(drive, reduced_scheme, method="null_space")
        analytic = analytic_steady_state(drive, reduced_scheme)
        worst = max(worst, float(np.max(np.abs(numerical.matrix - analytic.matrix))))
        accepted += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 300.0
    detail = _report(
        2,
        ok,
        f"null-space vs closed form, 50 points away from the balanced loop: "
        f"max elementwise gap {worst:.2e} (need <= 1e-8); runtime {elapsed:.1f} s < 300 s",
    )
    assert ok, detail


def test_criterion_03_trace_sum_identity(probe_decay_scheme):
    rng = np.random.default_rng(20260803)
    worst = 0.0
    for _ in range(100):
        drive = rr.DriveConfig(
            omega_p=rng.uniform(0.5, 60.0),
            omega_c=rng.uniform(0.1, 60.0),
            rf_rabi=tuple(rng.uniform(0.05, 60.0, 4)),
        )
        rho = analytic_steady_state(drive, probe_decay_scheme(rng.uniform(0.5, 40.0)))
        worst = max(worst, abs(float(np.trace(rho.matrix).real) - 1.0))
    ok = worst <= 1e-14
    detail = _report(
        3,
        ok,
        f"closed-form population sum: max |trace - 1| = {worst:.2e} over 100 random "
        f"points ({worst / np.finfo(float).eps:.1f} eps; need <= 1e-14)",
    )
    assert ok, detail


def test_criterion_04_zeta_suppression_exact():
    # integer-product construction Om1=pq, Om2=pr, Om3=rs, Om4=qs makes
    # Om1*Om3 == Om2*Om4 exact in floating point, so rho21 must be 0 + 0j
    rng = np.random.default_rng(20260804)
    nonzero = 0
    for _ in range(1000):
        p, q, r, s = (int(v) for v in rng.integers(1, 50, 4))
        rf = (float(p * q), float(p * r), float(r * s), float(q * s))
        omega_p, omega_c = rng.uniform(0.5, 40.0), rng.uniform(0.1, 40.0)
        if rho21_from_amplitudes(omega_p, omega_c, rf, rng.uniform(0.5, 40.0)) != 0:
            nonzero += 1
    ok = nonzero == 0
    detail = _report(
        4,
        ok,
        f"probe coherence on the balanced manifold Om1*Om3 = Om2*Om4: "
        f"{1000 - nonzero}/1000 constrained random points give rho21 == 0 exactly",
    )
    assert ok, detail


def test_criterion_05_convergence_by_10us(op_drive, scheme):
    analytic = analytic_steady_state(op_drive, scheme)
    target = analytic.matrix.diagonal().real
    evolved = rr.steady_state_numerical(op_drive, scheme, method="evolve", t_end=10.0)
    gap_10us = float(np.max(np.abs(evolved.matrix.diagonal().real - target)))
    converged = rr.steady_state_numerical(op_drive, scheme, method="null_space")
    gap_converged = float(np.max(np.abs(converged.matrix.diagonal().real - target)))
    ok = gap_10us <= 1e-4
    detail = _report(
        5,
        ok,
        f"populations at t=10us vs closed form: max gap {gap_10us:.2e} (need <= 1e-4); "
        f"converged-limit floor {gap_converged:.2e} (full decay set shifts the steady "
        f"state itself, so the target is unreachable at any horizon)",
    )
    assert ok, detail


def test_criterion_06_fidelity_landscape_structure(scheme):
    t0 = time.perf_counter()
    fixed = rr.DriveConfig(
        omega_p=TWO_PI * 5.7,
        omega_c=TWO_PI * 0.97,
        rf_rabi=(TWO_PI * 5.0, 0.0, 0.0, TWO_PI * 5.0),
    )
    scan = rr.fidelity_scan(
        fixed, (2, 3), scheme, resolution=21, steady_state_method="evolve", t_end=10.0
    )
    elapsed = time.perf_counter() - t0
    vals2, vals3 = scan.axis_values
    spacing = vals2[1] - vals2[0]

    # fixed Om1 = Om4 makes the balanced curve Om2*Om4 = Om1*Om3 the diagonal
    i, j = scan.min_point()
    min_dist = abs(vals2[i] - vals3[j]) / np.sqrt(2.0)

    plateau_total = 0
    plateau_bad = 0
    worst = 1.0
    worst_cell = (0.0, 0.0)
    for a, x in enumerate(vals2):
        for b, y in enumerate(vals3):
            if abs(x - y) / np.sqrt(2.0) > TWO_PI and x > TWO_PI and y > TWO_PI:
                plateau_total += 1
                f = scan.fidelities[a, b]
                if not f > 0.99:
                    plateau_bad += 1
                if f < worst:
                    worst, worst_cell = f, (x / TWO_PI, y / TWO_PI)

    ok = min_dist <= spacing and plateau_bad == 0 and elapsed < 1800.0
    detail = _report(
        6,
        ok,
        f"21x21 panel: min at (Om2,Om3) = ({vals2[i] / TWO_PI:.1f},{vals3[j] / TWO_PI:.1f})"
        f" 2pi*MHz, {min_dist / spacing:.2f} cells from the balanced curve (need <= 1); "
        f"plateau > 0.99 fails at {plateau_bad}/{plateau_total} cells, worst "
        f"{worst:.4f} at ({worst_cell[0]:.1f},{worst_cell[1]:.1f}) 2pi*MHz "
        f"(slow relaxation modes leave the 10 us scan state transient there; the "
        f"converged-protocol floor is 0.98333, so the clause fails either way); "
        f"runtime {elapsed:.1f} s < 1800 s",
    )
    assert ok, detail


def test_criterion_07_operating_point_plateau(op_drive, scheme):
    region = rr.PerturbationRegion(
        center=op_drive.rf_rabi, half_widths=(TWO_PI * 2e-3,) * 4, samples_per_axis=3
    )
    avg = rr.average_fidelity(region, op_drive, scheme)
    ok = avg >= 0.99999
    detail = _report(
        7,
        ok,
        f"average converged fidelity over the +-2pi*2 kHz drift box at the operating "
        f"point = {avg:.7f} (need >= 0.99999)",
    )
    assert ok, detail


def test_criterion_08_linearization_validity(op_drive, scheme):
    kw = dict(duration=50.0, sample_rate=16.0)
    discrepancies = []
    for m, max_ratio in ((5e-3, 0.01), (1e-2, 0.021)):
        spec = _four_tone_spec(op_drive, scheme, m)
        wave = synthesize_pd_waveform(
            spec, op_drive, DEFAULT_CELL, scheme, max_ratio=max_ratio, **kw
        )
        discrepancies.append(linearization_discrepancy(wave))
    base, doubled = discrepancies
    ratio = doubled / base
    ok = base <= 0.02 and 3.0 <= ratio <= 5.0
    detail = _report(
        8,
        ok,
        f"four-tone exact vs first-order detector waveform: relative RMS discrepancy "
        f"{base:.2e} (need <= 0.02); doubling the amplitudes scales it by {ratio:.2f} "
        f"(need within [3, 5])",
    )
    assert ok, detail


def test_criterion_09_demodulation_separability(op_drive, scheme):
    kw = dict(duration=200.0, sample_rate=16.0)
    bands = (0.1, 0.1, 0.1, 0.1)

    # envelope accuracy with all four tones on the air at once
    spec = _four_tone_spec(op_drive, scheme, 5e-3)
    wave = synthesize_pd_waveform(spec, op_drive, DEFAULT_CELL, scheme, **kw)
    channels = iq_demodulate(wave, FOUR_OFFSETS, bands)
    mag_err = max(
        abs(ch.envelope_magnitude() / (abs(wave.gains[n]) * spec.amplitudes[n - 1]) - 1.0)
        for n, ch in zip(range(1, 5), channels)
    )

    # isolation with a single active tone
    amps = [0.0, 0.0, 0.0, 0.0]
    amps[1] = signal_amplitudes(op_drive, scheme, 5e-3)[1]
    solo = RfSignalSpec(amplitudes=tuple(amps), offsets=FOUR_OFFSETS)
    solo_channels = iq_demodulate(
        synthesize_pd_waveform(solo, op_drive, DEFAULT_CELL, scheme, **kw), FOUR_OFFSETS, bands
    )
    active_rms = solo_channels[1].rms()
    leak_rms = max(solo_channels[k].rms() for k in (0, 2, 3))
    isolation_db = 20.0 * np.log10(active_rms / leak_rms)

    ok = isolation_db >= 40.0 and mag_err <= 0.03
    detail = _report(
        9,
        ok,
        f"recovered baseband channels: isolation {isolation_db:.1f} dB (need >= 40); "
        f"worst envelope magnitude error {mag_err:.4f} (need <= 0.03)",
    )
    assert ok, detail


def test_criterion_10_ergodic_rate_closed_form():
    worst = 0.0
    for gamma_bar in (0.1, 1.0, 10.0, 100.0):
        channel = rr.ChannelModel(
            gain=1.0, transmit_power=gamma_bar, bandwidth=1.0, rf_frequency=1.0, sigma_i_sq=1.0
        )
        closed = rr.ergodic_sum_rate([channel])
        sampled = rr.monte_carlo_sum_rate([channel], 10**6, seed=20260814)
        worst = max(worst, abs(sampled - closed) / closed)
    unit = rr.ChannelModel(
        gain=1.0, transmit_power=1.0, bandwidth=1.0, rf_frequency=1.0, sigma_i_sq=1.0
    )
    unit_rate = rr.ergodic_sum_rate([unit])
    unit_err = abs(unit_rate - 0.86034)
    ok = worst <= 5e-3 and unit_err <= 1e-4
    detail = _report(
        10,
        ok,
        f"seeded 1e6-sample Monte Carlo vs closed-form ergodic rate: worst relative "
        f"gap {worst:.2e} over mean SNR {{0.1, 1, 10, 100}} (need <= 5e-3); unit-case "
        f"rate {unit_rate:.6f} vs 0.86034 (gap {unit_err:.1e}, need <= 1e-4)",
    )
    assert ok, detail


def test_criterion_11_architecture_ordering_and_ratios(scheme):
    comparison = rr.compare_architectures(
        scheme,
        rr.RABI_SET2,
        np.arange(-30.0, 10.0 + 1e-9, 2.0),
        np.logspace(4.0, 6.0, 21),
        omega_p=TWO_PI * 5.7,
        omega_c=TWO_PI * 0.97,
    )
    ordering = True
    for rates in (comparison.power_rates, comparison.bandwidth_rates):
        hybrid = rates[Architecture.HYBRID]
        crs = rates[Architecture.CRS]
        prs = rates[Architecture.PRS]
        ordering = ordering and bool(np.all(hybrid >= crs) and np.all(crs >= prs))
    h = comparison.rate_at_power(Architecture.HYBRID, -10.0)
    over_crs = h / comparison.rate_at_power(Architecture.CRS, -10.0)
    over_prs = h / comparison.rate_at_power(Architecture.PRS, -10.0)
    ok = ordering and 1.05 <= over_crs <= 1.25 and 1.3 <= over_prs <= 1.7
    detail = _report(
        11,
        ok,
        f"hybrid >= cascade >= parallel pointwise over both sweeps: {ordering}; at "
        f"-10 dBm / 100 kHz hybrid/cascade = {over_crs:.4f} (need [1.05, 1.25]), "
        f"hybrid/parallel = {over_prs:.4f} (need [1.3, 1.7]; blackbody noise crushes "
        f"the weak parallel-only gains, inflating the ratio)",
    )
    assert ok, detail


def test_criterion_12_channel_count_arithmetic():
    counts_6 = tuple(rr.channel_count(a, 6) for a in (Architecture.HYBRID, Architecture.CRS, Architecture.PRS))
    counts_8 = tuple(rr.channel_count(a, 8) for a in (Architecture.HYBRID, Architecture.CRS, Architecture.PRS))
    try:
        rr.channel_count(Architecture.HYBRID, 5)
        rejected = False
    except ValueError:
        rejected = True
    ok = counts_6 == (4, 3, 2) and counts_8 == (7, 5, 3) and rejected
    detail = _report(
        12,
        ok,
        f"(hybrid, cascade, parallel) channels: K=6 -> {counts_6} (need (4, 3, 2)), "
        f"K=8 -> {counts_8} (need (7, 5, 3)); hybrid at K=5 rejected: {rejected}",
    )
    assert ok, detail
