"""Six-level hybrid Rydberg atomic RF receiver toolkit.

Simulates the driven-dissipative dynamics of a cesium six-level ladder
with a closed four-channel RF loop, validates the numerical steady state
against a closed-form reduced model, optimizes the local-oscillator
operating point by steady-state fidelity, and carries the result through
the RF-to-optical-to-electrical receiver chain into multi-channel link
rates. ``__all__`` below is the one declaration of the public API.
"""

__version__ = "0.1.0"

from .analytic import (
    AnalyticContext,  # not public: the argument of bench/checks.py's one-argument call
    analytic_steady_state,
    rho21_from_amplitudes,
    zeta,
)
from .comms import (
    ARCH_CHANNELS,
    RABI_SET1,
    RABI_SET2,
    ChannelModel,
    EnvironmentParams,
    blackbody_psd,
    compare_architectures,
    dbm_to_watts,
    ergodic_sum_rate,
    monte_carlo_sum_rate,
    noise_variances,
    snr,
)
from .config import ConfigError
from .fidelity import (
    FidelityScan,
    OperatingPointResult,
    PerturbationRegion,
    average_fidelity,
    fidelity,
    fidelity_scan,
    optimize_operating_point,
)
from .lindblad import (
    DensityMatrix,
    DriveConfig,
    Liouvillian,
    TimeDependentLiouvillian,
    basis_state,
    build_hamiltonian,
    evolve,
    ground_state,
    make_generator,
    steady_state,
    steady_state_numerical,
    taylor_propagator,
    vectorize,
)
from .numerics import (
    exp_e1_scaled,
    null_space,
    psd_sqrt,
)
from .receiver import (
    DEFAULT_CELL,
    EA0,
    GainVector,
    RfSignalSpec,
    VaporCellParams,
    gain_coefficients,
    iq_demodulate,
    linearization_discrepancy,
    photodetector_output,
    signal_amplitudes,
    spectrogram_data,
    synthesize_pd_waveform,
    validate_heterodyne,
    write_spectrogram_csv,
    write_waveform_csv,
)
from .scheme import (
    Architecture,
    Level,
    LevelScheme,
    RfTransition,
    cesium_scheme,
    channel_count,
    load_scheme,
    parse_scheme,
    validate_scheme,
)

__all__ = [
    "__version__",
    # numerics
    "exp_e1_scaled",
    "null_space",
    "psd_sqrt",
    # config and scheme files
    "ConfigError",
    # scheme
    "Architecture",
    "Level",
    "LevelScheme",
    "RfTransition",
    "cesium_scheme",
    "channel_count",
    "load_scheme",
    "parse_scheme",
    "validate_scheme",
    # lindblad
    "DensityMatrix",
    "DriveConfig",
    "Liouvillian",
    "TimeDependentLiouvillian",
    "basis_state",
    "build_hamiltonian",
    "evolve",
    "ground_state",
    "make_generator",
    "steady_state",
    "steady_state_numerical",
    "taylor_propagator",
    "vectorize",
    # analytic
    "analytic_steady_state",
    "rho21_from_amplitudes",
    "zeta",
    # fidelity
    "FidelityScan",
    "OperatingPointResult",
    "PerturbationRegion",
    "average_fidelity",
    "fidelity",
    "fidelity_scan",
    "optimize_operating_point",
    # receiver
    "DEFAULT_CELL",
    "EA0",
    "GainVector",
    "RfSignalSpec",
    "VaporCellParams",
    "gain_coefficients",
    "iq_demodulate",
    "linearization_discrepancy",
    "photodetector_output",
    "signal_amplitudes",
    "spectrogram_data",
    "synthesize_pd_waveform",
    "validate_heterodyne",
    "write_spectrogram_csv",
    "write_waveform_csv",
    # comms
    "ARCH_CHANNELS",
    "RABI_SET1",
    "RABI_SET2",
    "ChannelModel",
    "EnvironmentParams",
    "blackbody_psd",
    "compare_architectures",
    "dbm_to_watts",
    "ergodic_sum_rate",
    "monte_carlo_sum_rate",
    "noise_variances",
    "snr",
]
