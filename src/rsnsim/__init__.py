"""rsnsim: random resistive-switch network simulation and capacity analysis."""

__version__ = "0.1.0"

from .analysis import (EnergyResult, EntropyResult, differential_readout,
                       energy, entropy)
from .device import (DEFAULT_PARAMS, ParamRanges, advance_state_batch,
                     check_params, conductance_batch, default_ranges,
                     hysteresis_batch, sample_device_params)
from .errors import (ConfigError, DataError, NumericalError, ParameterError,
                     RsnError)
from .harness import (HierarchyConfig, SweepConfig, SweepRecord, aggregate,
                      derive_seed, run_hierarchy, run_single, run_sweep)
from .solver import (LinearSystem, SimulationTrace, TraceBatch, assemble,
                     simulate, sine_waveform, solve_step)
from .topology import (BetaShape, Grid, NetworkTopology, beta_sample,
                       build_grid, distance_map, ensure_connected,
                       generate_network, has_path)

__all__ = [
    "__version__",
    "BetaShape", "ConfigError", "DataError", "DEFAULT_PARAMS",
    "EnergyResult", "EntropyResult", "Grid",
    "HierarchyConfig", "LinearSystem", "NetworkTopology", "NumericalError",
    "ParamRanges", "ParameterError", "RsnError", "SimulationTrace",
    "SweepConfig", "SweepRecord", "TraceBatch",
    "advance_state_batch", "aggregate", "assemble", "beta_sample",
    "build_grid", "check_params", "conductance_batch", "default_ranges",
    "derive_seed", "differential_readout", "distance_map", "energy",
    "ensure_connected", "entropy", "generate_network", "has_path",
    "hysteresis_batch", "run_hierarchy", "run_single", "run_sweep",
    "sample_device_params", "simulate", "sine_waveform", "solve_step",
]
