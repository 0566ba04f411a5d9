"""Frequency-dependent reflection models and configuration strategies for
beyond-diagonal reconfigurable surfaces, plus a multi-band MIMO Monte Carlo
harness."""

import os

# numpy's bundled OpenBLAS, the only BLAS bdris loads, reads this once when
# numpy is first imported; its idle threads busy-wait, so on small hosts one
# thread per process runs faster.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import (AVAILABLE, BLOCKED, ChannelSet, NetworkScenario, PowerConfig,
                      effective_from_rows, path_gain, sample_channels, stream_rng,
                      zf_precoder)
from .circuit import (CapacitancePlan, CircuitParams, Codebook, RisTopology, build_codebook,
                      inter_impedance, scattering_from_capacitances, self_impedance)
from .matrixkit import leading_right_singular_vector, vech_indices
from .metrics import (AggregateResult, ResultRow, aggregate, evaluate_received_powers,
                      sum_spectral_efficiency_outdated)
from .optimizer import (GroupAssignment, ObjectiveWeights, relaxed_block_branches,
                        snap_to_codebook, stack_fc, stack_gc)
from .experiments import TrialState, solve_trials

__version__ = "0.1.0"
