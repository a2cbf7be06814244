"""Key-rate bounds for a free-space optical link with a movable, finite-
aperture eavesdropper: Gaussian-beam diffraction around the receiver,
wiretap-channel parameters, and continuous/discrete protocol rates."""

import os
import sys
import warnings

# One BLAS thread.  fsoqkd makes no BLAS call, but OpenBLAS starts its worker
# threads when numpy loads it, and that start-up costs CPU in every process:
# on two cores `import numpy` took 0.22 s of CPU pinned against 0.30 s at two
# threads, and a rate_opt_sweep run 0.40 s against 0.51 s.  Set before any
# submodule loads numpy; exporting any of these variables keeps the user's
# choice for all three.  BLAS reads them when numpy loads it, so a numpy
# imported earlier keeps its thread pool.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    if "numpy" in sys.modules:
        warnings.warn("numpy was imported before fsoqkd, so BLAS keeps its own "
                      "thread pool; import fsoqkd first or export "
                      "OPENBLAS_NUM_THREADS=1", RuntimeWarning, stacklevel=2)
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .beams import BeamParams, PlaneField, encircled_power, field_amplitude, plane_params, total_power
from .channel import (ChannelConsistencyError, ChannelParams, Geometry,
                      Scenario, channel_params, default_noise,
                      thermal_occupation)
from .diffraction import (CoverageError, DiskSpec, FieldProfile,
                          QuadratureError, SourceAnnulus,
                          arago_relative_amplitude, deserialize_profile,
                          disk_power, profile_key, propagate_profile,
                          serialize_profile)
from .rates import (MuOptimum, RateInputs, RateReport, eve_spectra, g_entropy,
                    lb_direct, lb_reverse, optimize_mu, rate_report,
                    skr_cv_ccq, skr_ds_bb84, upper_bound)
from .sweeps import (ProfileCache, SweepRow, SweepSpec, arago_prediction_curve,
                     optimal_eve_distance, optimal_eve_offsets,
                     optimize_eve_offset, run_sweep)

__version__ = "0.1.0"
