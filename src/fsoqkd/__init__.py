"""Key-rate bounds for a free-space optical link with a movable, finite-
aperture eavesdropper: Gaussian-beam diffraction around the receiver,
wiretap-channel parameters, and continuous/discrete protocol rates."""

from .beams import BeamParams, PlaneField, encircled_power, field_amplitude, plane_params, total_power
from .channel import (ChannelConsistencyError, ChannelParams, Geometry,
                      Scenario, channel_params, default_noise,
                      thermal_occupation)
from .diffraction import (CoverageError, DiskSpec, FieldProfile, SourceAnnulus,
                          arago_relative_amplitude, deserialize_profile,
                          disk_power, fresnel_field_bessel, fresnel_valid,
                          propagate_profile, rs_field_direct, serialize_profile)
from .gaussian import GaussianState, PhysicalityError, symplectic_eigenvalues
from .quadrature import QuadratureError
from .rates import (MuOptimum, RateInputs, RateReport, eve_spectra, g_entropy,
                    lb_direct, lb_reverse, optimize_mu, rate_report,
                    skr_cv_ccq, skr_ds_bb84, upper_bound)
from .sweeps import (AnalyticPredictor, EveDistanceResult, ProfileCache,
                     SweepRow, SweepSpec, analytic_f1_f2,
                     arago_prediction_curve, optimal_eve_distance,
                     optimize_eve_offset, run_sweep)

__version__ = "0.1.0"
