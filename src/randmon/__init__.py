"""Residual randomness monitoring for linear control loops under sensor attack.

The package simulates a discrete LTI plant in closed loop with a steady-state
Kalman filter, watches per-sensor residual windows with nonparametric
randomness monitors alongside magnitude-based boundary detectors, synthesizes
scripted and worst-case stealthy sensor attacks, and predicts the resulting
asymptotic state deviation in closed form.
"""

from .attacks import (ATTACK_KINDS, AttackPlan, SaturationBudget, build_attack_policy,
                      saturation_budget, schedule_saturation)
from .config import ScenarioConfig, build_plant, config_hash, load_config, load_config_dict
from .detectors import BadDataDetector, CusumDetector, cusum_alarm_fraction, tune_bdd, tune_cusum
from .deviation import (DeviationPrediction, deviation_limit, run_attack_ensemble,
                        validate_against_simulation)
from .errors import RandmonError
from .gaussian import std_normal_cdf, std_normal_quantile, two_sided_p
from .harness import (RunArtifacts, budget_curve, emit_outputs, run_scenario, run_sweep,
                      score_residuals)
from .lti import (KalmanSteadyState, LtiPlant, NoiseSource, SimState, UgvParams, discretize_ugv,
                  lqr_gain, make_controller, simulate, solve_dare, spectral_radius, step,
                  zoh_discretize)
from .monitors import (AlarmRateTracker, SirOutcome, WindowBuffer, WsrOutcome, alarm_rate_scan,
                       runs_moments, signed_ranks, sir_bounds, sir_scan, sir_test, wsr_bounds,
                       wsr_moments, wsr_scan, wsr_test)

__version__ = "0.1.0"
