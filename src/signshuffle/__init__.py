"""Sign-based finite-sum optimization under random reshuffling.

Centralized sign methods with optional anchoring and momentum, their
multi-worker counterparts with exact communication accounting, classical
baselines, runtime checks of the underlying bounds, and a sweep harness.
"""

from .distributed import (dist_signrvm_run, dist_signrvr_run,
                          make_rosenbrock_workers)
from .harness import (ALGORITHMS, Cell, ConfigError, ExperimentConfig,
                      apply_scale, build_config, grid_cells, main, preset,
                      run_cell, run_experiment, select_best, validate_config)
from .metrics import (CSV_HEADER, ProcessedSeries, Trace, TraceRecord, csv_text,
                      emit_csv, l1_norm, l2_norm, log10_series, moving_average,
                      process_series, read_trace_csv)
from .optimizers import (Aggregate, CommLedger, Method, Permutation,
                         SignRVMState, SignRVRState, StepDetail,
                         bias_correct, majority_vote, run, shuffle, sign,
                         sign_average, signrvm_epoch, signrvr_epoch)
from .problems import (FiniteSumProblem, LogisticProblem, RosenbrockSum,
                       estimate_coordinate_smoothness, finite_diff_check,
                       load_logistic_csv, make_rosenbrock)
from .schedules import Constant, InverseSqrt, Schedule
from .theory import (LemmaReport, check_descent, check_sign_markov,
                     check_vr_bound, iterate_box, markov_suite)

__version__ = "0.1.0"
