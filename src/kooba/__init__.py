"""Polynomial-memory state-space forecasting with a benchmark harness.

Pipeline: stream a signal window into Legendre coefficients (hippo), rescale
them into a companion-form state space (koopman), fit control weights by
gradient descent and roll out forecasts (model), over generated or CSV
datasets (data), driven by the kooba CLI (cli).
"""

from .errors import (ConfigError, DegenerateCoefficientsError, InputError,
                     KoobaError, NumericalError, TrainingAbortedError)
from .legendre import (gauss_legendre_rule, legendre_eval, legendre_values,
                       reconstruct)
from .hippo import (BlockKernel, CoefficientState, HippoBasis, block_step,
                    build_basis, build_continuous, build_kernel,
                    discretize_bilinear, init_state, lookback_argument,
                    project, step)
from .koopman import (KoopmanSystem, LiftedState, build_companion, build_system,
                      companion_discrete, lift_initial_state, poly_ode_coeffs,
                      propagate, readout, require_defined)
from .data import (LorenzParams, TimeSeriesDataset, gen_lorenz, load_csv,
                   normalize, save_csv, split_controls, window_count, windows)
from .model import (ClosedFormResult, FlightKoobaModel, ModelConfig,
                    closed_form_b, evaluate, fit, load_model, predict,
                    save_model, window_loss_grad)

__version__ = "0.1.0"
