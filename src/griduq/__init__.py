"""Uncertainty-aware emulation of gridded surface-ozone bias.

A from-scratch reverse-mode autodiff engine drives a U-Net regressor
over multi-channel rasters, trained only at sparse station pixels. Two
interchangeable uncertainty backends sit on top: MC-dropout with a
Gaussian negative-log-likelihood head, and split-conformal quantile
regression with a finite-sample coverage guarantee.
"""

from .autodiff import Tape, Tensor, backward, load_checkpoint, save_checkpoint
from .data import (ChannelStats, GeneratorParams, GridSample, NoiseProfile, RegionSpec,
                   generate_synthetic, read_dataset, region_europe, region_north_america,
                   region_synthetic, split, standardize, write_dataset)
from .errors import (CalibrationError, ContractError, DimensionError, FormatError,
                     GridUQError, TrainingError)
from .losses import gaussian_nll, pinball, quantile_loss
from .metrics import MetricsReport, StationScore, empirical_coverage, evaluate_runs, rank_stations
from .model import (UQ_CQR, UQ_MCD, ModelConfig, UNetParams, build, forward,
                    gaussian_moments)
from .train import RunRecord, TrainConfig, fit, train_all_seeds, train_one
from .uq import CqrPrediction, McdPrediction, conformal_quantile, cqr_predict, mc_dropout_predict

__version__ = "0.1.0"
