"""Linear Poisson modelling of paired-timepoint ADC histograms.

Learns non-parametric Poisson mixture components from a control cohort,
extends the model with treatment components, and reports per-tumor
responding-volume fractions with propagated errors, Z-scores and P-values,
alongside a conventional t-test benchmark.
"""

from .histograms import (BinningConfig, Histogram2D, VoxelTable, bin_voxels,
                         fit_adc, load_signal_csv, load_voxel_csv)
from .inference import (CohortSummary, QuantityCovariance, ResponseResult,
                        combine_cohort, control_consistency, fit_and_score,
                        quantity_covariance, response_result)
from .model import (ComponentPmf, FitDiagnostics, LpmModel, TrainOptions,
                    TrainResult, fit_quantities, model_expectation,
                    train_control, train_treatment)
from .selection import (GoodnessOfFit, SelectionCurve, chi2_per_dof,
                        chi2_statistic, select_components)
from .synth import GroundTruth, SynthSpec, default_scenarios, generate
from .validation import LooReport, leave_one_out

__all__ = [
    "BinningConfig", "Histogram2D", "VoxelTable", "bin_voxels", "fit_adc",
    "load_signal_csv", "load_voxel_csv",
    "ComponentPmf", "FitDiagnostics", "LpmModel", "TrainOptions",
    "TrainResult", "fit_quantities", "model_expectation", "train_control",
    "train_treatment", "GoodnessOfFit", "SelectionCurve", "chi2_per_dof",
    "chi2_statistic", "select_components", "CohortSummary",
    "QuantityCovariance", "ResponseResult", "combine_cohort",
    "control_consistency", "fit_and_score", "quantity_covariance",
    "response_result", "GroundTruth", "SynthSpec", "default_scenarios",
    "generate", "LooReport", "leave_one_out",
]
