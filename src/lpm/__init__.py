"""Linear Poisson modelling of paired-timepoint ADC histograms.

Learns non-parametric Poisson mixture components from a control cohort,
extends the model with treatment components, and reports per-tumor
responding-volume fractions with propagated errors, Z-scores and P-values,
alongside a conventional t-test benchmark.

The names below are imported from their modules on first use (PEP 562), so
``import lpm`` or ``import lpm.cli`` loads only the layers a caller runs.
"""

import importlib

_EXPORTS = {
    "histograms": ("BinningConfig", "Histogram2D", "VoxelTable", "bin_voxels",
                   "fit_adc", "load_signal_csv", "load_voxel_csv"),
    "model": ("ComponentPmf", "FitDiagnostics", "LpmModel", "TrainOptions",
              "TrainResult", "fit_quantities", "model_expectation", "train_control",
              "train_treatment"),
    "selection": ("GoodnessOfFit", "SelectionCurve", "chi2_per_dof",
                  "chi2_statistic", "select_components"),
    "inference": ("CohortSummary", "QuantityCovariance", "ResponseResult",
                  "combine_cohort", "fit_and_score", "quantity_covariance",
                  "response_result"),
    "synth": ("GroundTruth", "SynthSpec", "default_scenarios", "generate"),
    "validation": ("LooReport", "leave_one_out"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
