"""Linear Poisson modelling of paired-timepoint ADC histograms.

Learns non-parametric Poisson mixture components from a control cohort,
extends the model with treatment components, and reports per-tumor
responding-volume fractions with propagated errors, Z-scores and P-values,
alongside a conventional t-test benchmark.
"""
