"""Gradient-based MCMC on finite lattices with global quadratic
preconditioning: samplers, calibration, diagnostics, tuning, and an
experiment harness.  Each name is imported from the module that defines it
(``latmc.samplers``, ``latmc.harness``, ...); the package exports only
``__version__``."""

__version__ = "0.1.0"
