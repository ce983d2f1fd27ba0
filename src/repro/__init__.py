"""repro: reproduction of "Codesign of quantum error-correcting codes and
modular chiplets in the presence of defects" (Lin et al., ASPLOS 2024).

The package is organised as:

* :mod:`repro.stabilizer` - stabilizer-circuit substrate (Stim replacement).
* :mod:`repro.decoder` - MWPM decoder (PyMatching replacement).
* :mod:`repro.surface_code` - rotated surface-code layouts and circuits.
* :mod:`repro.noise` - fabrication-defect and circuit-level noise models.
* :mod:`repro.core` - the paper's contribution: defect adaptation,
  super-stabilizers, patch metrics and post-selection.
* :mod:`repro.chiplet` - modular chiplet architecture, yield, overhead and
  application-level estimates.
* :mod:`repro.experiments` - memory/stability experiment drivers and
  per-figure reproduction entry points.
* :mod:`repro.engine` - parallel Monte-Carlo execution engine: hashable
  task specs, sharded process-pool execution, adaptive shot allocation and
  a content-addressed on-disk result cache.
* :mod:`repro.analysis` - statistics and curve fitting.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
