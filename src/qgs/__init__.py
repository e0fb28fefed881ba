"""Photon-number statistics of partially coherent light.

Analytic Fock-basis statistics of a coherent + Gaussian-Schell beam seen
by two photon-number-resolving detectors, a Monte Carlo sampling oracle
that validates every analytic quantity, and a CLI for separation scans.

Import names from the submodule that defines them:
  qgs.source_model  beam profiles and their two-detector reduction
  qgs.fock_stats    joint photon-number distribution, g2 of wavepackets and fields
  qgs.mc_oracle     Monte Carlo sampling oracle and the analytic comparison
  qgs.scan          run configuration, separation scans, validation, g2 fit
  qgs.cli           the `qgs` command line
  qgs.errors        exception hierarchy
"""

__version__ = "0.1.0"
