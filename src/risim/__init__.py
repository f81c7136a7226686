"""risim: physical-layer simulation of reconfigurable-metasurface index modulation.

Modules
-------
metaatom   tunable-cell reflection model and tabulated full-wave data
aperture   phase composition, far-field patterns, directivity, beam scanning
spacetime  periodic time codings and frequency-harmonic synthesis
channel    CN(0, 1) draws, Rayleigh / Rician channels, LoS matrices
im_schemes bit mappers and rate formulas for the index-modulation family
detection  maximum-likelihood detection and ergodic capacity
harness    config-driven Monte Carlo experiments and CSV outputs
"""

import os

# --threads is the only parallelism: one OpenBLAS thread unless the user sets a count
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
