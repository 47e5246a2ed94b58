"""Harmonic analysis on n-dimensional de Sitter spacetime.

Principal-series plane waves (ambient and hyperbolic families), the
Fourier transform pairs on the spacetime and on its asymptotic cone,
wavepacket synthesis from profiles on the absolute, and verification
engines for the contraction, fast-decrease and flat-limit properties.
"""

from .errors import (AccuracyError, ChartSingularError,
                     ComplementarySeriesError, DsWaveError,
                     OnSingularSurfaceError, PoleError, UnsupportedCaseError)
from .geometry import (HoroChart, HyperChart, SpacetimeConfig,
                       absolute_covector, cone_measure_weight, from_horo,
                       from_hyper, minkowski_dot, origin, to_horo)
from .planewave import (AmbientWave, HyperWave, PrincipalMass,
                        principal_mass, principal_mass_from_rho, psi_ambient,
                        psi_hyper)
from .specfun import HarmonicIndex, d_abs, hypersph_Y, norm_K
from .transform import (AbsoluteProfile, HyperCoeffs, QuadratureGrid,
                        WavepacketSpec, wavepacket_ambient, wavepacket_hyper)

__version__ = "0.1.0"

__all__ = [
    "SpacetimeConfig",
    "HoroChart",
    "HyperChart",
    "origin",
    "minkowski_dot",
    "from_horo",
    "to_horo",
    "from_hyper",
    "absolute_covector",
    "cone_measure_weight",
    "PrincipalMass",
    "principal_mass",
    "principal_mass_from_rho",
    "AmbientWave",
    "HyperWave",
    "psi_ambient",
    "psi_hyper",
    "HarmonicIndex",
    "hypersph_Y",
    "norm_K",
    "d_abs",
    "AbsoluteProfile",
    "WavepacketSpec",
    "HyperCoeffs",
    "QuadratureGrid",
    "wavepacket_ambient",
    "wavepacket_hyper",
    "DsWaveError",
    "ChartSingularError",
    "ComplementarySeriesError",
    "OnSingularSurfaceError",
    "PoleError",
    "UnsupportedCaseError",
    "AccuracyError",
]
