"""Stability slopes, singular-limit certificates and 1D geometric flows.

Library layout:

- surface_lattice:    exact intersection arithmetic on integer views of the
                      classes, Zariski decomposition with one fraction-free
                      elimination per support, volumes of big classes on
                      Kahler surfaces
- surface_slopes:     minimal J-slope and dHYM slope certificates on surfaces
- bundle_geometry:    exact intersection theory on symmetric projective
                      bundles and their zero-section blow-ups, on a Chow ring
                      graded into integer rows per degree
- calabi_profiles:    closed-form steady momentum profiles, slope and angle
                      functionals, admissibility predicates
- flow_engine:        finite-difference integration of the reduced flows with
                      runtime monitors and convergence detection
- flow_steps:         the flows' largest time step, apart from numpy so the
                      CLI help can print it
- energy_functionals: moment-map energy, its infimum, Futaki invariants of
                      piecewise-linear configurations summed by parts on
                      integers, minimizing sequences sampled on one rho
                      lattice per sequence, and the dHYM volume functional;
                      only the last two and the moment energy load numpy
- cli:                command-line front end, holding the ring oracles that
                      `verify identities` checks the closed forms against;
                      only its flow, minimizing-seq and dhym-volume
                      subcommands load numpy
"""

from .surface_lattice import (
    DivisorClass,
    SurfaceModel,
    ZariskiDecomposition,
    intersect,
    is_kahler,
    is_nef,
    load_surface_model,
    volume,
    zariski,
)
from .surface_slopes import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    SlopeCertificate,
    blowup_plane_model,
    dhym_slope_certificate,
    j_slope_certificate,
    one_point_blowup_certificate,
)
from .bundle_geometry import (
    BundleParams,
    BundleSlopeCertificate,
    ChowElement,
    intersection_number,
    min_slope_certificate,
    steady_slope,
    weight_integral,
)

__version__ = "0.1.0"


def __getattr__(name):
    # energy_functionals loads on first use, so `import slopeflow` does not
    # pay for it
    if name == "minimizing_sequence":
        from .energy_functionals import minimizing_sequence

        return minimizing_sequence
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
