"""Numerical laboratory for weighted Fourier extension estimates on the cone.

Measures concentrated near a truncated lightcone in R^3 correspond, after
rescaling, to families of circles in the plane; the package implements both
sides of that dictionary — lightplank geometry, annulus multiplicity,
tangency counting, oscillatory-integral extension operators — and an
experiment harness that fits the scaling exponents the estimates predict.
"""

from .fitting import ScalingFit, fit_exponent
from .fourier import (
    decay_mean,
    decay_ratio,
    extension_separable,
    knapp_sharpness,
    make_quadrature,
    sigma_check,
    smooth_bump,
    stationary_phase_diagnostic,
    weighted_l2,
)
from .geometry import lightlike_frame
from .maximal import RasterGrid, multiplicity_field, wolff_example_check
from .measures import (
    ALPHA0,
    MAXIMAL_RADII,
    Q_RADII,
    CircleConfig,
    CubeMeasure,
    generate,
    generate_config,
    load_config,
    load_measure,
    max_plank_mass,
    rescale_to_Q,
    save_config,
    save_measure,
)
from .operators import (
    DiscreteExtensionOperator,
    bbcr_equivalence_check,
    build_extension_operator,
    l1_constant,
    transference_check,
)
from .rectangles import DeltaTauRectangle, RectangleFamily, greedy_maximal_incomparable
from .tangency import classify_pairs, main_geom_check, pair_count

__version__ = "0.1.0"
