"""Dynamics of holomorphic self-maps of the complex projective plane.

Green potentials with geometric tail bounds, local multiplicity cocycles along
orbits, detection and classification of totally invariant structure, and
Monte Carlo equidistribution and volume experiments.
"""

__version__ = "0.1.0"

from .errors import (
    ChartUndefined,
    ComponentInvalid,
    ConstructionDegenerate,
    DegenerateMap,
    DegreeMismatch,
    FitUnstable,
    GenerationFailed,
    GreenP2Error,
    IllConditioned,
    OnCurve,
    OrderExceedsTruncation,
    ParseError,
    PositiveDimensional,
)
from .generators import CONFIGURATION_IDS, configuration_map, lattes_map
from .invariant_sets import (
    ConfigurationRow,
    ExceptionalSets,
    InvariantLine,
    TransitionMatrix,
    classify,
    exceptional_sets,
    invariant_lines,
    invariant_orbits,
    invariant_points,
    line_restriction,
    transition_matrix,
)
from .mapfile import dump_map_json, map_from_dict, map_to_dict, read_map
from .maps import Fiber, ProjMap, ProjPoint
from .multiplicities import (
    MultiplicityReport,
    contraction_order,
    contraction_order_direct,
    inequality_report,
    jacobian_multiplicity,
    jacobian_multiplicity_direct,
    local_degree,
    local_degree_direct,
    local_degree_step,
    orbit_report,
)
from .polys import HomogPoly3, jacobian_det, parse_poly
from .potentials import (
    EquidistReport,
    GreenEval,
    KiselmanEstimate,
    curve_potential,
    equidist_distance,
    green,
    green_batch,
    kiselman_decay_scan,
    kiselman_estimate,
    lelong_estimate,
    sublevel_volume,
    volume_decay,
    volume_sweep,
)
from .roots import RootResult, roots_univariate
from .series import AffineSeries2, local_multiplicity, recenter_taylor, vanishing_order
from .systems import solve_affine_system
