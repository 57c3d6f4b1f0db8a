"""Flat surfaces from glued polygons: Delaunay decompositions, isometry
groups, hyperelliptic period solvers, and iso-Delaunay tessellations,
centered on the genus-3 Arnoux-Yoccoz surface and its two symmetric
families."""

from .numeric import ALPHA, CubicNumber, Scalar, incircle, orient, sign
from .surface import (
    ConePoint,
    Gluing,
    Polygon,
    Surface,
    SurfaceError,
    apply_linear,
    area,
    cone_points,
    cut_and_reglue_square,
    genus,
    validate,
    vertex_cycles,
)
from .delaunay import Triangulation, decomposition, delaunayize, flip, hinge, triangulate
from .symmetry import (
    GroupSummary,
    Isometry,
    affine_equivalent,
    compose,
    fixed_points,
    group_summary,
    isometries,
    isometries_between,
)
from .constructions import (
    OrigamiCertificate,
    ParallelogramShape,
    TrapezoidShape,
    ay_prime,
    ay_surface,
    escalator,
    origami_check,
    parallelogram_family,
    trapezoid_family,
)
from .periods import (
    CurveA,
    CurveS,
    CurveTU,
    a_from_s,
    a_from_tu,
    induced_q_coefficient,
    phi_map,
    psi_map,
    segment_integrals,
    shape_ratios,
    silhol_ratio,
    solve_t_rectangle,
    solve_tu,
)
from .isodelaunay import Cell, HPoint, Tessellation, Wall, cell_at, explore, render_svg, wall_of_hinge

__version__ = "0.1.0"
