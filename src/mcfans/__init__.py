"""mcfans: slope-graded quiver mutation, maximal green sequences, stability
fans and quantum dilogarithm identities — all in exact arithmetic."""

__version__ = "0.1.0"

from .seed import ValuedQuiver, preset, euler_pairing, g_of_dim
from .mutation import (MutationContext, MutationState, GradedVector,
                       initial_state, mu_plus, mu_minus, validate_state,
                       signed_c_matrix, is_terminal)
from .enumeration import (canonical_key, exchange_graph, enumerate_mgs,
                          green_paths, longest_mgs, fan_components,
                          fuss_catalan, classify_edge, graph_to_json,
                          mgs_to_json)
from .finrep import (IndecTable, ShiftedProjective, Wall, indecomposables,
                     hom_dim, ext_dim, is_exceptional_sequence,
                     submodule_dims, wall_of, check_wall_membership,
                     verify_chamber, TorsionClass, torsion_class_of_state,
                     span_of, restricted_walls)
from .fans import (MConfiguration, configuration_of_state, SiltingItem,
                   SiltingObject, silting_from_state, FanAlgebra,
                   horizontal_algebra, vertical_algebra,
                   check_hv_invariance, TaggedWall, fan_wall_set)
from .dilog import (Coeff, PairingForm, QSeries, qseries_one, qseries_mul,
                    qseries_prod, dilog_series, check_square, check_pentagon,
                    dt_invariant_check, DtReport, edge_invariant_check,
                    EdgeReport)
from .render import (Scene, project_wall, wall_rays, build_scene,
                     scene_stats, render_picture)
from .verify import run_verification, format_report
