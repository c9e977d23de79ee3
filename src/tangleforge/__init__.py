"""Structure trees over abstract separation systems.

Build trees that display every tangle of a finite separation system for a
forbidden-set family, contract them to irreducible form, restrict them to
lower order thresholds, and extract machine-checkable certificates when no
tangle exists.  Ships graph k-block, profile, and dataset-cluster grounds
plus a brute-force oracle used as independent ground truth in the tests.
"""

from .build import (PipelineReport, ReductionTrace, build, certificates_of,
                    pipeline, reduce, report_to_json_dict)
from .families import (BlocksFamily, ClusterFamily, EmptyFamily,
                       ExplicitFamily, ForbiddenFamily, GraphTangleFamily,
                       ProfileFamily, StrongProfileFamily, Witness,
                       family_from_json, is_closed_under_minimization,
                       is_standard, make_blocks, make_cluster, make_empty,
                       make_explicit, make_graph_tangle, make_profile,
                       make_strong_profile)
from .grounds import (BipartitionGround, Graph, bipartition_system,
                      block_of_tangle, full_bipartition_ground,
                      graph_system, graph_universe, questionnaire_system)
from .oracle import (OracleBudget, all_consistent_orientations, all_kblocks,
                     all_tangles, is_efficient_in, is_rich,
                     is_strongly_efficient_in, minimal_elements)
from .system import (SeparationSystem, ValidationReport, backward, dump_system,
                     forward, from_json_dict, inverse, load_system, sep_of,
                     to_json_dict, validate)
from .tree import (Check, LeafClass, StructureTree, classify_leaf,
                   is_consistent_tree, is_f_tree, is_ordered,
                   is_separation_tree, is_structure_tree, restrict, tangles,
                   to_dot, tree_from_json_dict, tree_to_json_dict)

__version__ = "0.1.0"
