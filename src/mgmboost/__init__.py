"""mgmboost: multi-graph matching by iterative affinity-score boosting
with graduated consistency regularization, outlier-robust inlier
eliciting, and full-consistency post-processing, plus the synthetic
benchmark protocols and a self-contained pairwise matcher."""

from .core import (AffinityMatrix, AffinitySet, MatchConfig, Permutation,
                   ScoreNormalizer, affinity_score, compose, normalized_score,
                   total_score)
from .consistency import (InlierEstimate, elicited_pairwise_consistency,
                          elicited_score, elicited_unary_consistency,
                          inlier_mask, is_fully_consistent, keep_masks,
                          node_affinity, node_consistency, overall_consistency,
                          pairwise_consistency, unary_consistency)
from .pairwise import SolverOptions, hungarian, power_iteration, solve_pairwise
from .synthgen import (GraphInstance, SynthParams, build_affinity_gauss,
                       build_affinity_len_angle, build_affinity_set,
                       gen_random_graphs, gen_random_points, init_config,
                       load_instances, load_pointset, save_instances,
                       truth_config)
from .boost import (BoostParams, BoostTrace, best_anchor,
                    enforce_full_consistency, mst, run_boost)
from .bench import (ExperimentSpec, ResultRow, accuracy, emit_csv,
                    emit_plotdata, inlier_rows_from_instances, run_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
