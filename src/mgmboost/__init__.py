"""mgmboost: multi-graph matching by iterative affinity-score boosting
with graduated consistency regularization, outlier-robust inlier
eliciting, and full-consistency post-processing, plus the synthetic
benchmark protocols and a self-contained pairwise matcher."""

from types import ModuleType as _ModuleType

from .core import (AffinityMatrix, AffinitySet, MatchConfig, Permutation,
                   ScoreNormalizer, affinity_score, total_score)
from .consistency import (InlierEstimate, inlier_mask, is_fully_consistent,
                          keep_masks, node_affinity_all, node_consistency_all,
                          overall_consistency, pairwise_consistency,
                          pairwise_consistency_all, unary_consistency_all)
from .pairwise import hungarian, power_iteration, solve_pairwise
from .synthgen import (GraphInstance, SynthParams, build_affinity_set,
                       gen_random_graphs, gen_random_points, init_config,
                       load_instances, load_pointset, save_instances,
                       truth_config)
from .boost import (BoostParams, BoostTrace, enforce_full_consistency, mst,
                    run_boost)
from .bench import (ExperimentSpec, ResultRow, accuracy, emit_csv,
                    emit_plotdata, inlier_rows_from_instances, run_experiment)

# the imported names; the submodules bound by the imports stay out
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
__version__ = "0.1.0"
