"""Robust cross-modal retrieval under partially mismatched pairs.

The library identifies corrupted pairs by mixture-modeling per-pair losses,
rematches them through masked partial optimal transport over a learned cost
map, and trains a compact two-tower retrieval model end to end at desk
scale.
"""

from .costs import CostNetParams, cost_forward, cost_net_step, reconstruct_pairs
from .data import (
    PairDataset,
    corrupt,
    generate,
    identification_score,
    load_dataset,
    make_benchmark,
    recall_at_k,
    save_dataset,
)
from .encoder import EncoderParams, init_params, similarity, similarity_backward
from .flow_oracle import exact_ot_oracle
from .losses import matching_probs, rematch_loss, triplet_loss_batch
from .mixture import BetaMixture, fit_bmm, mismatch_probabilities, partition, posterior
from .pipeline import RunState, TrainConfig, load_state, run_experiment, save_state
from .transport import (
    InfeasibleProblemError,
    SinkhornConfig,
    TransportPlan,
    extend_partial,
    normalize_plan,
    partial_ot,
    sinkhorn,
)

__version__ = "0.1.0"

__all__ = [
    "BetaMixture",
    "CostNetParams",
    "EncoderParams",
    "InfeasibleProblemError",
    "PairDataset",
    "RunState",
    "SinkhornConfig",
    "TrainConfig",
    "TransportPlan",
    "corrupt",
    "cost_forward",
    "cost_net_step",
    "exact_ot_oracle",
    "extend_partial",
    "fit_bmm",
    "generate",
    "identification_score",
    "init_params",
    "load_dataset",
    "load_state",
    "make_benchmark",
    "matching_probs",
    "mismatch_probabilities",
    "normalize_plan",
    "partial_ot",
    "partition",
    "posterior",
    "recall_at_k",
    "reconstruct_pairs",
    "rematch_loss",
    "run_experiment",
    "save_dataset",
    "save_state",
    "similarity",
    "similarity_backward",
    "sinkhorn",
    "triplet_loss_batch",
]
