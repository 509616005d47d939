"""Spatial-temporal knowledge-distilled sequential takeaway recommendation.

A graph teacher pre-trained on a spatial-temporal knowledge graph produces
soft labels that are distilled into a spatially-enhanced causal Transformer
student.  Everything runs on numpy with a custom reverse-mode autodiff tape,
at desk scale, deterministically.

Layer map (each module usable on its own):

* :mod:`stkd.tensor` / :mod:`stkd.optim` — autodiff primitives and Adam.
* :mod:`stkd.geo` — geohash decoding, spherical distance, distance buckets.
* :mod:`stkd.events` / :mod:`stkd.sequences` / :mod:`stkd.synthetic` —
  event ingestion, leave-one-out sequence datasets, synthetic corpora with
  planted patterns.
* :mod:`stkd.graph` — knowledge-graph construction and subgraph sampling.
* :mod:`stkd.teacher` / :mod:`stkd.student` — the two models and losses.
* :mod:`stkd.metrics` / :mod:`stkd.pipeline` / :mod:`stkd.cli` — ranked
  evaluation, the two-stage pipeline with ablation/fusion/sweep studies,
  and the command-line front end.
* :mod:`stkd.artifacts` — the one on-disk codec: atomic writes, versioned
  npz artifacts bound to the vocabulary hash, JSON and JSONL files.
"""

from .config import TrainConfig, precision, rng_for
from .errors import (ConfigError, ConsistencyError, DataQualityError,
                     GeohashParseError, InvalidArgumentError,
                     InvalidSampleError, StkdError, VocabMismatchError)
from .events import PurchaseEvent, Vocab, ingest_events
from .geo import (bucketize_distance, geohash6_centroid, is_valid_geohash6,
                  spherical_distance)
from .graph import Stkg, Subgraph, build_stkg, graph_stats, sample_subgraph
from .metrics import hit_rate_at_k, ndcg_at_k, rank_of_target, sample_negatives
from .optim import Adam
from .pipeline import (ABLATION_VARIANTS, FUSION_STRATEGIES, MetricsReport,
                       SubgraphProvider, TeacherSignal, TrainResult, ablate,
                       ablate_fusion, compute_soft_labels, distill, evaluate,
                       load_soft_labels, pretrain_teacher, save_soft_labels,
                       sweep)
from .sequences import SequenceDataset, build_sequences, load_vocab, save_vocab
from .student import (StudentParams, encode, joint_loss, kd_loss,
                      predict_logits, predict_scores, rec_loss, recommend)
from .synthetic import SyntheticConfig, generate_synthetic, write_synthetic
from .teacher import (TeacherParams, gnn_forward, soft_labels, teacher_forward,
                      user_gate)
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "ABLATION_VARIANTS", "FUSION_STRATEGIES",
    "Adam", "ConfigError", "ConsistencyError",
    "DataQualityError", "GeohashParseError",
    "InvalidArgumentError", "InvalidSampleError", "MetricsReport",
    "PurchaseEvent", "SequenceDataset",
    "Stkg", "StkdError", "StudentParams", "Subgraph", "SubgraphProvider",
    "SyntheticConfig", "TeacherParams", "TeacherSignal", "Tensor",
    "TrainConfig", "TrainResult", "Vocab", "VocabMismatchError",
    "ablate", "ablate_fusion", "bucketize_distance",
    "build_sequences", "build_stkg", "compute_soft_labels", "distill",
    "encode", "evaluate",
    "generate_synthetic", "geohash6_centroid",
    "gnn_forward", "graph_stats", "hit_rate_at_k", "ingest_events",
    "is_valid_geohash6", "joint_loss", "kd_loss", "load_soft_labels",
    "load_vocab",
    "ndcg_at_k", "precision", "predict_logits", "predict_scores",
    "pretrain_teacher",
    "rank_of_target", "rec_loss", "recommend", "rng_for",
    "sample_negatives", "sample_subgraph", "save_soft_labels", "save_vocab",
    "soft_labels", "spherical_distance", "sweep",
    "teacher_forward", "user_gate", "write_synthetic",
]
