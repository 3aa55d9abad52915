"""Bandwidth-aware person retrieval across a network of edge cameras.

The package combines a learned camera-transition network with appearance
similarity to decide, per camera, what to upload first and how much of the
shared round budget each camera gets. A round-based simulator measures how
quickly the right items reach the cloud under different upload strategies.
"""

from .errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                     EdgeReidError, InputError, NumericError, ShapeError)
from .metrics import (MetricSummary, cmc_map, mean_precise_rank, mtn,
                      precise_rank_k, summarize)
from .nn import (BatchNorm, GradCheckReport, Param, adam_step, cross_entropy,
                 gelu, gradient_check, relu, sinusoidal_embed, softmax,
                 zero_grads)
from .scene import (Edge, FixedDelay, GeneratorSpec, LogNormalDelay,
                    Observation, Scene, TransitionOracle, export_csv, generate,
                    ingest_csv, load_spec, save_spec, spec_from_dict,
                    spec_to_dict, split_identities)
from .simulate import (ArrivalLog, Gallery, InferenceParams, Models,
                       QuerySpec, QueryTask, RunReport, Strategy,
                       TransitionTable, UploadPlan, build_gallery,
                       build_transition_table, central_rankings, make_task,
                       plan, run_benchmark, run_rounds, transmission_number)
from .strategy import (BandwidthAllocation, FrequencyModel, PatternBank,
                       allocate_bandwidth, fit_frequency, frequency_scores,
                       fuse_scores, joint_similarity, largest_remainder,
                       time_targeted_scores, uniform_allocation)
from .transition import (GraphBlock, TrainSchedule, TransitionNet,
                         TransitionNetConfig, check_scene_compatible,
                         holdout_accuracy, load_checkpoint, sample_pairs,
                         save_checkpoint, train, training_step)

__version__ = "0.1.0"

__all__ = [
    "ArrivalLog", "BandwidthAllocation", "BatchNorm", "CheckpointError",
    "ConfigError", "DataError", "DivergenceError", "Edge", "EdgeReidError",
    "FixedDelay", "FrequencyModel", "Gallery", "GeneratorSpec",
    "GradCheckReport", "GraphBlock", "InferenceParams", "InputError",
    "LogNormalDelay", "MetricSummary", "Models", "NumericError", "Observation",
    "Param", "PatternBank", "QuerySpec", "QueryTask", "RunReport", "Scene",
    "ShapeError", "Strategy", "TrainSchedule", "TransitionNet",
    "TransitionNetConfig", "TransitionOracle", "TransitionTable", "UploadPlan",
    "adam_step", "allocate_bandwidth", "build_gallery",
    "build_transition_table", "central_rankings", "check_scene_compatible",
    "cmc_map", "cross_entropy", "export_csv", "fit_frequency",
    "frequency_scores", "fuse_scores", "gelu", "generate", "gradient_check",
    "holdout_accuracy", "ingest_csv", "joint_similarity", "largest_remainder",
    "load_checkpoint", "load_spec", "make_task", "mean_precise_rank",
    "mtn", "plan", "precise_rank_k", "relu", "run_benchmark",
    "run_rounds", "sample_pairs", "save_checkpoint", "save_spec",
    "sinusoidal_embed", "softmax", "spec_from_dict", "spec_to_dict",
    "split_identities", "summarize", "time_targeted_scores", "train",
    "training_step", "transmission_number", "uniform_allocation", "zero_grads",
]
