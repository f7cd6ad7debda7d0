"""Gradient-free, sampling-based training of spike response model networks
for multivariate time-series forecasting."""

from .config import AblationConfig, DatasetConfig, ModelArch, RunConfig, SswimConfig
from .datasets import ForecastDataset, load_csv, make_windows, rse, synth_dataset
from .errors import (
    ConfigError,
    DegenerateDistributionError,
    DegenerateNeuronError,
    EigensolverError,
    EmptyGridError,
    LambdaSearchError,
    NeuronError,
    PipelineError,
    SilentNetworkError,
    SswimError,
    TrivialPairError,
)
from .hidden import (
    NormalizerResult,
    TemporalAssignment,
    VoltageStats,
    build_hidden_layer,
    normalize_fl,
    normalize_ms,
    temporal_assignment,
    weight_dist,
    weight_dot,
    weight_random,
)
from .kernels import (
    KernelFamily,
    KernelSpec,
    PlacedKernel,
    Rectification,
    kernel_peak_offset,
    pspk,
    rfk,
)
from .network import (
    GridSpec,
    LayerParams,
    SnnModel,
    load_model,
    save_model,
)
from .output import (
    DelayEstimate,
    GramAccumulator,
    accumulate_normal_equations,
    condition_bound_diagnostic,
    estimate_delays,
    lambda_grid,
    select_supports,
    solve_with_lambda_search,
    support_candidates,
)
from .sampling import (
    EmbeddingSpec,
    PairProbabilities,
    Pseudometric,
    VanRossumLift,
    embed,
    pair_probabilities,
    sample_pair,
    select_metrics,
    shannon_entropy,
)
from .signals import SpikeTrainSet
from .train import (
    RunReport,
    evaluate_split,
    iter_ablation,
    predict_batch,
    train_sswim,
)

__version__ = "0.1.0"
