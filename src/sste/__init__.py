"""Self-sampling training and evaluation for popularity-debiased recommendation."""

from .data import (
    Dataset,
    DatasetStats,
    Provenance,
    Schema,
    SplitMode,
    SyntheticSpec,
    generate_synthetic,
    load_tsv,
    save_tsv,
    split_ratio,
    stats,
)
from .errors import (
    DivisionGuardError,
    MetricUndefinedError,
    ParseError,
    SsteError,
    TrainingDivergedError,
    ValidationError,
)
from .evaluate import (
    EvalReport,
    alpha,
    auc_scores,
    build_ranked_lists,
    modified_score,
    topk_metrics,
)
from .experiment import (
    DEFAULT_GRID,
    GridSpec,
    RunConfig,
    load_config,
    make_table,
    run_grid,
    run_one,
)
from .model import Branch, BranchHead, MfModel, init, load_checkpoint, save_checkpoint
from .propensity import (
    PropensityTable,
    SampleProbTable,
    estimate_popularity_propensity,
    sampling_probabilities,
    truncate,
)
from .selfsample import draw_auxiliary
from .train import (
    Objective,
    TrainState,
    baseline_epoch,
    fit,
    sste_epoch,
)

__version__ = "0.1.0"
