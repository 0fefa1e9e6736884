"""Corpus quality scoring, learned score weighting, and budgeted selection."""

__version__ = "0.1.0"

from .corpus import (
    CorpusSchema,
    Document,
    ReadReport,
    ScoreChannel,
    SynthesisSpec,
    apportion,
    load_corpus,
    read_corpus,
    synthesize_corpus,
    write_corpus,
)
from .errors import (
    CampaignError,
    CorpusError,
    MatrixError,
    QselectError,
    TrainerError,
    ValidationError,
)
from .gbt import GradientBoostedRegressor, RegressorHyper, fit_gradient_boosted
from .importance import HashedBagModel, features, fit_bag_model, importance_score
from .matrix import (
    IngestReport,
    RatingAnnotation,
    ScoreMatrix,
    impute_missing,
    ingest_ratings,
    rank_normalize,
    spearman_matrix,
)
from .optimizer import (
    Landscape,
    RegressorModel,
    SearchOutcome,
    fit_regressor,
    pca_landscape,
    rank_weights,
    read_weights,
    search_optimal,
    write_weights,
)
from .proxy import (
    CommandTrainer,
    ExperimentRecord,
    OracleSpec,
    OracleTrainer,
    ProxyConfig,
    SubsetOracleTrainer,
    TrainerRequest,
    flops_infer_structural,
    flops_train,
    flops_train_structural,
    oracle_loss,
    read_campaign_log,
    run_campaign,
    sample_simplex,
    sample_weights,
)
from .registry import (
    CANONICAL_SCORE_NAMES,
    DEFAULT_DOMAIN_WEIGHTS,
    DEFAULT_DOMAINS,
    IMPORTANCE_NAMES,
    MODEL_RATER_NAMES,
    PRRC_NAMES,
    REFERENCE_WEIGHT_PCT,
    SIGNAL_NAMES,
)
from .selection import (
    SelectionPlan,
    SelectionResult,
    WeightVector,
    aggregate_scores,
    reference_weights,
    select_top_k,
)
from .signals import compute_signals, line_signals, ngram_repetition, sentence_count, word_signals
