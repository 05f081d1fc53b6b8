"""Memory-based emotional-learning forecaster with baselines and evaluation tools.

Public surface: series containers and generators, the kernel k-NN adaptive
network, the fused two-network prediction model, the classic linear
amygdala-orbitofrontal baseline, weighted k-NN, error metrics with peak
matching, persistence, and the experiment driver behind the CLI.
"""

from .baselines import WknnModel, wknn_predict, wknn_predict_many
from .classic import (ClassicBelModel, bel_forward, bel_predict, bel_predict_many, bel_train,
                      bel_update)
from .errors import (
    BelpmError,
    ConfigError,
    CorruptFile,
    DataError,
    DimensionMismatch,
    EmptyFile,
    EmptyInput,
    GapError,
    IndexOutOfRange,
    InvalidParameter,
    LengthMismatch,
    NumericError,
    ParseError,
    SeriesTooShort,
    SingularSystem,
    TooFewSamples,
    UnsupportedKernel,
    VersionMismatch,
    ZeroVariance,
)
from .experiment import ExperimentConfig, run_experiment
from .metrics import (
    EvaluationReport,
    PeakReport,
    correlation,
    find_peaks,
    match_peaks,
    mse,
    nmse,
)
from .model import (
    BelpmConfig,
    BelpmModel,
    CmWeights,
    cm_lse_fit,
    predict,
    predict_many,
    predict_series,
    train,
)
from .network import (
    AdaptiveNetwork,
    KernelKind,
    forward,
    grad_bandwidths,
    loo_predictions,
    train_bandwidths_sd,
)
from .series import (
    EmbeddedDataset,
    TimeSeries,
    embed,
    gen_logistic,
    gen_mackey_glass,
    split,
)
from .storage import (
    LoadedModel,
    load_model_file,
    load_series_csv,
    save_model,
    save_series_csv,
)

__version__ = "0.1.0"
