"""Multi-scale feature fusion and multi-task quality scoring toolkit.

Library plus CLI for training and evaluating a three-task quality model
on pre-extracted encoder features: adaptive fusion of three scale
features, two regression heads, a text/image similarity score, fidelity
and MSE losses with hand-derived gradients, and the full
SRCC/PLCC/KRCC evaluation protocol.
"""

from .aff import aff_backward, aff_forward, mlp_backward, mlp_forward
from .dataio import (
    Dataset,
    read_feature_records,
    read_feature_records_csv,
    split_per_generator,
    split_random,
    synth_generate,
    write_feature_records,
    write_feature_records_csv,
)
from .encoder import (
    Image,
    MultiScaleImage,
    make_multiscale,
    read_image,
    rescale_bilinear,
    toy_encode,
    toy_encode_text,
)
from .errors import AmffError, ConfigError, DataError, FormatError, NumericError, ShapeError
from .gradcheck import run_gradcheck
from .losses import BatchScores, LossBundle, fidelity_loss, mse_loss, thurstone_prob, total_loss
from .metrics import (
    EvalResult,
    LogisticParams,
    TaskMetrics,
    krcc,
    logistic_fit,
    median_of_trials,
    pearson,
    plcc,
    srcc,
)
from .scoring import (
    ModelParams,
    init_model_params,
    model_backward,
    model_forward,
    similarity_score,
)
from .tensor import affine_forward, finite_diff_check, make_rng, softmax
from .trainer import (
    TrainConfig,
    adamw_step,
    evaluate_model,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
