"""featkit: linear-SVM classification and spatial-search retrieval over
dense feature vectors, with the augmentation geometry and evaluation
metrics that go with them."""

from .augment import (
    AugmentConfig,
    augment_training_set,
    augmentation_plans,
    crop_rects,
    negative_expansion_plans,
    pool_responses,
    positive_mirror_plans,
)
from .extractors import (
    ExternalProcessExtractor,
    FileBackedExtractor,
    ToyPixelExtractor,
    TransformPlan,
)
from .features import (
    FeatureMatrix,
    PixelGrid,
    Rect,
    load_features,
    load_labels,
    load_pgm,
    save_features,
    smallest_enclosing_square,
)
from .metrics import (
    average_precision,
    confusion,
    mean_ap,
    mean_diag_accuracy,
    pr_curve,
    recall_at_k,
)
from .preprocess import (
    PcaWhitenModel,
    l2_normalize,
    load_pca_model,
    pca_fit,
    pca_whiten_apply,
    retrieval_pipeline_apply,
    retrieval_pipeline_fit,
    save_pca_model,
    signed_power,
)
from .retrieval import (
    RetrievalIndex,
    SpatialSearchConfig,
    build_index,
    extract_patches,
    load_index,
    patch_grid,
    query_distance,
    save_index,
    search,
)
from .svm import (
    BinaryModel,
    C_PRESETS,
    MulticlassModel,
    SolverConfig,
    decision,
    load_model,
    objective,
    predict_ovo_from_scores,
    save_model,
    train_binary,
    train_one_vs_all,
    train_one_vs_one,
)

__version__ = "0.1.0"
