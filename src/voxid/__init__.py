"""voxid: GMM/UBM and i-vector speaker identification toolkit."""

from .audio import AudioClip, read_wav, write_wav
from .features import FeatureMatrix, MfccConfig, extract_mfcc
from .gmm import (
    DiagonalGmm,
    GmmTrainingConfig,
    component_log_density,
    em_fit,
    mixture_log_likelihood,
    responsibilities,
    sequence_log_likelihood,
)
from .speaker_models import (
    BaumWelchStats,
    SpeakerModel,
    Supervector,
    Ubm,
    accumulate_stats,
    build_supervector,
    map_adapt,
    train_ubm,
)
from .total_variability import (
    IVector,
    TotalVariabilityModel,
    extract_ivector,
    extract_ivectors,
    init_tv,
    train_tv,
)
from .scoring import (
    CohortStats,
    DecisionPolicy,
    bhattacharyya_coefficient,
    cohort_from_scores,
    cosine_score,
    cosine_scores,
    decide,
    llr_score,
    llr_scores,
    normalize_score,
)
from .evaluation import (
    EvalReport,
    RegistryEntry,
    SpeakerRegistry,
    Trial,
    compute_eer,
    det_points,
    identify,
    summarize,
)
from .experiment import ExperimentConfig, run_experiment

__version__ = "0.1.0"
