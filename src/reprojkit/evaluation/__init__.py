"""Metric suite: repeatability/MMA/matching score, homography and
relative-pose estimation with AUC, and point-cloud registration."""

from .homography import (
    HomographyEstimate,
    corner_error,
    estimate_homography,
    fit_homography,
    transfer_error,
)
from .metrics import (
    HomographyMap,
    ReprojectionMap,
    matching_score,
    mma,
    repeatability,
)
from .pose import (
    POSE_AUC_THRESHOLDS,
    TRANSLATION_SPLIT,
    PosePairRecord,
    RelativePose,
    estimate_essential,
    pose_auc,
    pose_error,
    pose_split_eval,
    rotation_error_deg,
    translation_error_deg,
)
from .registration import (
    RegistrationResult,
    chamfer_distance,
    kabsch_weighted,
    lift_to_camera,
    register_pair,
)

__all__ = [
    "HomographyEstimate",
    "HomographyMap",
    "POSE_AUC_THRESHOLDS",
    "PosePairRecord",
    "RegistrationResult",
    "RelativePose",
    "ReprojectionMap",
    "TRANSLATION_SPLIT",
    "chamfer_distance",
    "corner_error",
    "estimate_essential",
    "estimate_homography",
    "fit_homography",
    "kabsch_weighted",
    "lift_to_camera",
    "matching_score",
    "mma",
    "pose_auc",
    "pose_error",
    "pose_split_eval",
    "register_pair",
    "repeatability",
    "rotation_error_deg",
    "transfer_error",
    "translation_error_deg",
]
