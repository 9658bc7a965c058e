"""Long-term change detection for service performance signatures.

A signature summarizes how a provider performed for a cohort of trial
users: one normalized row per QoS parameter over a shared time grid.
This package builds signatures from trial data, injects controlled
measurement noise, and decides whether a recomputed signature reflects
real change or merely a noisy view of the same behaviour.
"""
from .config import CorpusParams, DetectorThresholds, ExperimentConfig
from .core import QoSSeries, Signature, TrialExperience, read_signature, write_signature
from .cpd import (AnomalyThreshold, ChangePoint, EventConfig, calibrate,
                  detect_events, is_anomalous)
from .datagen import Label, LabeledPair, build_corpus, build_provider_signatures, synthesize_trace
from .detect import DetectionOutcome, Verdict, cusum_detect, sliding_window_detect, snr_detect
from .errors import (AlignmentError, ConstantSeriesError, ParseError,
                     SigdriftError, ZeroVectorError)
from .evaluate import run_experiment, sensitivity_analysis
from .noisegen import (AttenuationNoise, DistortionNoise, NoiseProfile,
                       SnrValue, SpikeNoise, inject, learn_noise_profile)
from .signature import generate_signature
from .similarity import SimilarityMethod, similarity

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AnomalyThreshold",
    "AttenuationNoise",
    "ChangePoint",
    "ConstantSeriesError",
    "CorpusParams",
    "DetectionOutcome",
    "DetectorThresholds",
    "DistortionNoise",
    "EventConfig",
    "ExperimentConfig",
    "Label",
    "LabeledPair",
    "NoiseProfile",
    "ParseError",
    "QoSSeries",
    "SigdriftError",
    "Signature",
    "SimilarityMethod",
    "SnrValue",
    "SpikeNoise",
    "TrialExperience",
    "Verdict",
    "ZeroVectorError",
    "build_corpus",
    "build_provider_signatures",
    "calibrate",
    "cusum_detect",
    "detect_events",
    "generate_signature",
    "inject",
    "is_anomalous",
    "learn_noise_profile",
    "read_signature",
    "run_experiment",
    "sensitivity_analysis",
    "similarity",
    "sliding_window_detect",
    "snr_detect",
    "synthesize_trace",
    "write_signature",
    "__version__",
]
