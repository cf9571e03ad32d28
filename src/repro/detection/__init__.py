"""Anomaly detection: the session detector and its reports."""

from .detector import AnomalyDetector, DetectorConfig
from .report import Anomaly, AnomalyKind, JobReport, SessionReport

__all__ = [
    "Anomaly",
    "AnomalyDetector",
    "AnomalyKind",
    "DetectorConfig",
    "JobReport",
    "SessionReport",
]
