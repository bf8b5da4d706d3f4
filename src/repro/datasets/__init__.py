"""Workload datasets: the synthetic admissions scenario, COMPAS, and
Crime & Communities (simulators calibrated to the paper's Table 1, plus
loaders for the real files when available)."""

from .base import Dataset
from .compas import COMPAS_FEATURES, load_compas, simulate_compas
from .crime import CRIME_FEATURES, load_crime, simulate_crime
from .ratings import rating_equivalence_classes, simulate_star_ratings
from .synthetic import ADMISSIONS_FEATURES, simulate_admissions, simulate_blobs

__all__ = [
    "Dataset",
    "COMPAS_FEATURES",
    "load_compas",
    "simulate_compas",
    "CRIME_FEATURES",
    "load_crime",
    "simulate_crime",
    "rating_equivalence_classes",
    "simulate_star_ratings",
    "ADMISSIONS_FEATURES",
    "simulate_admissions",
    "simulate_blobs",
]
