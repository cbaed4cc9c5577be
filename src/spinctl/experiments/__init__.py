from .base import Bench, SweepResult
from .allxy import ALLXY_PAIRS, IDEAL_SIGMA_Z, AllxyResult, run_allxy
from .qst import TomoResult, run_qst_trajectory
from .rb import RbResult, run_rb
from .dj import DjResult, ORACLES, run_dj
from .rabi import run_rabi
from .spectroscopy import locate_peaks, run_spectroscopy

__all__ = [
    "Bench",
    "SweepResult",
    "ALLXY_PAIRS",
    "IDEAL_SIGMA_Z",
    "AllxyResult",
    "run_allxy",
    "TomoResult",
    "run_qst_trajectory",
    "RbResult",
    "run_rb",
    "DjResult",
    "ORACLES",
    "run_dj",
    "run_rabi",
    "locate_peaks",
    "run_spectroscopy",
]
