"""Topological decoding of neural spike trains.

Spike trains are binned and binarized, co-firing patterns become a
functional simplicial complex, and Hodge-Laplacian simplicial convolution
features feed a recurrent network that regresses head direction or 2-D
position.
"""

from .config import TrainConfig
from .metrics import aae, aed, mae, rescale
from .model import build_model, decode_angle, prepare, scrnn_predict
from .spikes import bin_labels, bin_spikes, binarize_rows, load_spike_dataset
from .complexes import build_complex, hodge_laplacian, incidence_matrix
from .synth import GridSimConfig, HdSimConfig, simulate_grid, simulate_hd
from .train import evaluate, random_search, train

__version__ = "0.1.0"

__all__ = [
    "TrainConfig",
    "aae",
    "aed",
    "mae",
    "rescale",
    "build_model",
    "decode_angle",
    "prepare",
    "scrnn_predict",
    "bin_labels",
    "bin_spikes",
    "binarize_rows",
    "load_spike_dataset",
    "build_complex",
    "hodge_laplacian",
    "incidence_matrix",
    "GridSimConfig",
    "HdSimConfig",
    "simulate_grid",
    "simulate_hd",
    "evaluate",
    "random_search",
    "train",
    "__version__",
]
