import importlib
import pkgutil

import topodecode


def test_every_module_exports_resolve():
    for info in pkgutil.iter_modules(topodecode.__path__):
        module = importlib.import_module(f"topodecode.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"topodecode.{info.name}.{name}"


def test_package_exports_unchanged():
    assert topodecode.__all__ == [
        "TrainConfig", "aae", "aed", "mae", "rescale", "build_model", "decode_angle",
        "prepare", "scrnn_predict", "bin_labels", "bin_spikes", "binarize_rows",
        "load_spike_dataset", "build_complex", "hodge_laplacian", "incidence_matrix",
        "GridSimConfig", "HdSimConfig", "simulate_grid", "simulate_hd", "evaluate",
        "random_search", "train", "__version__",
    ]
    assert all(hasattr(topodecode, name) for name in topodecode.__all__)
