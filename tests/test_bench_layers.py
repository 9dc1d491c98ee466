"""The benchmark's traced run patches homogen's layers by name.

``bench/layers.py`` wraps functions such as ``calc.sample_record`` and class
attributes such as ``KarelGrid.__post_init__`` from outside the package. A
change that deletes or renames one of them breaks the traced run; this test
catches that without running the benchmark, and checks that every patch is
undone.
"""

import importlib.util
import sys
from pathlib import Path

import homogen.cli  # noqa: F401  (imports every module the tracer patches)
from homogen.diagnostics import Histogram
from homogen.homogenizer import HomogenizerRun
from homogen.karel.world import KarelGrid

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
PATCHED_CLASS_ATTRIBUTES = [
    (KarelGrid, "__post_init__"),
    (Histogram, "from_values"),
    (HomogenizerRun, "__iter__"),
]


def load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def homogen_modules():
    return {
        name: module for name, module in sys.modules.items()
        if name == "homogen" or name.startswith("homogen.")
    }


def test_every_traced_layer_exists_and_is_restored(monkeypatch):
    layers = load_layers(monkeypatch)
    modules = homogen_modules()
    module_attributes = {name: dict(vars(module)) for name, module in modules.items()}
    class_attributes = [cls.__dict__[attr] for cls, attr in PATCHED_CLASS_ATTRIBUTES]

    patches, _ = layers.install(layers.Tracer(), modules)
    try:
        changed = [
            (name, attr)
            for name, module in modules.items()
            for attr, value in vars(module).items()
            if value is not module_attributes[name][attr]
        ]
        assert ("homogen.calc", "sample_record") in changed
        assert ("homogen.cli", "execute") in changed
        for (cls, attr), original in zip(PATCHED_CLASS_ATTRIBUTES, class_attributes):
            assert cls.__dict__[attr] is not original
    finally:
        patches.restore()

    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == module_attributes[name].keys()
        for attr, value in module_attributes[name].items():
            assert after[attr] is value, f"{name}.{attr} was not restored"
    for (cls, attr), original in zip(PATCHED_CLASS_ATTRIBUTES, class_attributes):
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr} was not restored"
