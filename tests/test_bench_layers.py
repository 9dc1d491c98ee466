"""The benchmark's traced run patches homogen's layers by name.

``bench/layers.py`` wraps functions such as ``calc.sample_record`` and class
attributes such as ``KarelGrid.__post_init__`` from outside the package. A
change that deletes or renames one of them breaks the traced run; this test
catches that without running the benchmark, and checks that every patch is
undone.
"""

import importlib.util
import random
import sys
from pathlib import Path

import homogen.cli  # noqa: F401  (imports every module the tracer patches)
from homogen.diagnostics import Histogram
from homogen.homogenizer import HomogenizerRun
from homogen.karel import UncoverableProgramError, gen, sample_program
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


def test_the_traced_execute_layer_sees_every_grid_task_assembly_draws(monkeypatch):
    # The karel.interp.execute layer times task assembly's runs, so
    # make_task must run each grid it draws through the module's execute.
    layers = load_layers(monkeypatch)
    tracer = layers.Tracer()
    patches, _ = layers.install(tracer, homogen_modules())
    draws = 0

    def sampler(rng):
        nonlocal draws
        draws += 1
        return gen.sample_uniform_grid(rng)

    rng = random.Random(76)
    outcomes = set()
    try:
        for _ in range(40):
            try:
                gen.make_task(sample_program(rng), sampler, rng, retry_limit=20)
                outcomes.add("task")
            except UncoverableProgramError:
                outcomes.add("uncoverable")
    finally:
        patches.restore()
    assert outcomes == {"task", "uncoverable"}
    assert tracer.summary()["karel.interp.execute"]["calls"] == draws > 40
    assert 0 < tracer.counters["karel.interp.execute.crashed"] < draws
