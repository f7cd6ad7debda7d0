"""The traced benchmark (perfbench/tracer.py) wraps sswim functions by
module and attribute name, and reads some of their positional arguments.
These tests fail when a refactor renames or reshapes one of them."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def _resolve(module, attr):
    obj = importlib.import_module(f"sswim.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, attr", _traced(), ids=lambda v: v)
def test_traced_attribute_resolves(module, attr):
    assert callable(_resolve(module, attr))


# leading positional parameters the tracer's span and counter hooks index
@pytest.mark.parametrize("module, attr, leading", [
    ("network", "simulate_hidden_batch", ["layer", "dense_in"]),
    ("network", "hidden_drive_batch", ["layer"]),
    ("hidden", "build_hidden_layer", ["layer_index", "n_layers", "n_neurons"]),
    ("output", "projection_residuals", ["design"]),
    ("train", "predict_batch", ["model"]),
])
def test_traced_positional_arguments(module, attr, leading):
    params = list(inspect.signature(_resolve(module, attr)).parameters)
    assert params[: len(leading)] == leading
