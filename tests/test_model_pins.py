"""Pinned model bytes: sha256 of the model file and of the test predictions
of a few small trainings, on the numpy/BLAS build recorded in
``model_pins.json``.

Bytes depend on how the BLAS rounds, so another build skips the test and
names both builds. A change that moves bytes on purpose re-pins with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_model_pins.py > tests/model_pins.json

and lists the old and new hashes with the reason in CHANGES.md.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sswim.config import ModelArch, SswimConfig
from sswim.datasets import make_windows, synth_dataset
from sswim.train import predict_batch, serialize_model_bytes, train_sswim

PINS = Path(__file__).with_name("model_pins.json")

# name -> (hidden sizes, training seed), all on the criterion-13 dataset and
# config; the last one's second layer has more inputs (72) than twice its
# steps (32), so it solves its weights on the span of each pair's responses
MODELS = {
    "criterion13_seed11": ((25,), 11),
    "two_layer_25_20_seed5": ((25, 20), 5),
    "wide_second_layer_72_12_seed3": ((72, 12), 3),
}


def dataset():
    return make_windows(synth_dataset("multisine", 2, 420, seed=7), obs_len=24, horizon=8)


def config():
    return SswimConfig(subbatch=60, sigma_min=3.0, sigma_max=12.0,
                       sigma_cycle=5, support_count=8, lambda_count=6)


def _openblas():
    """numpy's bundled OpenBLAS, or None for any other BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        except (OSError, AttributeError):
            continue
        return lib
    return None


def current_build() -> dict:
    """What decides the bits: numpy, the BLAS, and the kernels it picked
    for this CPU (a DYNAMIC_ARCH build names one core and runs another)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib = _openblas()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": None if lib is None else lib.scipy_openblas_get_corename64_().decode(),
    }


def model_hashes(hidden, seed) -> dict:
    data = dataset()
    model, _ = train_sswim(data, ModelArch(hidden=hidden), config(), seed)
    predictions = predict_batch(model, data.input_batch(data.starts["test"]))
    return {
        "model": hashlib.sha256(serialize_model_bytes(model)).hexdigest(),
        "predictions": hashlib.sha256(predictions.tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module")
def pins():
    pinned = json.loads(PINS.read_text())
    build = current_build()
    if build["blas_core"] is None or build != pinned["build"]:
        pytest.skip(f"pinned on {pinned['build']}, running on {build}")
    return pinned["models"]


def test_pins_cover_every_model(pins):
    assert sorted(pins) == sorted(MODELS)


@pytest.mark.parametrize("name", MODELS)
def test_model_bytes_match_the_pins(pins, name):
    hidden, seed = MODELS[name]
    assert model_hashes(hidden, seed) == pins[name]


def test_the_wide_model_solves_on_the_span():
    hidden = MODELS["wide_second_layer_72_12_seed3"][0]
    assert hidden[0] > 2 * dataset().window_len


if __name__ == "__main__":
    models = {name: model_hashes(*spec) for name, spec in MODELS.items()}
    print(json.dumps({"build": current_build(), "models": models}, indent=2))
