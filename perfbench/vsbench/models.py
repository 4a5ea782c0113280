"""The zoo models under test, quantized and saved as deployment artifacts.

Models are untrained and seeded (``MiniResNet(width=1, depth=2, seed=0)``
and ``MiniBERT(MINIBERT_BASE, seed=0)``): weights do not change kernel
time, and ``pretrained()`` would train on a cache miss.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.deploy import save_artifact
from repro.models.bert import MINIBERT_BASE, MiniBERT
from repro.models.resnet import MiniResNet
from repro.quant import PTQConfig, quantize_model

from vsbench.inputs import IMAGE_SHAPE, calibration_batch

#: The paper's two deployment formats (W/A code bits, weight/act scale bits).
#: W4/A8 S4/S6 is the near-full-precision format; its integer products
#: exceed the float32-exact bound, so GEMMs run on the float64 path.
#: W4/A4 S4/S4 is the 4.25-bit format and runs the float32 path.
FORMATS = {
    "w4a8": dict(weight_bits=4, act_bits=8, weight_scale="4", act_scale="6"),
    "w4a4": dict(weight_bits=4, act_bits=4, weight_scale="4", act_scale="4"),
}


def float_model(model: str):
    if model == "resnet":
        net = MiniResNet(width=1, depth=2, seed=0)
    else:
        net = MiniBERT(MINIBERT_BASE, seed=0)
    net.eval()
    return net


def build_artifact(model: str, fmt: str, out_dir: Path, seed: int, timings: dict) -> Path:
    """Quantize ``model`` under ``fmt`` and save it; adds to ``timings``."""
    config = PTQConfig.vs_quant(**FORMATS[fmt])
    net = float_model(model)
    t0 = time.perf_counter()
    qmodel = quantize_model(net, config, calib_batches=[calibration_batch(model, seed)])
    t1 = time.perf_counter()
    path = out_dir / f"{model}-{fmt}"
    save_artifact(qmodel, path, task="image" if model == "resnet" else "qa",
                  quant_label=config.label,
                  input_shape=IMAGE_SHAPE if model == "resnet" else None)
    t2 = time.perf_counter()
    timings["quantize_s"] = timings.get("quantize_s", 0.0) + (t1 - t0)
    timings["save_s"] = timings.get("save_s", 0.0) + (t2 - t1)
    return path
