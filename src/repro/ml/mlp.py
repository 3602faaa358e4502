"""Fixed-point multilayer perceptron for on-board inference.

Paper section 7: "The FPGA on tinySDR opens up exciting opportunities
for exploring machine learning algorithms on-board", citing DeepSense
(carrier sense in LPWANs via deep learning).  This module provides the
inference substrate such work needs: a small MLP trained in floating
point (plain numpy gradient descent - no framework), then quantized to
the 8-bit weights and 16-bit accumulators an FPGA implementation would
use, with LUT/DSP/energy estimates from the multiply-accumulate count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.power.profiles import fpga_power_w

WEIGHT_BITS = 8
ACCUMULATOR_BITS = 16


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass
class MlpClassifier:
    """A two-layer MLP: input -> hidden (ReLU) -> logits.

    Attributes:
        w1, b1: hidden-layer weights and biases.
        w2, b2: output-layer weights and biases.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def create(cls, num_inputs: int, num_hidden: int, num_classes: int,
               rng: np.random.Generator) -> "MlpClassifier":
        """He-initialized network.

        Raises:
            ConfigurationError: for non-positive layer sizes.
        """
        if min(num_inputs, num_hidden, num_classes) < 1:
            raise ConfigurationError("layer sizes must be positive")
        return cls(
            w1=rng.normal(0.0, np.sqrt(2.0 / num_inputs),
                          (num_inputs, num_hidden)),
            b1=np.zeros(num_hidden),
            w2=rng.normal(0.0, np.sqrt(2.0 / num_hidden),
                          (num_hidden, num_classes)),
            b2=np.zeros(num_classes))

    # -- float path ---------------------------------------------------------

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Forward pass (float)."""
        hidden = _relu(features @ self.w1 + self.b1)
        return hidden @ self.w2 + self.b2

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class decisions (float path)."""
        return np.argmax(self.logits(features), axis=-1)

    def train(self, features: np.ndarray, labels: np.ndarray,
              epochs: int = 200, learning_rate: float = 0.05,
              batch_size: int = 64,
              rng: np.random.Generator | None = None) -> list[float]:
        """Softmax cross-entropy gradient descent; returns the loss curve.

        Raises:
            ConfigurationError: for mismatched feature/label counts.
        """
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.shape[0] != labels.shape[0]:
            raise ConfigurationError(
                "features and labels must have the same count")
        rng = rng or np.random.default_rng(0)
        num_classes = self.w2.shape[1]
        one_hot = np.eye(num_classes)[labels]
        losses = []
        for _ in range(epochs):
            order = rng.permutation(features.shape[0])
            epoch_loss = 0.0
            for start in range(0, features.shape[0], batch_size):
                batch = order[start:start + batch_size]
                x = features[batch]
                y = one_hot[batch]
                pre_hidden = x @ self.w1 + self.b1
                hidden = _relu(pre_hidden)
                logits = hidden @ self.w2 + self.b2
                shifted = logits - logits.max(axis=1, keepdims=True)
                exp = np.exp(shifted)
                probabilities = exp / exp.sum(axis=1, keepdims=True)
                epoch_loss += float(-np.sum(
                    y * np.log(probabilities + 1e-12)))
                grad_logits = (probabilities - y) / x.shape[0]
                grad_w2 = hidden.T @ grad_logits
                grad_b2 = grad_logits.sum(axis=0)
                grad_hidden = (grad_logits @ self.w2.T) * (pre_hidden > 0)
                grad_w1 = x.T @ grad_hidden
                grad_b1 = grad_hidden.sum(axis=0)
                self.w2 -= learning_rate * grad_w2
                self.b2 -= learning_rate * grad_b2
                self.w1 -= learning_rate * grad_w1
                self.b1 -= learning_rate * grad_b1
            losses.append(epoch_loss / features.shape[0])
        return losses

    # -- fixed-point path -----------------------------------------------------

    def quantize(self) -> "QuantizedMlp":
        """8-bit-weight fixed-point version of this network."""
        return QuantizedMlp.from_float(self)

    @property
    def multiply_accumulates(self) -> int:
        """MACs per inference - the FPGA cost driver."""
        return int(self.w1.size + self.w2.size)


@dataclass(frozen=True)
class QuantizedMlp:
    """Integer-arithmetic MLP as an FPGA datapath would compute it.

    Weights are symmetric 8-bit integers with per-layer scales; biases
    and accumulators are wider integers; the hidden activation requantizes
    back to 8 bits - the standard integer-inference recipe.
    """

    w1_q: np.ndarray
    b1_q: np.ndarray
    w2_q: np.ndarray
    b2_q: np.ndarray
    input_scale: float
    w1_scale: float
    hidden_scale: float
    w2_scale: float

    @classmethod
    def from_float(cls, model: MlpClassifier,
                   input_range: float = 4.0) -> "QuantizedMlp":
        """Post-training quantization with symmetric per-layer scales."""
        levels = (1 << (WEIGHT_BITS - 1)) - 1
        input_scale = input_range / levels
        w1_scale = float(np.max(np.abs(model.w1))) / levels or 1.0
        w2_scale = float(np.max(np.abs(model.w2))) / levels or 1.0
        # Estimate the hidden activation range from the weight geometry.
        hidden_range = input_range * float(
            np.percentile(np.sum(np.abs(model.w1), axis=0), 90))
        hidden_scale = max(hidden_range, 1e-6) / levels
        w1_q = np.clip(np.round(model.w1 / w1_scale), -levels, levels
                       ).astype(np.int32)
        w2_q = np.clip(np.round(model.w2 / w2_scale), -levels, levels
                       ).astype(np.int32)
        b1_q = np.round(model.b1 / (input_scale * w1_scale)).astype(np.int64)
        b2_q = np.round(model.b2 / (hidden_scale * w2_scale)).astype(np.int64)
        return cls(w1_q=w1_q, b1_q=b1_q, w2_q=w2_q, b2_q=b2_q,
                   input_scale=input_scale, w1_scale=w1_scale,
                   hidden_scale=hidden_scale, w2_scale=w2_scale)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Integer forward pass with saturating requantization."""
        levels = (1 << (WEIGHT_BITS - 1)) - 1
        acc_limit = (1 << (ACCUMULATOR_BITS - 1)) - 1
        x_q = np.clip(np.round(np.asarray(features) / self.input_scale),
                      -levels, levels).astype(np.int64)
        acc1 = x_q @ self.w1_q.astype(np.int64) + self.b1_q
        hidden_float = np.maximum(acc1, 0) * (self.input_scale
                                              * self.w1_scale)
        h_q = np.clip(np.round(hidden_float / self.hidden_scale),
                      0, levels).astype(np.int64)
        acc2 = h_q @ self.w2_q.astype(np.int64) + self.b2_q
        acc2 = np.clip(acc2, -acc_limit * 256, acc_limit * 256)
        return np.argmax(acc2, axis=-1)


def fpga_inference_cost(macs: int,
                        clock_hz: float = 32e6,  # units: Hz, FPGA RX clock

                        macs_per_cycle: int = 8) -> dict[str, float]:
    """Resource/latency/energy estimate for integer MLP inference.

    A small systolic row of ``macs_per_cycle`` 8-bit multipliers (each
    ~35 LUTs on an ECP5 without DSP blocks) plus control.

    Raises:
        ConfigurationError: for non-positive parameters.
    """
    if macs <= 0 or macs_per_cycle <= 0 or clock_hz <= 0:
        raise ConfigurationError("cost parameters must be positive")
    luts = 35 * macs_per_cycle + 220  # multipliers + accumulate/control
    cycles = int(np.ceil(macs / macs_per_cycle))
    latency_s = cycles / clock_hz
    power_w = fpga_power_w(luts, clock_hz)
    return {
        "luts": float(luts),
        "latency_s": latency_s,
        "energy_per_inference_j": power_w * latency_s,
        "power_w": power_w,
    }
