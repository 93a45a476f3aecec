"""Finite-difference verification of the whole classifier gradient.

Builds a model from a config, runs one forward/backward on random inputs,
then re-derives every parameter gradient entry by central differences of
the loss and reports the worst relative disagreement per parameter.
Every variant holds only parameters that reach the loss, so no entry
checks a gradient that is zero by construction.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .model import N_CLASSES, EmoMsase, ModelConfig

# Relative error denominators are floored so that finite-difference roundoff
# on near-zero gradients is not amplified into spurious failures.
DENOM_FLOOR = 1e-4
ZERO_CUTOFF = 1e-10


def micro_config(hidden_size: int = 4, variant: str = "emomsase",
                 seed: int = 0) -> ModelConfig:
    """A two-domain, two-modality-per-domain model, 3 features per window,
    small enough to check fast."""
    return ModelConfig(
        domain_channels=(
            ("Peripheral", ("ACC_Z", "EDA")),
            ("Trunk", ("LAT_ACC", "ECG1")),
        ),
        feature_sizes={ch: 3 for ch in ("ACC_Z", "EDA", "LAT_ACC", "ECG1")},
        hidden_size=hidden_size,
        variant=variant,
        seed=seed,
    )


def grad_check(config: ModelConfig, *, epsilon: float = 1e-4,
               seed: int = 0) -> dict[str, float]:
    """Each parameter's worst relative disagreement between its analytic and
    central finite-difference gradients, by name in ``parameters()`` order.

    The batch, 2 samples of 6 windows and their labels, is drawn from
    ``seed``; the model's own weights come from the config seed.  Relative
    error per entry is |analytic - fd| / max(|analytic|, |fd|, 1e-4); entries
    where both routes are below 1e-10 count as exact zeros with error 0.

    Finite-difference evaluations reuse the pooled feature vectors of
    modalities the perturbed parameter cannot reach (they are unchanged by
    construction), so only the touched branch and the shared classifier are
    recomputed per probe.
    """
    model = EmoMsase(config)
    rng = np.random.default_rng(seed)
    batch = {ch: rng.standard_normal((2, 6, config.feature_sizes[ch]))
             for ch in config.channels}
    labels = rng.integers(0, N_CLASSES, size=2)

    loss, tape = model.forward(batch, labels=labels)
    tape.backward(loss)

    # Pooled per-modality feature values at the unperturbed parameters.
    base_tape = ad.Tape(recording=False)
    base_cavs = {
        ch: model.modality_cav(base_tape, ad.leaf(batch[ch]), ch).value
        for ch in config.channels
    }

    def loss_at(touched: str) -> float:
        tape = ad.Tape(recording=False)
        cavs = {}
        for ch in config.channels:
            if ch == touched:
                cavs[ch] = model.modality_cav(tape, ad.leaf(batch[ch]), ch)
            else:
                cavs[ch] = ad.leaf(base_cavs[ch])
        logits = model.classify(tape, cavs)
        return float(ad.softmax_cross_entropy(tape, logits, labels).value)

    errors = {}
    for param in model.parameters():
        touched = param.name.split("/")[0]  # its channel; a domain or head is none
        analytic = param.grad
        fd = np.empty_like(analytic)
        flat = param.value.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = loss_at(touched)
            flat[i] = orig - epsilon
            down = loss_at(touched)
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * epsilon)
        both_zero = (np.abs(analytic) < ZERO_CUTOFF) & (np.abs(fd) < ZERO_CUTOFF)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), DENOM_FLOOR)
        rel = np.abs(analytic - fd) / denom
        rel[both_zero] = 0.0
        errors[param.name] = float(rel.max())
    return errors
