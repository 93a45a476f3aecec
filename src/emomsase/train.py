"""Cross-entropy training with decoupled weight decay and early stopping.

``fit`` runs seeded mini-batch epochs over a LabeledSet, tracks validation
loss after every epoch, stops once the validation loss has gone
``patience`` epochs past its best, and hands back the parameters from the
best epoch.  Two calls with identical inputs and config produce
bit-identical parameters and logs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import EmoMsase

# AdamW moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

DTYPE = np.float32  # the training dtype: weights, gradients, moments, steps and run's data


class TrainError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 10          # non-improving epochs tolerated before stopping
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainError(f"learning rate must be finite and > 0, not {self.learning_rate}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise TrainError(f"weight decay must be finite and >= 0, not {self.weight_decay}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise TrainError("batch size and epochs must be positive")
        if not (0 <= self.patience <= self.max_epochs):
            raise TrainError("patience must lie in [0, max_epochs]")


@dataclass
class TrainLog:
    """Per-epoch traces, one entry per epoch run, and the epoch that won."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0

    def n_epochs(self) -> int:
        return len(self.train_loss)


@dataclass
class LabeledSet:
    """Per-channel sample tensors with labels, one row per sample.

    ``rows`` references each sample's (T, F) tensor and copies none; an
    (N, T, F) array is such a sequence too.  ``take`` stacks only the chosen
    rows into a batch, and ``inputs`` stacks every row each time it is read.
    In ``run`` the rows are ``DTYPE``, and so is each batch: no cast to read."""

    rows: dict[str, Sequence[np.ndarray]]  # channel -> N (T, F) tensors
    labels: np.ndarray                     # (N,) class indices

    def __post_init__(self):
        n = self.labels.shape[0]
        for ch, rows in self.rows.items():
            if len(rows) != n:
                raise TrainError(f"{ch}: {len(rows)} rows but {n} labels")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def inputs(self) -> dict[str, np.ndarray]:
        """channel -> (N, T, F), stacked anew on each read."""
        return {ch: np.stack(rows) for ch, rows in self.rows.items()}

    def take(self, idx: np.ndarray) -> dict[str, np.ndarray]:
        """channel -> the rows at ``idx`` stacked, as ``inputs[ch][idx]`` would be."""
        return {ch: np.stack([rows[i] for i in idx]) for ch, rows in self.rows.items()}


class AdamW:
    """Adam moments with weight decay applied directly to the weights.

    The decay step w -= lr * wd * w happens alongside (not inside) the
    moment-scaled gradient step, so decay is independent of the gradient
    history; a zero-gradient parameter still shrinks by lr * wd per step.
    Each step takes every ``grad`` and leaves it None, one that backward did
    not reach counting as 0; a non-finite one raises before anything moves.
    """

    def __init__(self, params: list[ad.Param], config: TrainConfig):
        self.params = params
        self.lr = config.learning_rate
        self.weight_decay = config.weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in params]
        self._v = [np.zeros_like(p.value) for p in params]

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise TrainError(f"non-finite gradient for {p.name}")
        self.t += 1
        # both bias corrections fold into two scalars:
        # lr * m_hat / (sqrt(v_hat) + eps) = step * m / (sqrt(v) / root_c2 + eps)
        step = self.lr / (1.0 - BETA1 ** self.t)
        root_c2 = (1.0 - BETA2 ** self.t) ** 0.5  # a Python float keeps float32 loops
        decay = self.lr * self.weight_decay
        for p, m, v in zip(self.params, self._m, self._v):
            g = np.zeros_like(p.value) if p.grad is None else p.grad
            p.grad = None  # the step consumes it
            s = np.empty_like(g)  # the one temporary, reused by every update below
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=s)
            m += s
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=s)
            s *= g
            v += s
            np.multiply(p.value, decay, out=s)
            p.value -= s
            np.sqrt(v, out=s)
            s /= root_c2
            s += EPS
            np.divide(m, s, out=s)
            s *= step
            p.value -= s


def evaluate_loss(model: EmoMsase, data: LabeledSet) -> tuple[float, float]:
    """Mean cross-entropy and accuracy of the model on a labelled set, from
    logits in the weights' dtype; the loss reduces them in float64."""
    logits = model.predict_logits(data.inputs)
    loss = ad.softmax_cross_entropy(ad.Tape(recording=False),
                                    ad.leaf(logits.astype(np.float64)), data.labels)
    return float(loss.value), float((logits.argmax(axis=1) == data.labels).mean())


def fit(model: EmoMsase, train_set: LabeledSet, val_set: LabeledSet,
        config: TrainConfig = TrainConfig()) -> tuple[EmoMsase, TrainLog]:
    """Train in place and return the model restored to its best-epoch weights.

    Training is in ``DTYPE``: the weights are cast first, so steps, validation
    and the returned model's predictions are float32.  Each step consumes the
    gradients its backward made, so the returned weights hold none.
    Batches come from a seeded shuffle each epoch, keeping a short last one.
    Stops once validation loss goes more than ``patience`` epochs without improving.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise TrainError("both training and validation sets must be non-empty")
    model.cast(DTYPE)
    rng = np.random.default_rng(config.seed)
    opt = AdamW(model.parameters(), config)
    log = TrainLog()
    best_loss = np.inf
    best_values = None
    best_epoch = 0
    bad_streak = 0

    n = len(train_set)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            loss, tape = model.forward(train_set.take(idx), labels=train_set.labels[idx])
            if not np.isfinite(loss.value):
                raise TrainError(f"training loss diverged at epoch {epoch}")
            tape.backward(loss)
            opt.step()
            total += float(loss.value) * idx.shape[0]
        val_loss, val_acc = evaluate_loss(model, val_set)
        if not np.isfinite(val_loss):
            raise TrainError(f"validation loss diverged at epoch {epoch}")
        log.train_loss.append(total / n)
        log.val_loss.append(val_loss)
        log.val_accuracy.append(val_acc)

        if val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            best_values = [p.value.copy() for p in model.parameters()]
            bad_streak = 0
        else:
            bad_streak += 1
        if bad_streak > config.patience:
            break

    log.best_epoch = best_epoch
    for p, value in zip(model.parameters(), best_values):
        p.value = value
    return model, log
