"""The multimodal classifier graph.

Per modality: a two-layer LSTM reads the windowed signal, then attention
pools the hidden sequence at three temporal scales (full, half, third
resolution, each with its own learnable context vector).  The three pooled
vectors concatenate into a context-aggregated vector (CAV) of length 3H.
Per domain, modality CAVs stack into an (M, 3H) block that a
squeeze-and-excitation gate recalibrates; all blocks then flatten into a
softmax classifier.

Variants (``VARIANT_SPECS``) differ only in the attention scales they pool
and whether they recalibrate; each builds just the parameters it uses:
  lstmsa     single-scale attention only, CAV length H, no recalibration
  lstmmsa    three scales, no recalibration
  emomsase   three scales plus squeeze-and-excitation (the full model)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteActivationError, Param, ShapeMismatchError, Tape, Var

N_LSTM_LAYERS = 2
N_CLASSES = 2  # every label is Low or High
# Attention scales, finest first: name -> timestep merge factor.
SCALES = (("short", 1), ("medium", 2), ("long", 3))
PREDICT_BATCH = 128  # rows per inference tape


class VariantSpec(NamedTuple):
    scales: tuple[str, ...]  # attention scales pooled, a prefix of SCALES
    se: bool                 # squeeze-and-excitation per domain


VARIANT_SPECS = {
    "lstmsa": VariantSpec(scales=("short",), se=False),
    "lstmmsa": VariantSpec(scales=("short", "medium", "long"), se=False),
    "emomsase": VariantSpec(scales=("short", "medium", "long"), se=True),
}
VARIANTS = tuple(VARIANT_SPECS)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters plus the modality layout.

    ``domain_channels`` fixes the domain order and, within each domain, the
    modality order; ``feature_sizes`` gives the per-channel window length F.
    """

    domain_channels: tuple[tuple[str, tuple[str, ...]], ...]
    feature_sizes: dict[str, int]
    hidden_size: int = 128
    se_reduction: int = 4
    variant: str = "emomsase"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.hidden_size < 1:
            raise ValueError("hidden size must be positive")
        if not self.domain_channels:
            raise ValueError("need at least one domain")
        domains = tuple(d for d, _ in self.domain_channels)
        for kind, names in (("domain", domains), ("channel", self.channels)):
            for i, name in enumerate(names):  # a repeat would share one SE gate or branch
                if name in names[:i]:
                    raise ValueError(f"{kind} {name!r} is listed more than once")
        for domain, channels in self.domain_channels:
            if not channels:
                raise ValueError(f"domain {domain} has no channels")
            for ch in channels:
                if ch not in self.feature_sizes:
                    raise ValueError(f"no feature size for channel {ch!r}")
        cav = self.cav_length
        if self.spec.se and (self.se_reduction < 1 or cav % self.se_reduction != 0):
            raise ValueError(
                f"reduction {self.se_reduction} must divide the CAV length {cav}")

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(ch for _, chs in self.domain_channels for ch in chs)

    @property
    def spec(self) -> VariantSpec:
        return VARIANT_SPECS[self.variant]

    @property
    def cav_length(self) -> int:
        return len(self.spec.scales) * self.hidden_size

    def restrict(self, domains: list[str]) -> "ModelConfig":
        """Keep only the named domains (used for per-domain decision fusion)."""
        kept = tuple((d, chs) for d, chs in self.domain_channels if d in domains)
        if not kept:
            raise ValueError(f"no configured domain among {domains}")
        return replace(self, domain_channels=kept)


def _uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def lstm_features(tape: Tape, x: Var, layers: list[tuple[Param, Param, Param]]) -> Var:
    """Hidden sequence (B, T, H) of the top LSTM layer for windowed input x.

    ``layers`` holds one (wx, wh, b) triple per layer, bottom first: wx is
    (F, 4H), gate blocks ordered input, forget, output, cell-candidate; wh is
    (H, 4H) and b is (4H,).
    """
    if x.value.ndim != 3:
        raise ShapeMismatchError(f"expected (B, T, F) input, got {x.value.shape}")
    h = x
    for wx, wh, b in layers:
        h = ad.lstm_layer(tape, h, wx, wh, b)
    return h


def scale_attention(tape: Tape, hidden: Var, u: Param) -> tuple[Var, Var]:
    """Softmax attention pooling of (B, T, H) against one context vector.

    Returns (weights (B, T), pooled (B, H)); the weights are a convex
    combination, so each pooled coordinate stays inside the per-coordinate
    range of the hidden states.
    """
    scores = ad.dot_last(tape, hidden, u)
    weights = ad.softmax(tape, scores)
    pooled = ad.weighted_sum(tape, weights, hidden)
    return weights, pooled


def msa(tape: Tape, hidden: Var, contexts: dict[str, Param]) -> Var:
    """Multi-scale attention: pool at full, half and third resolution, for
    each scale that has a context vector, and concatenate the results, finest
    first, into the CAV (B, H per scale)."""
    parts = []
    for scale, factor in SCALES:
        if scale in contexts:
            seq = hidden if factor == 1 else ad.merge_pairs_mean(tape, hidden, factor)
            parts.append(scale_attention(tape, seq, contexts[scale])[1])
    return parts[0] if len(parts) == 1 else ad.concat(tape, parts, axis=-1)


def se_recalibrate(tape: Tape, stacked: Var, w1: Param, w2: Param) -> Var:
    """Gate a (B, M, L) modality stack by squeeze-and-excitation.

    Squeeze averages over the modality axis; the excitation MLP
    (L -> L/r -> L through w1 (L, L/r) and w2 (L/r, L), ReLU then sigmoid)
    yields per-feature gates in (0, 1) that multiply every modality row.
    """
    if stacked.value.ndim != 3:
        raise ShapeMismatchError(f"expected (B, M, L), got {stacked.value.shape}")
    z = ad.mean_axis(tape, stacked, axis=1)
    s = ad.sigmoid(tape, ad.matmul(tape, ad.relu(tape, ad.matmul(tape, z, w1)), w2))
    b, l = s.value.shape
    return ad.mul(tape, stacked, ad.reshape(tape, s, (b, 1, l)))


def fuse_and_classify(tape: Tape, domain_blocks: list[Var], w: Param, b: Param) -> Var:
    """Concatenate (B, M_d, L) blocks over modalities into (B, C) class logits
    through the head's (M L, C) weights ``w`` and (C,) bias ``b``."""
    if not domain_blocks:
        raise ShapeMismatchError("no domain blocks to fuse")
    fused = domain_blocks[0] if len(domain_blocks) == 1 else ad.concat(
        tape, domain_blocks, axis=1)
    n, m, l = fused.value.shape
    if m * l != w.value.shape[0]:
        raise ShapeMismatchError(
            f"fused width {m * l} does not match head input {w.value.shape[0]}")
    flat = ad.reshape(tape, fused, (n, m * l))
    return ad.add(tape, ad.matmul(tape, flat, w), b)


class EmoMsase:
    """The full classifier with per-modality extractors and a shared head."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        h = config.hidden_size
        cav_len = config.cav_length
        # every weight, by name: <channel>/lstm<i>/{wx,wh,b}, <channel>/attn/u_<scale>,
        # <domain>/se/{w1,w2} and head/{w,b}, in draw order
        self.params: dict[str, Param] = {}

        def add(name: str, value: np.ndarray) -> None:
            self.params[name] = Param(name, value)

        for domain, channels in config.domain_channels:
            for ch in channels:
                width = config.feature_sizes[ch]
                for layer in range(N_LSTM_LAYERS):
                    add(f"{ch}/lstm{layer}/wx", _uniform_init(rng, (width, 4 * h), width))
                    add(f"{ch}/lstm{layer}/wh", _uniform_init(rng, (h, 4 * h), h))
                    b0 = np.zeros(4 * h)
                    b0[h:2 * h] = 1.0  # forget gate starts at +1, the other biases at 0
                    add(f"{ch}/lstm{layer}/b", b0)
                    width = h
                for scale in config.spec.scales:
                    add(f"{ch}/attn/u_{scale}", _uniform_init(rng, (h,), h))
            if config.spec.se:
                se_hidden = cav_len // config.se_reduction
                add(f"{domain}/se/w1", _uniform_init(rng, (cav_len, se_hidden), cav_len))
                add(f"{domain}/se/w2", _uniform_init(rng, (se_hidden, cav_len), se_hidden))
        in_dim = len(config.channels) * cav_len
        add("head/w", _uniform_init(rng, (in_dim, N_CLASSES), in_dim))
        add("head/b", np.zeros(N_CLASSES))

    def parameters(self) -> list[Param]:
        return list(self.params.values())

    def cast(self, dtype) -> None:
        """Cast every weight, and a gradient where backward left one, to ``dtype``."""
        for p in self.parameters():
            p.value = p.value.astype(dtype, copy=False)
            if p.grad is not None:
                p.grad = p.grad.astype(dtype, copy=False)

    def modality_cav(self, tape: Tape, x: Var, channel: str) -> Var:
        expected_f = self.config.feature_sizes[channel]
        if x.value.ndim != 3 or x.value.shape[2] != expected_f:
            raise ShapeMismatchError(
                f"{channel}: expected (B, T, {expected_f}), got {x.value.shape}")
        p = self.params
        hidden = lstm_features(tape, x, [
            tuple(p[f"{channel}/lstm{layer}/{w}"] for w in ("wx", "wh", "b"))
            for layer in range(N_LSTM_LAYERS)])
        return msa(tape, hidden, {scale: p[f"{channel}/attn/u_{scale}"]
                                  for scale in self.config.spec.scales})

    def classify(self, tape: Tape, cavs: dict[str, Var]) -> Var:
        """Stack per-modality CAVs per domain, recalibrate, fuse, and score
        into class logits."""
        p = self.params
        blocks = []
        for domain, channels in self.config.domain_channels:
            block = ad.stack_rows(tape, [cavs[ch] for ch in channels])
            if self.config.spec.se:
                block = se_recalibrate(tape, block, p[f"{domain}/se/w1"], p[f"{domain}/se/w2"])
            blocks.append(block)
        return fuse_and_classify(tape, blocks, p["head/w"], p["head/b"])

    def logits(self, tape: Tape, batch: dict[str, np.ndarray]) -> Var:
        """Class logits (B, C) for a batch of per-channel tensors, on ``tape``:
        the one node that probabilities and the loss both read."""
        missing = [ch for ch in self.config.channels if ch not in batch]
        if missing:
            raise ShapeMismatchError(f"batch is missing channel(s) {missing}")
        cavs = {ch: self.modality_cav(tape, ad.leaf(batch[ch]), ch)
                for ch in self.config.channels}
        logits = self.classify(tape, cavs)
        if not np.all(np.isfinite(logits.value)):
            raise NonFiniteActivationError("non-finite class logits")
        return logits

    def forward(self, batch: dict[str, np.ndarray],
                labels: np.ndarray | None = None) -> tuple[Var, Tape]:
        """Class probabilities (B, C) of per-channel tensors on a new recording
        tape; given ``labels``, the mean cross-entropy: the training loss."""
        tape = Tape()
        logits = self.logits(tape, batch)
        if labels is not None:
            return ad.softmax_cross_entropy(tape, logits, labels), tape
        return ad.softmax(tape, logits), tape

    def _chunks(self, inputs: dict[str, np.ndarray], batch_size: int):
        """Stacked inputs in slices of ``batch_size`` rows, once both check out."""
        if batch_size < 1:
            raise ValueError(f"predict batch size must be at least 1, got {batch_size}")
        rows = {ch: x.shape[0] for ch, x in inputs.items()}
        if len(set(rows.values())) > 1:
            raise ShapeMismatchError(f"channels disagree on the sample count: {rows}")
        n = max(rows.values(), default=0)
        # zero samples still run one empty chunk, so the batch checks apply
        for start in range(0, max(n, 1), batch_size):
            yield {ch: x[start:start + batch_size] for ch, x in inputs.items()}

    def predict_logits(self, inputs: dict[str, np.ndarray],
                       batch_size: int = PREDICT_BATCH) -> np.ndarray:
        """Class logits (N, C) of stacked inputs, one inference tape per chunk."""
        return np.concatenate([self.logits(Tape(recording=False), part).value
                               for part in self._chunks(inputs, batch_size)], axis=0)

    def predict(self, inputs: dict[str, np.ndarray],
                batch_size: int = PREDICT_BATCH) -> np.ndarray:
        """Row softmax of ``predict_logits``, equal bit for bit to ``forward``
        on the same chunks; zero samples give an empty (0, C) array."""
        logits = self.predict_logits(inputs, batch_size)
        return ad.softmax(Tape(recording=False), ad.leaf(logits)).value
