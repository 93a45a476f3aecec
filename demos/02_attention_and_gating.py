"""Look inside the feature extractor: attention scales and SE gates.

Each channel's windows run through a two-layer LSTM; attention then pools
the hidden sequence three times, at full resolution, with step pairs
averaged, and with step triples averaged.  The three pooled vectors are
concatenated into the channel's feature vector.  Per domain, those
vectors stack into a matrix that a squeeze-and-excitation block rescales
feature by feature before classification.
"""

import numpy as np

from emomsase import autodiff as ad
from emomsase.autodiff import Tape, leaf
from emomsase.gradcheck import micro_config
from emomsase.model import (
    EmoMsase, lstm_features, msa, scale_attention, se_recalibrate,
)

rng = np.random.default_rng(7)
model = EmoMsase(micro_config(hidden_size=4))
channel = "ACC_Z"
x = leaf(rng.standard_normal((1, 6, 3)))  # one sample, 6 windows, 3 features

# every weight is in model.params, under a name such as ACC_Z/lstm0/wx
params = model.params
layers = [(params[f"{channel}/lstm{i}/wx"], params[f"{channel}/lstm{i}/wh"],
           params[f"{channel}/lstm{i}/b"]) for i in range(2)]
tape = Tape()
hidden = lstm_features(tape, x, layers)
print(f"hidden sequence: {hidden.value.shape} (batch, timesteps, units)")

# pooling weights form a probability distribution over timesteps
weights, pooled = scale_attention(tape, hidden, params[f"{channel}/attn/u_short"])
print(f"full-scale attention weights: {np.round(weights.value[0], 3)} "
      f"(sum {weights.value[0].sum():.9f})")

for factor, name in ((2, "pairs"), (3, "triples")):
    merged = ad.merge_pairs_mean(tape, hidden, factor)
    print(f"merging {name}: {hidden.value.shape[1]} steps "
          f"-> {merged.value.shape[1]}")

contexts = {scale: params[f"{channel}/attn/u_{scale}"]
            for scale in ("short", "medium", "long")}
cav = msa(tape, hidden, contexts)
print(f"feature vector per channel: {cav.value.shape[1]} values "
      f"(3 scales x {hidden.value.shape[2]} units)\n")

# stack both Peripheral channels and let the SE block rescale them
cavs = {ch: model.modality_cav(tape, leaf(rng.standard_normal((1, 6, 3))), ch)
        for ch in ("ACC_Z", "EDA")}
stacked = ad.stack_rows(tape, [cavs["ACC_Z"], cavs["EDA"]])
gated = se_recalibrate(tape, stacked, params["Peripheral/se/w1"],
                       params["Peripheral/se/w2"])
gain = gated.value[0, 0] / np.where(stacked.value[0, 0] == 0, 1,
                                    stacked.value[0, 0])
print(f"SE gains on the first stacked row: {np.round(gain, 3)}")
print(f"all gains inside (0, 1): "
      f"{bool(np.all((gain > 0) & (gain < 1)))}")
print(f"no feature grew: "
      f"{bool(np.all(np.abs(gated.value) <= np.abs(stacked.value)))}")
