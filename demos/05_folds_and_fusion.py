"""Subject-grouped cross-validation and the two ways to fuse domains.

Splits assign whole participants, never individual samples, so a person's
recordings can never leak between training and testing.  Domains combine
either at the feature level (one model sees every channel) or at the
decision level (one model per domain, probabilities merged by Sum or Max).
"""

import numpy as np

from emomsase import preprocess
from emomsase.dataio import (
    LabelCase, LabelLookup, SyntheticSpec, default_synth_channels,
    derive_labels, make_synthetic,
)
from emomsase.evaluate import (
    Sample, fuse_decisions, group_kfold, loso, report_dict, results_rows,
    run_experiment,
)
from emomsase.model import ModelConfig
from emomsase.train import TrainConfig

participants = [f"p{i + 1:02d}" for i in range(8)]

print("group 4-fold over 8 participants (test/val/train sizes):")
plan = group_kfold(participants, k=4, seed=0)
for fold in plan.folds:
    print(f"  fold {fold.index}: test {sorted(fold.test)} "
          f"val {sorted(fold.val)} train {len(fold.train)} participants")
print(f"leave-one-subject-out instead: {len(loso(participants).folds)} folds\n")

# decision fusion on hand-picked probabilities of three models for two
# samples; Sum weighs total support, Max trusts the single most confident
# model, so they can differ.  The second sample is an exact tie, which goes
# to the lower class and is flagged
members = [np.array([[0.95, 0.05], [0.60, 0.40]]),
           np.array([[0.10, 0.90], [0.40, 0.60]]),
           np.array([[0.10, 0.90], [0.50, 0.50]])]
for rule in ("sum", "max"):
    classes, ties = fuse_decisions(members, rule)
    print(f"{rule} fusion -> classes {classes.tolist()}, ties {ties.tolist()}")
print()

# a small two-domain experiment, trained once per fusion style
CHANNELS = ("EDA", "L_EP_Y")
spec = SyntheticSpec(n_participants=8, seed=1, class_separation=2.0,
                     channels=default_synth_channels(list(CHANNELS)))
recordings, ratings = make_synthetic(spec)
by_pair = {}
for rec in recordings:
    tensor = preprocess.preprocess_channel(rec)
    s = by_pair.setdefault((rec.participant_id, rec.video_id),
                           Sample(rec.participant_id, rec.video_id, {}))
    s.tensors[rec.channel] = tensor.values
samples = [by_pair[k] for k in sorted(by_pair)]
labels = LabelLookup(derive_labels(ratings, LabelCase.GENERAL), "valence")

config = ModelConfig(
    domain_channels=(("Peripheral", ("EDA",)), ("Head", ("L_EP_Y",))),
    feature_sizes={ch: preprocess.feature_size(ch) for ch in CHANNELS},
    hidden_size=16, se_reduction=4, seed=2)
train_config = TrainConfig(max_epochs=4, patience=4, seed=3)

for fusion in ("modality", "sum"):
    result = run_experiment(samples, labels, config, plan, fusion=fusion,
                            train_config=train_config)
    print(f"{fusion:>8} fusion: mean accuracy {result.mean_accuracy:.3f}, "
          f"mean recall {result.mean_recall:.3f}")

print("\nsummary rows as written to results.csv:")
for row in results_rows(report_dict([result])["experiments"]):
    print(f"  {row}")
