"""Subject-grouped cross-validation, metrics and decision-level fusion.

Splits operate on participant ids, never on samples, so no participant can
appear on two sides of a fold.  Metrics treat High (class 1) as the
positive class.  Decision fusion works on arrays: it combines each domain
model's (N, C) test probabilities, either by summing them or by trusting
the single largest probability, into N classes and N tie flags.

An experiment's result is one record, the dict that ``report.json`` holds
under ``experiments``: ``run_experiment`` returns it, ``fold_report`` builds
each fold's part, and the writers take a list of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .dataio import HIGH, LabelLookup, write_atomic, write_csv
from .model import N_CLASSES, EmoMsase, ModelConfig
from .train import LabeledSet, TrainConfig, TrainLog, fit

FUSION_MODALITY = "modality"
FUSION_SUM = "sum"
FUSION_MAX = "max"
FUSION_MODES = (FUSION_MODALITY, FUSION_SUM, FUSION_MAX)

RESULTS_COLUMNS = ("combination", "label_case", "metric", "value")


class EvaluateError(ValueError):
    pass


@dataclass(frozen=True)
class Fold:
    index: int
    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]

    def check_disjoint(self) -> None:
        sides = [set(self.train), set(self.val), set(self.test)]
        if not all(sides):
            raise EvaluateError(f"fold {self.index}: every side must be non-empty")
        if sides[0] & sides[1] or sides[0] & sides[2] or sides[1] & sides[2]:
            raise EvaluateError(f"fold {self.index}: participant on two sides")


@dataclass(frozen=True)
class SplitPlan:
    scheme: str
    participants: tuple[str, ...]
    folds: tuple[Fold, ...]

    def __post_init__(self):
        everyone = set(self.participants)
        for fold in self.folds:
            fold.check_disjoint()
            union = set(fold.train) | set(fold.val) | set(fold.test)
            if union != everyone:
                raise EvaluateError(
                    f"fold {fold.index}: sides do not cover all participants")


def _rotate(scheme: str, participants: list[str], groups: list[tuple[str, ...]]) -> SplitPlan:
    """Fold i tests group i, validates on group i+1 (mod k), trains on the rest."""
    if len(set(participants)) != len(participants):
        raise EvaluateError("duplicate participant ids")
    k = len(groups)
    folds = tuple(
        Fold(index=i, val=groups[(i + 1) % k], test=groups[i],
             train=tuple(pid for j, g in enumerate(groups) if j not in (i, (i + 1) % k)
                         for pid in g))
        for i in range(k))
    return SplitPlan(scheme=scheme, participants=tuple(participants), folds=folds)


def group_kfold(participants: list[str], k: int, seed: int) -> SplitPlan:
    """Deal shuffled participants round-robin into k groups and rotate them;
    k must leave at least one training group (k >= 3)."""
    participants = list(participants)
    if k > len(participants):
        raise EvaluateError(f"cannot make {k} groups from {len(participants)} participants")
    if k < 3:
        raise EvaluateError("k must be >= 3 so each fold keeps a training side")
    rng = np.random.default_rng(seed)
    order = [participants[i] for i in rng.permutation(len(participants))]
    return _rotate(f"kfold{k}", participants, [tuple(order[i::k]) for i in range(k)])


def loso(participants: list[str]) -> SplitPlan:
    """Leave-one-subject-out: rotate one-participant groups, so each fold tests
    one participant and validates on the next one (cyclically)."""
    participants = list(participants)
    if len(participants) < 3:
        raise EvaluateError("leave-one-out needs at least 3 participants")
    return _rotate("loso", participants, [(pid,) for pid in participants])


def fold_report(fold: Fold, predicted: np.ndarray, true: np.ndarray,
                logs: dict[str, TrainLog]) -> dict:
    """One fold's report entry: accuracy, High-class recall and confusion counts
    (rows true class, columns predicted) of its test classes, its sides, and
    each member's training summary."""
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    np.add.at(confusion, (true, predicted), 1)
    positives = confusion[HIGH, :].sum()
    return {
        "fold": fold.index,
        "accuracy": float((predicted == true).mean()),
        "recall": float(confusion[HIGH, HIGH] / positives if positives else 0.0),
        "n_test_samples": int(true.shape[0]),
        "confusion": confusion.tolist(),
        "train_participants": list(fold.train),
        "val_participants": list(fold.val),
        "test_participants": list(fold.test),
        "training": {name: {
            "best_epoch": log.best_epoch,
            "stopped_epoch": log.n_epochs(),
            "final_val_loss": log.val_loss[log.best_epoch - 1] if log.best_epoch else None,
        } for name, log in logs.items()},
    }


def fuse_decisions(member_probs: list[np.ndarray], rule: str) -> tuple[np.ndarray, np.ndarray]:
    """The (N,) classes and (N,) tie flags fused from each member's (N, C)
    probabilities.

    ``sum`` adds the members' probabilities and takes the largest total;
    ``max`` takes the class holding the single largest probability of any
    member.  The members are stacked in float64 before the reduction, since a
    float32 sum can move an argmax or a tie.  Exact ties go to the lower class
    index and are flagged.
    """
    if not member_probs or len({np.shape(p) for p in member_probs}) > 1:
        raise EvaluateError("fusion needs members whose probabilities share one shape")
    stacked = np.asarray(member_probs, dtype=np.float64)
    if stacked.ndim != 3 or (stacked < 0).any():
        raise EvaluateError("each member's probabilities must be non-negative (N, C)")
    if rule not in (FUSION_SUM, FUSION_MAX):
        raise EvaluateError(f"unknown fusion rule {rule!r}")
    support = stacked.sum(axis=0) if rule == FUSION_SUM else stacked.max(axis=0)
    ties = (support == support.max(axis=1, keepdims=True)).sum(axis=1) > 1
    return support.argmax(axis=1), ties  # argmax already prefers the lower index


@dataclass
class Sample:
    """All channel tensors for one participant watching one video; ``run``
    holds them in the training dtype, ``train.DTYPE``, from load on."""

    participant_id: str
    video_id: str
    tensors: dict[str, np.ndarray]  # channel -> (T, F)


def build_labeled_set(samples: list[Sample], labels: LabelLookup,
                      channels: tuple[str, ...],
                      participants: tuple[str, ...]) -> LabeledSet:
    """The samples of the given participants as a labelled set whose rows
    reference their tensors: it stacks nothing and copies no tensor."""
    chosen = [s for s in samples if s.participant_id in participants]
    if not chosen:
        raise EvaluateError("no samples for the requested participants")
    rows = {ch: [] for ch in channels}
    y = []
    for s in chosen:
        label = labels.class_for(s.participant_id, s.video_id)
        if label is None:
            raise EvaluateError(
                f"no {labels.dimension} label for {s.participant_id}/{s.video_id}")
        for ch in channels:
            if ch not in s.tensors:
                raise EvaluateError(f"{s.participant_id}/{s.video_id} lacks channel {ch}")
            rows[ch].append(s.tensors[ch])
        y.append(label)
    return LabeledSet(rows=rows, labels=np.array(y, dtype=int))


def member_plan(model_config: ModelConfig,
                fusion: str) -> tuple[dict[str, ModelConfig], str]:
    """The models a fusion mode trains, by name, and the rule that fuses their
    test probabilities: one model on all domains, or one model per domain."""
    if fusion not in FUSION_MODES:
        raise EvaluateError(f"unknown fusion mode {fusion!r}")
    if fusion == FUSION_MODALITY:
        # the sum of one member's probabilities is that member's own decision
        return {"model": model_config}, FUSION_SUM
    domains = [d for d, _ in model_config.domain_channels]
    if len(domains) < 2:
        raise EvaluateError("decision fusion needs at least two domains")
    return {d: model_config.restrict([d]) for d in domains}, fusion


def fit_member(samples: list[Sample], labels: LabelLookup, fold: Fold,
               model_config: ModelConfig,
               train_config: TrainConfig) -> tuple[np.ndarray, np.ndarray, TrainLog]:
    """One member's fold-seeded fit: its (N, C) test probabilities, the (N,) test
    labels and its log.  Pure; it returns no model, so its weights are freed on return."""
    model_config, train_config = (replace(c, seed=c.seed + 1000 * (fold.index + 1))
                                  for c in (model_config, train_config))
    tr, va, te = (build_labeled_set(samples, labels, model_config.channels, side)
                  for side in (fold.train, fold.val, fold.test))
    model, log = fit(EmoMsase(model_config), tr, va, train_config)
    return model.predict(te.inputs), te.labels, log


def run_experiment(samples: list[Sample], labels: LabelLookup,
                   model_config: ModelConfig, split: SplitPlan,
                   fusion: str = FUSION_MODALITY, train_config: TrainConfig = TrainConfig()
                   ) -> tuple[dict, list[dict[str, TrainLog]]]:
    """Train and score one model configuration across every fold of a split:
    each fold fits the members of ``member_plan`` one after another and fuses
    their test probabilities.  Returns the experiment's ``report.json`` entry
    and, for each fold in order, its members' logs by member name."""
    members, rule = member_plan(model_config, fusion)
    missing = set(split.participants) - {s.participant_id for s in samples}
    if missing:
        raise EvaluateError(f"split names unknown participants: {sorted(missing)}")

    folds, fold_logs = [], []
    for fold in split.folds:
        fold.check_disjoint()  # before any training; perfbench times a fold from here
        probs, true, logs = zip(*[fit_member(samples, labels, fold, cfg, train_config)
                                  for cfg in members.values()])
        predicted, _ = fuse_decisions(list(probs), rule)
        fold_logs.append(dict(zip(members, logs)))
        folds.append(fold_report(fold, predicted, true[0], fold_logs[-1]))

    return {
        "combination": "+".join(d for d, _ in model_config.domain_channels),
        "label_case": labels.case_name,
        "dimension": labels.dimension,
        "variant": model_config.variant,
        "fusion": fusion,
        "scheme": split.scheme,
        **{f"mean_{stat}": float(np.mean([f[stat] for f in folds]))
           for stat in ("accuracy", "recall")},
        "folds": folds,
    }, fold_logs


def results_rows(experiments: list[dict]) -> list[tuple[str, str, str, float]]:
    """Flatten ``run_experiment`` entries into (combination, label_case,
    metric, value) rows."""
    return [(exp["combination"], exp["label_case"], f"{exp['dimension']}_{stat}",
             exp[f"mean_{stat}"])
            for exp in experiments for stat in ("accuracy", "recall")]


def write_results_csv(path, experiments: list[dict]) -> None:
    write_csv(path, RESULTS_COLUMNS, results_rows(experiments))


def write_report_json(path, experiments: list[dict]) -> None:
    write_atomic(path, (json.dumps({"experiments": experiments}, indent=2, sort_keys=True)
                        + "\n").encode())
