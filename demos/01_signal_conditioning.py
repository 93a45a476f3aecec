"""Walk one recording through every conditioning step, by hand.

The pipeline turns a raw sensor trace into a (timesteps, features) tensor:
band-limit (or resample) the signal, z-score it, keep the last 40 seconds
of the viewing, then cut 2 second windows with 50% overlap.  This script
performs the steps one at a time on a synthetic ECG trace and then checks
that the one-call version, preprocess_channel, lands on the same tensor.
"""

import numpy as np

from emomsase import preprocess
from emomsase.dataio import (
    CHANNEL_CATALOG, SyntheticSpec, default_synth_channels, make_synthetic,
)
from emomsase.preprocess import (
    BAND_PASS, FilterSpec, butterworth_filter, segment, take_tail, zscore,
)

recordings, _ = make_synthetic(SyntheticSpec(
    n_participants=1, seed=0, class_separation=1.5,
    channels=default_synth_channels(["ECG1", "EDA", "L_EP_Y"])))
ecg = next(r for r in recordings if r.channel == "ECG1")
print(f"raw ECG: {len(ecg.values)} samples at {ecg.sample_rate_hz:g} Hz "
      f"({len(ecg.values) / ecg.sample_rate_hz:.0f} s), "
      f"mean {ecg.values.mean():+.3f}, std {ecg.values.std():.3f}")

# 1. band-limit to the 0.5-45 Hz cardiac band, forward and backward so the
#    filter adds no phase lag
band = FilterSpec(kind=BAND_PASS, low_hz=0.5, high_hz=45.0)
filtered = butterworth_filter(ecg.values, ecg.sample_rate_hz, band)
print(f"filtered: mean {filtered.mean():+.3f}, std {filtered.std():.3f} "
      f"(out-of-band energy gone)")

# 2. z-score over the whole recording
normed = zscore(filtered)
print(f"z-scored: mean {normed.mean():+.2e}, std {normed.std():.6f}")

# 3. the emotional response builds up while watching, so keep only the
#    final 40 s of the trace
tail = take_tail(normed, int(round(40.0 * ecg.sample_rate_hz)))
print(f"tail: {tail.shape[0]} samples "
      f"({tail.shape[0] / ecg.sample_rate_hz:.0f} s)")

# 4. slice into 2 s windows, hopping half a window at a time
window = int(round(2.0 * ecg.sample_rate_hz))
tensor = segment(tail, window_samples=window,
                 source=(ecg.participant_id, ecg.video_id, ecg.channel))
print(f"windows: {tensor.values.shape[0]} x {tensor.values.shape[1]} "
      f"(timesteps x features)")

one_call = preprocess.preprocess_channel(ecg)
print(f"preprocess_channel agrees: "
      f"{np.array_equal(one_call.values, tensor.values)}")

# every channel of a domain lands on the same tensor geometry; eye traces
# are sample-indexed, so they use a 2000 sample tail and 200 sample windows
print("\nshape chain per domain:")
for channel in ("EDA", "ECG1", "L_EP_Y"):
    rec = next(r for r in recordings if r.channel == channel)
    t = preprocess.preprocess_channel(rec)
    print(f"  {CHANNEL_CATALOG[channel].domain.value:<10} {channel:<6} "
          f"{t.values.shape[0]:>3} x {t.values.shape[1]}")
