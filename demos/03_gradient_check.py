"""Verify every analytic gradient in the graph against finite differences.

The whole classifier, LSTM stacks, three attention scales, SE gates and
the softmax head, is differentiated by the tape in autodiff.py.  Here a
small two-domain model (hidden size 4, 6 timesteps) is checked parameter
by parameter: nudge one coordinate by +/-1e-4, take the centered
difference of the loss, and compare with what backpropagation computed.
"""

import time

from emomsase.gradcheck import grad_check, micro_config

started = time.time()
report = grad_check(micro_config(), tolerance=1e-3, epsilon=1e-4, seed=0)
elapsed = time.time() - started

for entry in report.entries:
    print(f"{entry.name}: max rel err {entry.max_rel_error:.3e}")
print(f"\nchecked in {elapsed:.1f}s; worst relative error "
      f"{report.max_rel_error:.3e} ({'PASS' if report.passed else 'FAIL'})")

# the residual error collapses as the step shrinks, the signature of
# finite-difference truncation rather than a wrong derivative
for eps in (1e-4, 1e-5):
    r = grad_check(micro_config(), tolerance=1e-3, epsilon=eps, seed=0)
    print(f"epsilon {eps:.0e}: worst relative error {r.max_rel_error:.3e}")
