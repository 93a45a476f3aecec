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
errors = grad_check(micro_config(), epsilon=1e-4, seed=0)
elapsed = time.time() - started

for name, error in errors.items():
    print(f"{name}: max rel err {error:.3e}")
passed = all(error < 1e-3 for error in errors.values())
print(f"\nchecked in {elapsed:.1f}s; worst relative error "
      f"{max(errors.values()):.3e} ({'PASS' if passed else 'FAIL'})")

# the residual error collapses as the step shrinks, the signature of
# finite-difference truncation rather than a wrong derivative
for eps in (1e-4, 1e-5):
    worst = max(grad_check(micro_config(), epsilon=eps, seed=0).values())
    print(f"epsilon {eps:.0e}: worst relative error {worst:.3e}")
