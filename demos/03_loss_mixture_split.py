"""Splitting clean from corrupted pairs by modeling the loss histogram.

Early in training, pairs whose modalities genuinely match sit in a low-loss
bump and corrupted pairs in a high-loss bump. A two-component beta mixture
fitted by EM turns that shape into a per-pair mismatch probability.

Run:  python3 demos/03_loss_mixture_split.py
"""

import numpy as np

from rematch.mixture import fit_bmm, mismatch_probabilities, partition

rng = np.random.default_rng(0)

# --- synthetic loss data ------------------------------------------------------
# 60% clean pairs drawn from a low-mean component, 40% corrupted from a
# high-mean one; the generating labels are kept for scoring only
n = 3000
corrupted = rng.random(n) < 0.4
losses = np.where(corrupted, rng.beta(8, 2, n), rng.beta(2, 8, n))

# text histogram of the raw losses
counts, edges = np.histogram(losses, bins=20, range=(0, 1))
print("loss histogram (low bump = clean, high bump = corrupted):")
for count, left in zip(counts, edges):
    print(f"  {left:4.2f} {'#' * (60 * count // counts.max())}")

# --- fit and inspect ----------------------------------------------------------
bmm = fit_bmm(losses, em_iters=100, tol=1e-8)
print(f"\nfitted components: mean_lo={bmm.mean_lo:.3f} "
      f"mean_hi={bmm.mean_hi:.3f} weight_hi={bmm.weight_hi:.3f}")
print(f"EM took {len(bmm.loglik_trace)} iterations; "
      f"log-likelihood moved {bmm.loglik_trace[0]:.1f} -> {bmm.loglik_trace[-1]:.1f}")

deltas = np.diff(bmm.loglik_trace)
print(f"log-likelihood non-decreasing at every step: {bool((deltas >= -1e-12).all())}")

# --- posterior split ----------------------------------------------------------
posteriors = mismatch_probabilities(bmm, losses)
matched, flagged = partition(posteriors, threshold=0.5)
predicted = np.zeros(n, dtype=bool)
predicted[flagged] = True

tp = (predicted & corrupted).sum()
fp = (predicted & ~corrupted).sum()
fn = (~predicted & corrupted).sum()
precision = tp / (tp + fp)
recall = tp / (tp + fn)
print(f"\nsplit at threshold 0.5: {flagged.size} flagged of {n}")
print(f"precision={precision:.3f} recall={recall:.3f} "
      f"f1={2 * precision * recall / (precision + recall):.3f}")

print("\nposterior at a few loss values:")
for value in (0.05, 0.3, 0.5, 0.7, 0.95):
    print(f"  loss={value:.2f} -> mismatch probability "
          f"{float(mismatch_probabilities(bmm, np.array([value]))[0]):.4f}")
