"""Teaching the transport cost from rebuilt batches.

Feature-derived costs inherit the corruption of the features they came
from. The alternative demonstrated here: rebuild batches so that the truly
matching image positions are KNOWN, then charge the cost map only at those
positions. Descending that charge teaches the map that high similarity
should mean cheap transport, without trusting any label from the corrupted
dataset.

Run:  python3 demos/04_learned_costs.py
"""

import numpy as np

from rematch.costs import CostNetParams, cost_forward, cost_net_step, reconstruct_pairs
from rematch.data import make_benchmark
from rematch.encoder import init_params, similarity
from rematch.pipeline import TrainConfig, init_state, split_indices, warmup

rng = np.random.default_rng(0)

# --- a warmed-up encoder over corrupted data ---------------------------------
ds = make_benchmark(n=500, classes=10, noise=0.1, mrate=0.4, rng_seed=0)
cfg = TrainConfig(seed=0, warmup_epochs=10)
train_idx, _, _ = split_indices(cfg, ds)
state = init_state(cfg, ds)
warmup(state, ds, cfg)

flags = ds.matched[train_idx]
clean = train_idx[flags == 1]
broken = train_idx[flags == 0]

def pair_cost_means(theta):
    s, _ = similarity(state.params, ds.v_feats[train_idx], ds.t_feats[train_idx])
    diag = np.diag(s)
    costs = cost_forward(diag, theta)
    return costs[flags == 1].mean(), costs[flags == 0].mean()

theta = CostNetParams()   # slope -1, offset 1: cheap when similar, untrained
m0, x0 = pair_cost_means(theta)
print(f"before training: matched-pair cost {m0:.3f}, mismatched {x0:.3f}, "
      f"gap {x0 - m0:+.3f}")

# --- supervised descent on rebuilt batches ------------------------------------
# each step: sample true matches, keep half, substitute the rest with images
# from the corrupted pool, shuffle positions, charge the map at the kept cells
print(f"\n{'step':>6} {'w':>8} {'b':>8} {'charged cost':>13}")
step_rng = np.random.default_rng(1)
for step in range(400):
    batch = step_rng.choice(clean, size=64, replace=False)
    images, (rows, cols) = reconstruct_pairs(ds.v_feats[batch], ds.v_feats[broken],
                                             reserve_ratio=0.5, rng=step_rng)
    sims, _ = similarity(state.params, images, ds.t_feats[batch])
    charged = cost_forward(sims[rows, cols], theta).sum()
    theta, _ = cost_net_step(theta, sims[rows, cols], lr=1e-3)
    if step % 80 == 0 or step == 399:
        print(f"{step:>6} {theta.w:>8.3f} {theta.b:>8.3f} {charged:>13.4f}")

m1, x1 = pair_cost_means(theta)
print(f"\nafter training:  matched-pair cost {m1:.3f}, mismatched {x1:.3f}, "
      f"gap {x1 - m1:+.3f}")
print("the slope steepens, so genuinely compatible pairs become cheaper to"
      " connect while incompatible ones stay expensive")
