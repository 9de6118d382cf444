"""Learn a Boolean product distribution with mixed biases.

The learner partitions coordinates over rounds: clearly-biased coordinates
freeze early from their own disjoint data block, rare coordinates get later
rounds with tighter truncation.  The final model is compared to the truth in
exact total variation (brute force over all 2^d outcomes).
"""

import argparse

import numpy as np

from privest import NoiseSource, ppde, tv_product_exact
from privest.product import TAU_1, U_1, ProductModel, num_rounds, sample_product

parser = argparse.ArgumentParser()
parser.add_argument("--rho", type=float, default=1.0)
parser.add_argument("--m", type=int, default=20_000, help="rows per round block")
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

d = 12
p = np.array([0.4] * 4 + [0.05] * 4 + [1.0 / d] * 4)
n = (num_rounds(d) + 1) * args.m

x = sample_product(ProductModel(p), n, NoiseSource(1000 + args.seed))
model = ppde(x, args.rho, 0.15, 0.05, NoiseSource(args.seed), m=args.m)

# round r's active coordinates froze in round r or later; u and tau halve each round
froze_in = model.diagnostics["froze_in"]
for r, b in enumerate(model.diagnostics["B"], start=1):
    print(f"round {r}: active={(froze_in >= r).sum():2d} froze {(froze_in == r).sum():2d} "
          f"(u={U_1 * 2.0 ** (1 - r):.4f}, tau={TAU_1 * 2.0 ** (1 - r):.4f}, B={b:.2f})")
print("true p  ", np.round(p, 3))
print("learned ", np.round(model.p, 3))
print(f"exact TV = {tv_product_exact(p, model.p):.4f} "
      f"(budget rho={model.budget_spent.rho:g})")
