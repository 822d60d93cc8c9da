"""The MDS special case k' = k: every column is an (n, k) codeword.

With two instances of a (20,14) code and one piggyback sum per parity row,
any single node repairs with 18 or 22 symbol reads instead of the 28 a
plain decode would need, and the code is still MDS: any 14 of the 20
nodes recover everything.
"""

import random

from piggyback import CodeParams, analysis, stripe

params = CodeParams(n=20, k=14, s=1, kprime=14, w=8)
print(f"code: {params.describe()}  (r = {params.r}, MDS)")

report = analysis.gamma_sim(params)
print(f"per-node repair bandwidth: {report.per_node_bandwidth}")
print(f"average ratio: {report.gamma_sim} = {float(report.gamma_sim):.4f}")

gmin, gmax = report.gamma_min, report.gamma_max
print(f"lower/upper bound: {float(gmin):.6f} / {float(gmax):.6f} "
      f"(simulated ratio sits on the lower bound here)")

# MDS property: decode the full stripe from random 14-node subsets
rng = random.Random(11)
data = [rng.randrange(256) for _ in range(params.data_symbols)]
grid = stripe.encode_stripe(params, data)
for _ in range(50):
    keep = rng.sample(range(1, 21), 14)
    rows = {f: [int(x) for x in grid.cells[f - 1]] for f in keep}
    assert stripe.decode_from_k(params, rows) == data
print("decoded the full stripe from 50 random 14-node subsets: OK")

# the best instance count for a target r, by the large-k limit and at finite k
for r in (8, 9, 16):
    s_inf = analysis.optimal_s(r)
    print(f"r={r}: optimal s (large-k limit) = {s_inf}, "
          f"limit ratio = {float(analysis.limit_gamma_mds(r, s_inf)):.4f}")
