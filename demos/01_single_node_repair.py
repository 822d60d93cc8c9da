"""Single-node repair walkthrough on the C(8,6,1,3) layout.

Eight nodes store two symbols each: column 1 is an (8,6) codeword, column
2 an (8,3) codeword whose parity symbols carry piggyback sums of column-1
cells. Repairing a node downloads far fewer symbols than the naive
download-6-symbols decode.
"""

import random

from piggyback import CodeParams, analysis, grid_reader, stripe

params = CodeParams(n=8, k=6, s=1, kprime=3, w=8)
print(f"code: {params.describe()}")
print(f"data symbols per stripe: {params.data_symbols} "
      f"(s*k = {params.s * params.k} in the first columns, "
      f"k' = {params.kprime} in the last)\n")

pb = stripe.build_map(params)
print("piggyback sums (column, row contributors):")
for tau, sources in pb.contributors.items():
    print(f"  p_{tau} <- {list(sources)}  stored in row {params.kprime + 1 + tau}")

rng = random.Random(7)
data = [rng.randrange(256) for _ in range(params.data_symbols)]
grid = stripe.encode_stripe(params, data)

print("\nrepairing each node in turn:")
for f in range(1, params.n + 1):
    row, report = stripe.repair_node(params, f, grid_reader(grid, failed={f}))
    assert row == grid.cells[f - 1].tolist()
    print(f"  node {f}: bandwidth {report.bandwidth} symbols, reads {list(report.reads)}")

report = analysis.gamma_sim(params)
print(f"\naverage repair bandwidth ratio over all nodes: "
      f"{report.gamma_sim} = {float(report.gamma_sim):.4f}")
print(f"closed-form upper bound:                        "
      f"{report.gamma_bound} = {float(report.gamma_bound):.4f}")
naive = params.k * (params.s + 1)
print(f"rebuilding a node by plain decode would read k full rows: "
      f"{naive} symbols (ratio {naive / params.data_symbols:.4f})")
