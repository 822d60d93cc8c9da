"""The k'=0 layout: repair for s+s^2 reads, survive r+1 failures.

C(7,5,2,0) stores two (7,5) codewords plus a third column of pure
piggyback sums. Every single node repairs with 6 reads (ratio 3/5), and
although r = 2, any 3 simultaneous failures are recoverable because
k = 5 > (s-1)(r+1)+1 = 4.
"""

import itertools
import random

from piggyback import CodeParams, analysis, grid_reader, stripe

params = CodeParams(n=7, k=5, s=2, kprime=0, w=8)
print(f"code: {params.describe()}")
print(f"guaranteed fault tolerance: {analysis.fault_tolerance(params)} "
      f"(= r+1 = {params.r + 1})")

rng = random.Random(3)
data = [rng.randrange(256) for _ in range(params.data_symbols)]
grid = stripe.encode_stripe(params, data)

row, report = stripe.repair_node(params, 1, grid_reader(grid, failed={1}))
print(f"\nnode 1 repair: bandwidth {report.bandwidth} = s+s^2, "
      f"reads {list(report.reads)}")

failed = [2, 4, 6]
pattern = stripe.FailurePattern.from_failed(params, failed)
print(f"\nfailing nodes {failed}: circular survivor gaps {pattern.gaps}")
print("recovery pulls one symbol of the widest-gap node out of a piggyback")
print("sum, decodes that column, and repeats for the next column:")
recovered = stripe.recover_nodes(params, failed, grid_reader(grid, failed=set(failed)))
for f in failed:
    assert recovered[f] == grid.cells[f - 1].tolist()
    print(f"  node {f} restored: {recovered[f]}")

count = 0
for pattern in itertools.combinations(range(1, 8), 3):
    rec = stripe.recover_nodes(params, pattern, grid_reader(grid, failed=set(pattern)))
    assert all(rec[f] == grid.cells[f - 1].tolist() for f in pattern)
    count += 1
print(f"\nall {count} possible triple failures recovered exactly")

report = analysis.gamma_sim(params)
print(f"average repair bandwidth ratio: {report.gamma_sim} "
      f"(the closed form (s+1)/k = {(params.s + 1)}/{params.k})")
