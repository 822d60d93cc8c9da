"""First piggybacking layout C(n, k, s, k') with k' > 0.

Columns 1..s hold (n, k) codewords a_1..a_s; column s+1 holds an (n, k')
codeword of data b. Each symbol of the first s columns is folded into
exactly one of the h+r-1 piggyback sums p_1..p_{h+r-1}; p_tau is added to
the parity symbol in row k'+1+tau of the last column. Single-node repair
recovers the s+1 lost symbols by reading k' last-column symbols plus the
piggyback sums that contain the lost cells, never touching the failed row.

The placement rule ``piggyback_index``, encode, repair and decode live in
``piggyback.stripe``; they are re-exported here because the benchmark in
``perfbench/`` patches and calls them under this name.
"""

from .stripe import build_map, decode_from_k, encode_stripe, repair_node  # noqa: F401
from .stripe import piggyback_index  # noqa: F401
