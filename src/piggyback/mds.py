"""Systematic (n, k) MDS codes over GF(2^w).

Two generator families are supported:

* ``guaranteed_rs`` -- evaluation-based systematic Reed-Solomon: the data
  defines a degree-(k-1) polynomial through k distinct points and the
  parity symbols are its values at n-k further points. Every k x k
  submatrix of the generator is invertible by construction.
* ``vandermonde_literal`` -- parity row j holds the consecutive powers
  eta^(c*(j-1)). Not guaranteed MDS for every (n, k, w); gate it with
  ``verify_mds`` before trusting erasure decodes.

Positions are 1-based everywhere: 1..k are data, k+1..n parity.
"""

from __future__ import annotations

import functools
import itertools
import random
import threading
from collections import OrderedDict
from math import comb
from typing import Mapping, NamedTuple

from .errors import DecodeError, InsufficientDataError, ParameterError
from .field import Field, field, parity_vectors, symbols_equal

FAMILIES = ("guaranteed_rs", "vandermonde_literal")


class MdsCheck(NamedTuple):
    passed: bool
    witness: tuple[int, ...] | None
    tested: int


class MdsCode:
    """Systematic (n, k) erasure code instance.

    ``rows`` is the n x k matrix mapping data to code symbols: identity on
    top, parity rows below. All symbol arguments may be ints or numpy
    arrays of the same shape (stripe batches).
    """

    def __init__(self, n: int, k: int, fld: Field, family: str = "guaranteed_rs"):
        if not 1 <= k <= n:
            raise ParameterError(f"need 1 <= k <= n, got n={n} k={k}")
        if family not in FAMILIES:
            raise ParameterError(f"unknown generator family {family!r}")
        self.n = n
        self.k = k
        self.r = n - k
        self.fld = fld
        self.family = family

        if family == "vandermonde_literal":
            self.parity = parity_vectors(k, self.r, fld) if self.r else []
        else:
            if n > fld.q:
                raise ParameterError(
                    f"guaranteed_rs needs n <= 2^w distinct points, got n={n} w={fld.w}"
                )
            self.parity = self._rs_parity()
        self.rows = [
            [1 if c == j else 0 for c in range(k)] for j in range(k)
        ] + self.parity
        # decode matrices for recently seen position sets (bounded LRU);
        # the instance is otherwise immutable and safe to share
        self._inv_cache: OrderedDict[tuple[int, ...], list[list[int]]] = OrderedDict()
        self._inv_cache_max = 2048
        self._inv_lock = threading.Lock()

    def _rs_parity(self) -> list[list[int]]:
        # Lagrange basis through points 0..k-1 evaluated at points k..n-1.
        f = self.fld
        pts = list(range(self.k))
        denom = []
        for c, xc in enumerate(pts):
            d = 1
            for m, xm in enumerate(pts):
                if m != c:
                    d = f.mul(d, xc ^ xm)
            denom.append(d)
        parity = []
        for y in range(self.k, self.n):
            full = 1
            for xm in pts:
                full = f.mul(full, y ^ xm)
            parity.append(
                [f.div(full, f.mul(y ^ xc, denom[c])) for c, xc in enumerate(pts)]
            )
        return parity

    def __repr__(self) -> str:
        return f"MdsCode(n={self.n}, k={self.k}, w={self.fld.w}, family={self.family!r})"

    def encode(self, data) -> list:
        """Data (length k) to full codeword (length n, systematic)."""
        data = list(data)
        if len(data) != self.k:
            raise ParameterError(f"expected {self.k} data symbols, got {len(data)}")
        return data + [self.fld.dot(row, data) for row in self.parity]

    def parity_symbol(self, j: int, data) -> int:
        """Parity symbol j (1-based) for the given data."""
        if not 1 <= j <= self.r:
            raise ParameterError(f"parity index {j} out of [1, {self.r}]")
        return self.fld.dot(self.parity[j - 1], data)

    def symbol_at(self, pos: int, data):
        """Codeword symbol at position pos (1-based) for the given data."""
        if not 1 <= pos <= self.n:
            raise ParameterError(f"position {pos} out of [1, {self.n}]")
        if pos <= self.k:
            return data[pos - 1]
        return self.fld.dot(self.parity[pos - self.k - 1], data)

    def decode_data(self, known: Mapping[int, object]) -> list:
        """Recover the k data symbols from >= k (position, symbol) pairs.

        Raises InsufficientDataError with fewer than k positions and
        DecodeError if the system is singular (possible only for the
        vandermonde_literal family).
        """
        positions = sorted(known)
        if len(positions) < self.k:
            raise InsufficientDataError(
                f"need {self.k} positions to decode, got {len(positions)}"
            )
        if positions and not (1 <= positions[0] and positions[-1] <= self.n):
            raise ParameterError(f"positions out of [1, {self.n}]: {positions}")
        use = tuple(positions[: self.k])
        if use == tuple(range(1, self.k + 1)):
            return [known[p] for p in use]
        with self._inv_lock:
            inv = self._inv_cache.get(use)
            if inv is not None:
                self._inv_cache.move_to_end(use)
        if inv is None:
            mat = [self.rows[p - 1] for p in use]
            inv = _invert(mat, self.fld)
            if inv is None:
                raise DecodeError(f"singular decode system for positions {use}")
            with self._inv_lock:
                self._inv_cache[use] = inv
                if len(self._inv_cache) > self._inv_cache_max:
                    self._inv_cache.popitem(last=False)
        ys = [known[p] for p in use]
        return [self.fld.dot(row, ys) for row in inv]

    def decode(self, known: Mapping[int, object], verify: bool = True) -> list:
        """Recover the full codeword from >= k (position, symbol) pairs.

        Like decode_data, and additionally checks every supplied symbol
        against the re-encoded codeword when verify is set.
        """
        full = self.encode(self.decode_data(known))
        if verify:
            for p, v in known.items():
                if not symbols_equal(full[p - 1], v):
                    raise DecodeError(
                        f"supplied symbol at position {p} disagrees with decode"
                    )
        return full

    def verify_mds(
        self,
        mode: str = "exhaustive",
        budget: int = 10**6,
        samples: int = 1000,
        seed: int = 0,
    ) -> MdsCheck:
        """Check that every (or a sample of) k-subset of positions decodes.

        Exhaustive mode refuses to run past `budget` subsets and points at
        sampled mode instead. Returns the first failing subset as witness.
        """
        if mode == "exhaustive":
            total = comb(self.n, self.k)
            if total > budget:
                raise ParameterError(
                    f"C({self.n},{self.k})={total} exceeds budget {budget}; "
                    f"use mode='sampled'"
                )
            subsets = itertools.combinations(range(1, self.n + 1), self.k)
        elif mode == "sampled":
            rng = random.Random(seed)
            all_pos = list(range(1, self.n + 1))
            subsets = (
                tuple(sorted(rng.sample(all_pos, self.k))) for _ in range(samples)
            )
        else:
            raise ParameterError(f"unknown mode {mode!r}")

        tested = 0
        for sub in subsets:
            tested += 1
            mat = [self.rows[p - 1] for p in sub]
            if _invert(mat, self.fld) is None:
                return MdsCheck(False, tuple(sub), tested)
        return MdsCheck(True, None, tested)


def _invert(mat: list[list[int]], fld: Field) -> list[list[int]] | None:
    """Gauss-Jordan inverse over the field, or None if singular."""
    k = len(mat)
    aug = [row[:] + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(mat)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = fld.inv(aug[col][col])
        aug[col] = [fld.mul(pv, x) for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x ^ fld.mul(factor, y) for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


@functools.lru_cache(maxsize=None)
def mds_code(n: int, k: int, w: int, family: str = "guaranteed_rs") -> MdsCode:
    """Shared MdsCode instance (decode matrices cached per instance)."""
    return MdsCode(n, k, field(w), family)
