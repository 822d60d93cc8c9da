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

Erasure decode is the systematic solve of Plank's RS tutorial (SP&E 1997):
supplied data symbols pass through and only the e erased ones are solved,
from e parity symbols, by inverting an e x e block, not a k x k matrix. A
k-subset decodes exactly when that block is invertible (``verify_mds``).
Decode takes exactly k positions; which k, and any check of more, is the caller's.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import comb
from typing import Mapping, NamedTuple

from .errors import DecodeError, InsufficientDataError, ParameterError
from .field import Field, field, parity_vectors

FAMILIES = ("guaranteed_rs", "vandermonde_literal")


class MdsCheck(NamedTuple):
    passed: bool
    witness: tuple[int, ...] | None
    tested: int


class MdsCode:
    """Systematic (n, k) erasure code instance.

    ``parity`` is the r x k matrix mapping data to the parity symbols at
    positions k+1..n. All symbol arguments may be ints or numpy arrays of
    the same shape (stripe batches).
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
        # decode plans for recently seen position sets (bounded LRU); the
        # instance is otherwise immutable and safe to share. The cache holds
        # no reference to self, so a dropped instance is freed at once.
        self._plan = functools.lru_cache(maxsize=2048)(
            functools.partial(_solve_plan, self.parity, k, fld)
        )

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

    def symbol_at(self, pos: int, data):
        """Codeword symbol at position pos (1-based) for the given data."""
        if not 1 <= pos <= self.n:
            raise ParameterError(f"position {pos} out of [1, {self.n}]")
        if pos <= self.k:
            return data[pos - 1]
        return self.fld.dot(self.parity[pos - self.k - 1], data)

    def decode_data(self, known: Mapping[int, object]) -> list:
        """Recover the k data symbols from exactly k (position, symbol) pairs.

        The caller chooses the k positions. Their data symbols pass through
        and only the erased ones are solved (see ``_solve_plan``). The
        syndromes multiply stored parity coefficients, so stripe arrays
        reuse the product tables of encode. Raises InsufficientDataError
        with fewer than k positions, ParameterError with more, and
        DecodeError if the system is singular (possible only for the
        vandermonde_literal family).
        """
        use = tuple(sorted(known))
        k = self.k
        if len(use) < k:
            raise InsufficientDataError(f"need {k} positions to decode, got {len(use)}")
        if len(use) > k:
            raise ParameterError(f"decode takes exactly {k} positions, got {len(use)}")
        if not (1 <= use[0] and use[-1] <= self.n):
            raise ParameterError(f"positions out of [1, {self.n}]: {list(use)}")
        if use[-1] == k:  # all data positions supplied
            return [known[p] for p in use]
        plan = self._plan(use)
        if plan is None:
            raise DecodeError(f"singular decode system for positions {use}")
        erased, present, checks, b_rows, inv = plan
        dot = self.fld.dot
        ds = [known[c] for c in present]
        synd = [known[p] ^ dot(row, ds) for p, row in zip(checks, b_rows)]
        for c, row in zip(erased, inv):  # ascending, so each index is final
            ds.insert(c - 1, dot(row, synd))
        return ds

    def decode(self, known: Mapping[int, object]) -> list:
        """The full codeword from exactly k pairs: ``encode(decode_data(known))``."""
        return self.encode(self.decode_data(known))

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
            if _solve_plan(self.parity, self.k, self.fld, sub) is None:
                return MdsCheck(False, tuple(sub), tested)
        return MdsCheck(True, None, tested)


def _solve_plan(parity: list[list[int]], k: int, fld: Field, use: tuple[int, ...]):
    """How to solve the erased data of the sorted k-subset ``use``.

    A (e x e) and B are the parity rows in ``use`` over the erased and the
    present data columns. The syndromes s = y - B d of those rows are A
    times the erased data, so the erased data is A^-1 s. Returns (erased,
    present, checks, B, A^-1), or None if A is singular.
    """
    e = sum(p > k for p in use)
    present, checks = use[: k - e], use[k - e :]
    erased = sorted(set(range(1, k + 1)).difference(use))
    rows = [parity[p - k - 1] for p in checks]
    inv = _invert([[row[c - 1] for c in erased] for row in rows], fld)
    if inv is None:
        return None
    return erased, present, checks, [[r[c - 1] for c in present] for r in rows], inv


def _invert(mat: list[list[int]], fld: Field) -> list[list[int]] | None:
    """Gauss-Jordan inverse over the field, or None if singular.

    Row operations index the field's exp/log lists directly: a scalar
    ``Field.mul`` call per entry costs more than the arithmetic itself.
    """
    exp, log, order = fld._exp, fld._log, fld.order
    k = len(mat)
    aug = [row[:] + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(mat)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        shift = order - log[aug[col][col]]  # log of the pivot's inverse
        top = aug[col] = [exp[log[x] + shift] if x else 0 for x in aug[col]]
        for r in range(k):
            a = aug[r][col]
            if r != col and a:
                la = log[a]
                aug[r] = [x ^ exp[la + log[y]] if y else x for x, y in zip(aug[r], top)]
    return [row[k:] for row in aug]


@functools.lru_cache(maxsize=None)
def mds_code(n: int, k: int, w: int, family: str = "guaranteed_rs") -> MdsCode:
    """Shared MdsCode instance (decode plans cached per instance)."""
    return MdsCode(n, k, field(w), family)
