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

The solve and the parity rows compose into one matrix per k-subset,
cached per instance: each row gives one position outside the subset
from the k supplied symbols (``_solve_plan``). ``solve`` applies the rows
a caller wants -- the whole codeword for ``decode``, the erased data for
``decode_data``, a failed node and the parities under its piggybacks for
design1 repair -- and ``encode`` applies the parity rows, each in one
``Field.dots`` call. On stripe arrays with three or more rows that is
one gather per input byte for a group of rows, not one per coefficient.
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
        return data + self.fld.dots(self.parity, data)

    def solve(self, known: Mapping[int, object], positions) -> list:
        """Codeword symbols at ``positions`` from exactly k (position, symbol) pairs.

        The caller chooses the k positions. Supplied positions pass through;
        every other one is its row of the cached ``_solve_plan`` matrix over
        the k supplied symbols, all in one ``Field.dots`` call. Raises
        InsufficientDataError with fewer than k pairs, ParameterError with
        more or with a position outside [1, n], and DecodeError if the
        system is singular (possible only for the vandermonde_literal
        family).
        """
        use = tuple(sorted(known))
        k = self.k
        if len(use) < k:
            raise InsufficientDataError(f"need {k} positions to decode, got {len(use)}")
        if len(use) > k:
            raise ParameterError(f"decode takes exactly {k} positions, got {len(use)}")
        if not (1 <= use[0] and use[-1] <= self.n):
            raise ParameterError(f"positions out of [1, {self.n}]: {list(use)}")
        rows = self._plan(use)
        if rows is None:
            raise DecodeError(f"singular decode system for positions {use}")
        try:
            matrix = [rows[p] for p in positions if p not in known]
        except KeyError as err:
            raise ParameterError(f"position {err} out of [1, {self.n}]") from None
        solved = self.fld.dots(matrix, [known[p] for p in use])
        if len(solved) == len(positions):
            return solved
        solved = iter(solved)
        return [known[p] if p in known else next(solved) for p in positions]

    def decode_data(self, known: Mapping[int, object]) -> list:
        """The k data symbols from exactly k (position, symbol) pairs (see ``solve``).

        Supplied data symbols pass through; the erased ones are solved.
        """
        return self.solve(known, range(1, self.k + 1))

    def decode(self, known: Mapping[int, object]) -> list:
        """The full codeword from exactly k (position, symbol) pairs (see ``solve``)."""
        return self.solve(known, range(1, self.n + 1))

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
            if _erased_inverse(self.parity, self.k, self.fld, sub) is None:
                return MdsCheck(False, tuple(sub), tested)
        return MdsCheck(True, None, tested)


def _erased_inverse(parity: list[list[int]], k: int, fld: Field, use: tuple[int, ...]):
    """The erased data of the sorted k-subset ``use`` and the inverse of its block.

    A (e x e) holds the parity rows in ``use`` (the checks) over the e
    erased data columns. Returns (erased, present, checks, A^-1), or None
    if A is singular, in which case ``use`` does not decode.
    """
    e = sum(p > k for p in use)
    present, checks = use[: k - e], use[k - e :]
    erased = sorted(set(range(1, k + 1)).difference(use))
    inv = _invert([[parity[p - k - 1][c - 1] for c in erased] for p in checks], fld)
    return None if inv is None else (erased, present, checks, inv)


def _solve_plan(parity: list[list[int]], k: int, fld: Field, use: tuple[int, ...]):
    """The linear map from the symbols at ``use`` to every other position.

    Returns M as a dict keyed by each position p not in the sorted k-subset
    ``use``: codeword[p] = sum_j M[p][j] * codeword[use[j]]. With B the
    checks' rows over the present data columns, the syndromes y + B d of
    the checks y are A times the erased data d_E, so each erased data row
    is [A^-1 B | A^-1], and each missing parity row P is P over the
    present columns, plus P over the erased columns times the erased
    rows. None if A is singular.
    """
    solved = _erased_inverse(parity, k, fld, use)
    if solved is None:
        return None
    erased, present, checks, inv = solved
    missing = [p for p in range(k + 1, k + len(parity) + 1) if p not in checks]
    gen = [parity[p - k - 1] for p in missing]
    if not erased:  # every data symbol supplied: the parity rows themselves
        return dict(zip(missing, gen))
    e = len(erased)
    b = [[parity[p - k - 1][c - 1] for c in present] for p in checks]
    data = [x + y for x, y in zip(fld.matmul(inv, b, [[0] * (k - e)] * e), inv)]
    par = fld.matmul(
        [[g[c - 1] for c in erased] for g in gen],
        data,
        [[g[c - 1] for c in present] + [0] * e for g in gen],
    )
    return dict(zip(erased + missing, data + par))


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
