"""Exact arithmetic in small finite fields GF(p^e) via O(q) lookup tables.

Element codes are the integers 0..q-1.  For an extension field the code is
read as the base-p digit vector of the residue polynomial, constant term in
the least significant digit, so code 0 is the additive identity and code 1
the multiplicative identity.  A default modulus is the lexicographically
smallest irreducible monic polynomial of the right degree (smallest when the
coefficient vector is read as a base-p integer, constant term least
significant).

Each field has one arithmetic, read from O(q) tables over a primitive
element g.  The exp table lists g^k twice over, then zeros; log maps 0 to
2(q-1), past every valid logarithm, so exp[log[a] + log[b]] is a*b with no
branch for a zero factor.  Addition is XOR in characteristic 2, a table of
residues mod p in odd prime fields, and Zech logarithms in odd extensions:
g^a + g^b = g^(a + Z(b - a)) with Z(k) = log(1 + g^k).  The scalar methods
read the tables as tuples and FieldArrays reads the same tables as numpy
arrays, so scalar code and the batched kernels share them.

Instances are immutable and safe to share between threads.  For q <= 256 the
field axioms are verified exhaustively at construction time, on q-by-q sum
and product tables formed from the shared arithmetic and dropped after the
check.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DivisionByZero,
    InternalVerificationFailed,
    NonPrimeCharacteristic,
    OrderTooLarge,
    ParseError,
    ReducibleModulus,
    UsageError,
)

__all__ = ["MAX_ORDER", "FieldSpec", "make_field", "parse_field_descriptor"]

MAX_ORDER = 1 << 16

# the exhaustive axiom check runs up to this order
_VERIFY_CAP = 256


def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    if v % 2 == 0:
        return v == 2
    f = 3
    while f * f <= v:
        if v % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomials over a FieldSpec
#
# Coefficient lists are little-endian (constant term first) and trimmed so
# that the last entry is non-zero; [] is the zero polynomial.
# ---------------------------------------------------------------------------

def _poly_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mod(field: "FieldSpec", a: Sequence[int], mod: Sequence[int]) -> list[int]:
    """Remainder of a modulo a monic polynomial mod."""
    a = _poly_trim(list(a))
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        shift = len(a) - 1 - dm
        for k in range(dm + 1):
            if mod[k]:
                a[shift + k] = field.sub(a[shift + k], field.mul(c, mod[k]))
        _poly_trim(a)
    return a


def _monic_polys(field: "FieldSpec", deg: int) -> Iterator[list[int]]:
    """All monic polynomials of the given degree, ascending by code."""
    q = field.q
    for code in range(q ** deg):
        cs = []
        v = code
        for _ in range(deg):
            cs.append(v % q)
            v //= q
        cs.append(1)
        yield cs


def _poly_is_irreducible(field: "FieldSpec", poly: Sequence[int]) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    dg = len(poly) - 1
    if dg < 1:
        return False
    for ddeg in range(1, dg // 2 + 1):
        for div in _monic_polys(field, ddeg):
            if not _poly_mod(field, poly, div):
                return False
    return True


def _smallest_irreducible(field: "FieldSpec", deg: int) -> list[int]:
    for cand in _monic_polys(field, deg):
        if _poly_is_irreducible(field, cand):
            return cand
    raise InternalVerificationFailed(
        f"no irreducible polynomial of degree {deg} over order-{field.q} field"
    )


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class FieldSpec:
    """A concrete GF(p^e): order, modulus, O(q) tables, arithmetic.

    Attributes
    ----------
    p, e, q : characteristic, extension degree, order p**e
    modulus : coefficient tuple of the degree-e modulus, constant term
        first, length e+1; empty for prime fields
    exp_table, log_table : primitive-element presentation of the
        multiplicative group; exp_table[log_table[a]] == a for every a.
        exp_table has length 4(q-1)+1: g^k for k < 2(q-1), then zeros;
        log_table[0] == 2(q-1).  With the negation, inverse and addition
        tables these are the field's only arithmetic (see the module
        docstring); FieldArrays holds the same tables as numpy arrays.
    """

    __slots__ = ("p", "e", "q", "modulus", "exp_table", "log_table",
                 "_neg", "_inv", "_sums", "_arrays")

    def __init__(self, p: int, e: int = 1, modulus: Sequence[int] | None = None):
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrimeCharacteristic(f"characteristic {p!r} is not prime")
        if not isinstance(e, int) or e < 1:
            raise UsageError(f"extension degree must be a positive integer, got {e!r}")
        q = p ** e
        if q > MAX_ORDER:
            raise OrderTooLarge(f"field order {q} exceeds the cap {MAX_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            if modulus:
                raise UsageError("prime fields take no modulus")
            self.modulus = ()
        else:
            base = make_field(p)
            if modulus is None:
                mod = _smallest_irreducible(base, e)
            else:
                mod = [int(c) for c in modulus]
                if len(mod) != e + 1 or mod[-1] == 0:
                    raise ReducibleModulus(
                        f"modulus must have degree {e} (got coefficients {mod})"
                    )
                if any(not 0 <= c < p for c in mod):
                    raise ReducibleModulus(
                        f"modulus coefficients must be codes in 0..{p - 1}"
                    )
                if mod[-1] != 1:
                    scale = base.inv(mod[-1])
                    mod = [base.mul(scale, c) for c in mod]
                if not _poly_is_irreducible(base, mod):
                    raise ReducibleModulus(
                        f"polynomial {mod} is reducible over GF({p})"
                    )
            self.modulus = tuple(mod)
        self._arrays = None
        self._build_tables()
        if self.q <= _VERIFY_CAP:
            self._verify_axioms()

    # -- construction helpers ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Product without tables: the schoolbook product of the digit
        polynomials, reduced by the monic modulus."""
        p, e, mod = self.p, self.e, self.modulus
        da, db = ([c // p ** i % p for i in range(e)] for c in (a, b))
        prod = [0] * (2 * e - 1)
        for j, y in enumerate(db):
            if y:
                for i, x in enumerate(da):
                    prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            if c:
                for t in range(e):
                    prod[k - e + t] -= c * mod[t]
        return sum(c % p * p ** i for i, c in enumerate(prod[:e]))

    def _pow_raw(self, a: int, k: int) -> int:
        """a^k by square-and-multiply with _mul_raw."""
        out = 1
        while k:
            if k & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            k >>= 1
        return out

    def _powers(self, g: int) -> list[int]:
        """Codes of g^k for k < q - 1.

        Row t of the matrix of multiplication by g holds the digits of
        x^t g, each row the one before times x: a shift and one reduction
        by the monic modulus (in a prime field the matrix is [[g]]).  The
        powers are then listed by doubling, g^(n + k) = g^k g^n, so numpy
        forms all of them in log2(q) steps.
        """
        p, e = self.p, self.e
        rows = [[g // p ** i % p for i in range(e)]]
        for _ in range(e - 1):
            top, shifted = rows[-1][-1], [0] + rows[-1][:-1]
            rows.append([(a - top * c) % p
                         for a, c in zip(shifted, self.modulus)])
        step = np.array(rows, dtype=np.int64)
        powers = np.eye(1, e, dtype=np.int64)   # the digits of g^0
        while len(powers) < self.q - 1:
            powers = np.concatenate((powers, powers @ step % p))
            step = step @ step % p
        return (powers[: self.q - 1] @ p ** np.arange(e)).tolist()

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        # g generates the multiplicative group when g^((q-1)/l) != 1 for
        # every prime l dividing q - 1; g = 1 passes only when q = 2
        primes = [l for l in range(2, q) if (q - 1) % l == 0 and _is_prime(l)]
        for g in range(1, q):
            if all(self._pow_raw(g, (q - 1) // l) != 1 for l in primes):
                break
        exp = self._powers(g)
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        if -1 in log[1:]:
            raise InternalVerificationFailed(
                f"no primitive element found for order {q}"
            )
        zero_log = 2 * (q - 1)
        log[0] = zero_log
        exp = exp * 2 + [0] * (zero_log + 1)
        self.exp_table = tuple(exp)
        self.log_table = tuple(log)
        # -a = (p-1)*a, and code p-1 is the constant p-1
        self._neg = tuple(exp[log[p - 1] + log[a]] for a in range(q))
        self._inv = tuple(exp[q - 1 - log[a]] if a else 0 for a in range(q))
        if p == 2:
            self._sums = None
        elif self.e == 1:
            self._sums = tuple(k % p for k in range(2 * p - 1))
        else:
            # Z(k) for k < q-1, from 1 + g^k, which only changes the constant
            # digit of g^k.  The differences past q-1 arise when exactly one
            # summand is zero, and Z = 0 there returns the other.
            self._sums = (tuple(log[v - v % p + (v + 1) % p] for v in exp[: q - 1])
                          + (0,) * q)

    def _verify_axioms(self) -> None:
        """Exhaustive check of the field axioms on the shared tables.

        The q-by-q sum and product tables are formed through FieldArrays
        and dropped on return.
        """
        q = self.q
        ar = FieldArrays(self)
        idx = np.arange(q)
        # below _VERIFY_CAP every code fits a byte
        a = ar.add(idx[:, None], idx).astype(np.uint8)
        m = ar.mul(idx[:, None], idx).astype(np.uint8)
        checks = [
            ("exp table doubled, then zero",
             bool((ar.exp[: q - 1] == ar.exp[q - 1: 2 * (q - 1)]).all())
             and not ar.exp[2 * (q - 1):].any()),
            ("exp/log consistent", bool((ar.exp[ar.log] == idx).all())),
            ("additive identity", bool((a[0] == idx).all())),
            ("negatives", bool((a[idx, ar.neg] == 0).all())),
            ("multiplicative identity", bool((m[1] == idx).all())),
            ("zero annihilates", bool((m[0] == 0).all())),
            ("inverses", bool((m[idx[1:], ar.inv[1:]] == 1).all())),
            ("addition commutes", bool((a == a.T).all())),
            ("multiplication commutes", bool((m == m.T).all())),
            # one first operand x at a time, so memory stays O(q^2)
            ("addition associates",
             all((a[a[x]] == a[x][a]).all() for x in range(q))),
            ("multiplication associates",
             all((m[m[x]] == m[x][m]).all() for x in range(q))),
            ("distributivity",
             all((m[x][a] == a[m[x][:, None], m[x][None, :]]).all()
                 for x in range(q))),
        ]
        for name, ok in checks:
            if not ok:
                raise InternalVerificationFailed(
                    f"field axiom check failed for {self.descriptor}: {name}"
                )

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return self._sums[a + b]
        log = self.log_table
        la, lb = log[a], log[b]
        if la > lb:
            la, lb = lb, la
        return self.exp_table[la + self._sums[lb - la]]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        log = self.log_table
        return self.exp_table[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"0 has no multiplicative inverse in {self.descriptor}")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    @property
    def arrays(self) -> "FieldArrays":
        """Elementwise arithmetic on numpy arrays of codes, built on first use."""
        if self._arrays is None:
            self._arrays = FieldArrays(self)
        return self._arrays

    # -- identity / text -----------------------------------------------------

    @property
    def descriptor(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        coeffs = ",".join(map(str, self.modulus))
        return f"GF({self.p}^{self.e})[{coeffs}]"

    def __repr__(self) -> str:
        return f"<FieldSpec {self.descriptor}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __getstate__(self):
        return (self.p, self.e, self.modulus)

    def __setstate__(self, state):
        p, e, modulus = state
        rebuilt = make_field(p, e, modulus if modulus else None)
        for slot in self.__slots__:
            object.__setattr__(self, slot, getattr(rebuilt, slot))


class FieldArrays:
    """The field's tables as numpy arrays, for arithmetic on arrays of codes.

    These are the exp, log, neg, inv and addition tables that the scalar
    FieldSpec methods read (see the module docstring), not a second
    derivation: log maps 0 past the valid range and exp is zero there, so
    a product with a zero factor needs no branch.
    """

    __slots__ = ("log", "exp", "inv", "neg", "add")

    def __init__(self, F: FieldSpec):
        self.exp, self.log, self.neg, self.inv = (
            np.array(t, dtype=np.int32)
            for t in (F.exp_table, F.log_table, F._neg, F._inv))
        if F.p == 2:
            self.add = np.bitwise_xor
            return
        sums = np.array(F._sums, dtype=np.int32)
        if F.e == 1:
            self.add = lambda x, y: sums[x + y]
            return
        log, exp = self.log, self.exp

        def add(x, y):
            lx, ly = log[x], log[y]
            lo = np.minimum(lx, ly)
            return exp[lo + sums[np.maximum(lx, ly) - lo]]

        self.add = add

    def mul(self, x, y):
        log = self.log
        return self.exp[log[x] + log[y]]


@lru_cache(maxsize=128)
def _cached_field(p: int, e: int, modulus: tuple[int, ...] | None) -> FieldSpec:
    return FieldSpec(p, e, modulus)


def make_field(p: int, e: int = 1, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Build (or fetch a cached) GF(p^e) with an optional explicit modulus."""
    key = tuple(int(c) for c in modulus) if modulus is not None else None
    return _cached_field(p, e, key)


_DESCRIPTOR_RE = re.compile(
    r"GF\(\s*(\d+)\s*(?:\^\s*(\d+)\s*)?\)\s*(?:\[\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*\])?"
)


def parse_field_descriptor(text: str, *, line: int = 1, col: int = 1) -> FieldSpec:
    """Parse 'GF(p)' or 'GF(p^e)[c0,c1,...]' (constant term first)."""
    m = _DESCRIPTOR_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad field descriptor {text!r}", line, col)
    p = int(m.group(1))
    e = int(m.group(2)) if m.group(2) else 1
    modulus = None
    if m.group(3) is not None:
        modulus = [int(t) for t in m.group(3).split(",")]
        if e == 1:
            raise ParseError("prime field descriptor takes no modulus", line, col)
    return make_field(p, e, modulus)
