"""Exact arithmetic in small finite fields GF(p^e) via lookup tables.

Element codes are the integers 0..q-1.  For an extension field the code is
read as the base-p digit vector of the residue polynomial, constant term in
the least significant digit, so code 0 is the additive identity and code 1
the multiplicative identity.  A default modulus is the lexicographically
smallest irreducible monic polynomial of the right degree (smallest when the
coefficient vector is read as a base-p integer, constant term least
significant).

Instances are immutable and safe to share between threads.  For q <= 256 the
full q-by-q addition and multiplication tables are built and the field axioms
are verified exhaustively at construction time.
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

# full q*q tables (and the exhaustive axiom check) only below this order
_TABLE_CAP = 256


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
    """A concrete GF(p^e): order, modulus, exp/log tables, arithmetic.

    Attributes
    ----------
    p, e, q : characteristic, extension degree, order p**e
    modulus : coefficient tuple of the degree-e modulus, constant term
        first, length e+1; empty for prime fields
    exp_table, log_table : primitive-element presentation of the
        multiplicative group; exp_table[log_table[a]] == a for a != 0
    """

    __slots__ = ("p", "e", "q", "modulus", "exp_table", "log_table",
                 "_neg", "_inv", "_add_flat", "_sub_flat", "_mul_flat",
                 "_arrays")

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
        if self.q <= _TABLE_CAP:
            self._verify_axioms()

    # -- construction helpers ------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(a % p)
            a //= p
        return out

    def _undigits(self, ds: Sequence[int]) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d
        return v

    def _mul_raw(self, a: int, b: int) -> int:
        """Product without tables; polynomial multiply-and-reduce."""
        p = self.p
        if self.e == 1:
            return (a * b) % p
        da = self._digits(a)
        db = self._digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    if cb:
                        prod[i + j] = (prod[i + j] + ca * cb) % p
        mod = self.modulus
        for k in range(len(prod) - 1, self.e - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for t in range(self.e):
                    if mod[t]:
                        prod[k - self.e + t] = (prod[k - self.e + t] - c * mod[t]) % p
        return self._undigits(prod[: self.e])

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % p
        da = self._digits(a)
        db = self._digits(b)
        return self._undigits([(x + y) % p for x, y in zip(da, db)])

    def _build_tables(self) -> None:
        q = self.q
        if q == 2:
            exp, log = [1], [-1, 0]
        else:
            exp = log = None
            for g in range(2, q):
                cand_exp = [0] * (q - 1)
                cand_log = [-1] * q
                val = 1
                ok = True
                for i in range(q - 1):
                    if cand_log[val] != -1:
                        ok = False
                        break
                    cand_exp[i] = val
                    cand_log[val] = i
                    val = self._mul_raw(val, g)
                if ok and val == 1:
                    exp, log = cand_exp, cand_log
                    break
            if exp is None:
                raise InternalVerificationFailed(
                    f"no primitive element found for order {q}"
                )
        self.exp_table = tuple(exp)
        self.log_table = tuple(log)

        if self.e == 1:
            p = self.p
            neg = [(p - a) % p for a in range(q)]
        else:
            neg = [self._undigits([(self.p - d) % self.p for d in self._digits(a)])
                   for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = exp[(q - 1 - log[a]) % (q - 1)]
        self._neg = tuple(neg)
        self._inv = tuple(inv)

        if q <= _TABLE_CAP:
            mul_flat = [0] * (q * q)
            for a in range(1, q):
                la = log[a]
                row = a * q
                for b in range(1, q):
                    mul_flat[row + b] = exp[(la + log[b]) % (q - 1)]
            add_flat = [0] * (q * q)
            for a in range(q):
                row = a * q
                for b in range(q):
                    add_flat[row + b] = self._add_raw(a, b)
            sub_flat = [add_flat[a * q + neg[b]] for a in range(q) for b in range(q)]
            self._add_flat = tuple(add_flat)
            self._sub_flat = tuple(sub_flat)
            self._mul_flat = tuple(mul_flat)
        else:
            self._add_flat = None
            self._sub_flat = None
            self._mul_flat = None

    def _verify_axioms(self) -> None:
        """Exhaustive check of the field axioms from the built tables."""
        q = self.q
        a = np.array(self._add_flat, dtype=np.uint8).reshape(q, q)
        m = np.array(self._mul_flat, dtype=np.uint8).reshape(q, q)
        idx = np.arange(q, dtype=np.uint8)
        checks = [
            ("additive identity", bool((a[0] == idx).all())),
            ("multiplicative identity", bool((m[1] == idx).all())),
            ("zero annihilates", bool((m[0] == 0).all())),
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
            ("inverses exist", bool((m[1:] == 1).any(axis=1).all())),
            ("exp/log consistent",
             all(self.exp_table[self.log_table[x]] == x for x in range(1, q))),
        ]
        for name, ok in checks:
            if not ok:
                raise InternalVerificationFailed(
                    f"field axiom check failed for {self.descriptor}: {name}"
                )

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        t = self._add_flat
        if t is not None:
            return t[a * self.q + b]
        return self._add_raw(a, b)

    def sub(self, a: int, b: int) -> int:
        t = self._sub_flat
        if t is not None:
            return t[a * self.q + b]
        return self._add_raw(a, self._neg[b])

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        t = self._mul_flat
        if t is not None:
            return t[a * self.q + b]
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

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
    """O(q) lookup arrays for arithmetic on numpy arrays of field codes.

    Multiplication goes through exp/log.  log maps 0 to 2(q-1), and exp is
    zero from index 2(q-1) on, so a product with a zero factor needs no
    branch.  Addition is XOR in characteristic 2, a table of residues
    mod p in prime fields, and Zech logarithms otherwise:
    g^a + g^b = g^(a + Z(b - a)) with Z(k) = log(1 + g^k).
    """

    __slots__ = ("log", "exp", "inv", "neg", "add")

    def __init__(self, F: FieldSpec):
        q, p = F.q, F.p
        zero_log = 2 * (q - 1)
        self.log = np.array(F.log_table, dtype=np.int32)
        self.log[0] = zero_log
        self.exp = np.zeros(2 * zero_log + 1, dtype=np.int32)
        self.exp[:zero_log] = np.tile(np.array(F.exp_table, dtype=np.int32), 2)
        self.inv = np.array(F._inv, dtype=np.int32)
        self.neg = np.array(F._neg, dtype=np.int32)
        if p == 2:
            self.add = np.bitwise_xor
        elif F.e == 1:
            residue = np.arange(2 * p - 1, dtype=np.int32) % p
            self.add = lambda x, y: residue[x + y]
        else:
            # 1 + g^k only changes the constant digit of g^k
            g_k = self.exp[: q - 1]
            one_plus = g_k - g_k % p + (g_k % p + 1) % p
            # Z(k) for 0 <= k < q-1; the differences past q-1 arise when
            # exactly one summand is zero, and Z = 0 there returns the other
            zech = np.zeros(zero_log + 1, dtype=np.int32)
            zech[: q - 1] = self.log[one_plus]
            log, exp = self.log, self.exp

            def add(x, y):
                lx, ly = log[x], log[y]
                lo = np.minimum(lx, ly)
                return exp[lo + zech[np.maximum(lx, ly) - lo]]

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
