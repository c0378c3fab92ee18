"""Dense matrices over a FieldSpec with exact rank/kernel/image machinery.

Entries are stored row-major as field codes; a vector is the n-by-1 case.
The echelon pivot order is fixed (leftmost non-zero column, topmost row) so
kernel and image bases are reproducible.  One scalar elimination, through
the field's sub, mul and inv, ranks single matrices over every field;
blocks of matrices are ranked and reduced by the batched kernels.  For
small shapes _rank_table ranks every matrix once, indexed by its base-q
code, for the search, the census and the small GF(2) span walks.

Text format (bit-exact round-trip): first line "m n GF(...)", then m lines
of n space-separated element codes.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, ParseError, ShapeViolation, UsageError
from .field import FieldSpec, parse_field_descriptor

__all__ = ["MatGF", "member_of_span", "parse_matrix", "rank_batch", "rref_batch"]


class MatGF:
    """Immutable m-by-n matrix over a FieldSpec."""

    __slots__ = ("field", "m", "n", "entries")

    def __init__(self, field: FieldSpec, m: int, n: int, entries: Iterable[int]):
        if m < 1 or n < 1:
            raise ShapeViolation(f"matrix shape {m}x{n} must be at least 1x1")
        entries = tuple(entries)
        if len(entries) != m * n:
            raise ShapeViolation(
                f"{m}x{n} matrix needs {m * n} entries, got {len(entries)}"
            )
        q = field.q
        for x in entries:
            if not (isinstance(x, int) and 0 <= x < q):
                raise UsageError(f"entry {x!r} is not a code in 0..{q - 1}")
        self.field = field
        self.m = m
        self.n = n
        self.entries = entries

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec, m: int, n: int) -> "MatGF":
        return cls(field, m, n, (0,) * (m * n))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatGF":
        ent = [0] * (n * n)
        for i in range(n):
            ent[i * n + i] = 1
        return cls(field, n, n, ent)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[int]]) -> "MatGF":
        if not rows:
            raise ShapeViolation("from_rows needs at least one row")
        n = len(rows[0])
        flat: list[int] = []
        for r in rows:
            if len(r) != n:
                raise ShapeViolation("rows have unequal lengths")
            flat.extend(r)
        return cls(field, len(rows), n, flat)

    @classmethod
    def column(cls, field: FieldSpec, values: Sequence[int]) -> "MatGF":
        return cls(field, len(values), 1, values)

    # -- basic access --------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.n + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.n: (i + 1) * self.n]

    def rows_as_lists(self) -> list[list[int]]:
        n = self.n
        e = self.entries
        return [list(e[i * n: (i + 1) * n]) for i in range(self.m)]

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatGF):
            return NotImplemented
        return (self.field == other.field and self.m == other.m
                and self.n == other.n and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.field, self.m, self.n, self.entries))

    def __lt__(self, other: "MatGF") -> bool:
        if not isinstance(other, MatGF):
            return NotImplemented
        if self.field != other.field or self.m != other.m or self.n != other.n:
            raise DimensionMismatch("ordering is defined for equal-shape matrices")
        return self.entries < other.entries

    def __repr__(self) -> str:
        rows = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.m))
        return f"<MatGF {self.m}x{self.n} {self.field.descriptor} [{rows}]>"

    # -- arithmetic ----------------------------------------------------------

    def _require_same_shape(self, other: "MatGF") -> None:
        if self.field != other.field:
            raise DimensionMismatch("matrices live over different fields")
        if self.m != other.m or self.n != other.n:
            raise DimensionMismatch(
                f"shape mismatch: {self.m}x{self.n} vs {other.m}x{other.n}"
            )

    def __add__(self, other: "MatGF") -> "MatGF":
        if not isinstance(other, MatGF):
            return NotImplemented
        self._require_same_shape(other)
        F = self.field
        return MatGF(F, self.m, self.n,
                     tuple(F.add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MatGF") -> "MatGF":
        if not isinstance(other, MatGF):
            return NotImplemented
        self._require_same_shape(other)
        F = self.field
        return MatGF(F, self.m, self.n,
                     tuple(F.sub(a, b) for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "MatGF":
        F = self.field
        return MatGF(F, self.m, self.n, tuple(F.neg(a) for a in self.entries))

    def scale(self, c: int) -> "MatGF":
        F = self.field
        if not 0 <= c < F.q:
            raise UsageError(f"scalar {c!r} is not a code in 0..{F.q - 1}")
        return MatGF(F, self.m, self.n, tuple(F.mul(c, a) for a in self.entries))

    def __matmul__(self, other: "MatGF") -> "MatGF":
        if not isinstance(other, MatGF):
            return NotImplemented
        if self.field != other.field:
            raise DimensionMismatch("matrices live over different fields")
        if self.n != other.m:
            raise DimensionMismatch(
                f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}"
            )
        F = self.field
        a, b = self.entries, other.entries
        n, k = self.n, other.n
        out = []
        for i in range(self.m):
            arow = a[i * n: (i + 1) * n]
            for j in range(k):
                acc = 0
                for t in range(n):
                    x = arow[t]
                    if x:
                        acc = F.add(acc, F.mul(x, b[t * k + j]))
                out.append(acc)
        return MatGF(F, self.m, k, out)

    def transpose(self) -> "MatGF":
        e = self.entries
        n = self.n
        return MatGF(self.field, n, self.m,
                     tuple(e[i * n + j] for j in range(n) for i in range(self.m)))

    # -- rank / kernel / image ----------------------------------------------

    def rank(self) -> int:
        return _rank_rows(self.field, self.rows_as_lists())

    def kernel_basis(self) -> list["MatGF"]:
        """Basis of {v : Av = 0}, exactly n - rank(A) column vectors.

        Vectors are emitted in ascending free-column order from the reduced
        echelon form, so the result is reproducible.
        """
        V = _kernel_batch(self.field, self._codes())[0]
        return [MatGF(self.field, self.n, 1, V[:, t].tolist())
                for t in range(V.shape[1])]

    def image_basis(self) -> list["MatGF"]:
        """Exactly rank(A) independent columns of A spanning {Av}."""
        _, pivot_row = rref_batch(self.field, self._codes())
        e = self.entries
        n = self.n
        return [MatGF(self.field, self.m, 1, tuple(e[i * n + j] for i in range(self.m)))
                for j in np.flatnonzero(pivot_row[0] >= 0).tolist()]

    def _codes(self) -> np.ndarray:
        """The entries as a (1, m, n) block for the batched eliminations."""
        return np.array(self.entries, dtype=np.int32).reshape(1, self.m, self.n)

    # -- padding -------------------------------------------------------------

    def pad_rows(self, total_rows: int) -> "MatGF":
        """Append zero rows at the bottom until the matrix has total_rows rows."""
        if total_rows < self.m:
            raise ShapeViolation(
                f"cannot pad {self.m} rows down to {total_rows}"
            )
        if total_rows == self.m:
            return self
        pad = (0,) * ((total_rows - self.m) * self.n)
        return MatGF(self.field, total_rows, self.n, self.entries + pad)

    def pad_to_square(self) -> "MatGF":
        """Zero-pad an m-by-n matrix with m <= n to n-by-n (rank preserved)."""
        if self.m > self.n:
            raise ShapeViolation(
                f"pad_to_square needs m <= n, got {self.m}x{self.n}"
            )
        return self.pad_rows(self.n)

    # -- text ----------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.m} {self.n} {self.field.descriptor}"]
        for i in range(self.m):
            lines.append(" ".join(map(str, self.row(i))))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# span membership
# ---------------------------------------------------------------------------

def member_of_span(v: MatGF, basis: Sequence[MatGF]) -> bool:
    """Whether vector v lies in the span of the given vectors.

    All vectors must be columns of one length over one field; an empty basis
    spans only the zero vector.
    """
    if v.n != 1:
        raise DimensionMismatch("member_of_span expects column vectors")
    for b in basis:
        if b.n != 1:
            raise DimensionMismatch("member_of_span expects column vectors")
        if b.field != v.field or b.m != v.m:
            raise DimensionMismatch("span vectors must match v in field and length")
    if not basis:
        return v.is_zero
    rows = [list(b.entries) for b in basis]
    return _rank_rows(v.field, rows + [list(v.entries)]) == _rank_rows(v.field, rows)


# ---------------------------------------------------------------------------
# elimination engines
# ---------------------------------------------------------------------------

def rank_batch(field: FieldSpec, codes: np.ndarray) -> np.ndarray:
    """Ranks of a block of matrices, given as an (N, m, n) array of codes.

    Gaussian elimination runs on all N matrices at once through the
    field's O(q) arrays.  Each column step takes the first row with a
    nonzero entry as pivot and subtracts multiples of it from every row,
    itself included; the pivot row becomes zero and never pivots again,
    so no row swaps or per-matrix bookkeeping are needed.  The shorter
    side is eliminated, since rank is invariant under transposition.
    """
    A = np.asarray(codes)
    if A.shape[2] > A.shape[1]:
        A = A.transpose(0, 2, 1)
    A = A.astype(np.int32, order="C")   # a copy; it is eliminated in place
    N, _, cols = A.shape
    ar = field.arrays
    which = np.arange(N)
    rank = np.zeros(N, dtype=np.intp)
    for j in range(cols):
        col = A[:, :, j]
        piv = (col != 0).argmax(axis=1)
        pv = col[which, piv]
        rank += pv != 0
        if j + 1 == cols:
            break
        # -col / pv for every row; all zero when the matrix has no pivot
        factor = ar.mul(ar.neg[col], ar.inv[pv][:, None])
        prow = A[which, piv, j + 1:]
        rest = A[:, :, j + 1:]
        rest[...] = ar.add(rest, ar.mul(factor[:, :, None], prow[:, None, :]))
    return rank


def rref_batch(field: FieldSpec, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms of an (N, m, n) block of codes.

    The column sweep of rank_batch, except that each pivot row is scaled
    to a leading 1 and kept in place, and the column is cleared from every
    other row.  The pivot is the first row with a nonzero entry that has
    not pivoted yet, so the nonzero rows of R are exactly the reduced
    echelon rows, each at the position of the row it came from.  Returns
    (R, pivot_row), where pivot_row[k, j] is the row of R[k] whose leading
    1 is in column j, or -1 when column j is free.
    """
    R = np.array(codes, dtype=np.int32)   # a copy; it is reduced in place
    N, m, n = R.shape
    ar = field.arrays
    which = np.arange(N)
    unused = np.ones((N, m), dtype=bool)
    pivot_row = np.full((N, n), -1, dtype=np.intp)
    for j in range(n):
        col = R[:, :, j]
        cand = unused & (col != 0)
        piv = cand.argmax(axis=1)
        has = cand[which, piv]
        pv = np.where(has, col[which, piv], 0)
        # the scaled pivot row; all zero when column j has no pivot
        prow = ar.mul(R[which, piv, j:], ar.inv[pv][:, None])
        rest = R[:, :, j:]
        rest[...] = ar.add(rest, ar.mul(ar.neg[col][:, :, None], prow[:, None, :]))
        rest[which[has], piv[has]] = prow[has]
        unused[which[has], piv[has]] = False
        pivot_row[has, j] = piv[has]
    return R, pivot_row


def _kernel_batch(field: FieldSpec, codes: np.ndarray) -> np.ndarray:
    """Kernel bases of an (N, m, n) block whose matrices share one rank.

    Returns (N, n, n - rank): column t of entry k is the kernel vector of
    free column f, the t-th free column of matrix k in ascending order,
    with 1 at f, -R[row, f] at each pivot column, 0 elsewhere.
    """
    R, pivot_row = rref_batch(field, codes)
    N, _, n = R.shape
    free = pivot_row < 0
    free_cols = np.nonzero(free)[1].reshape(N, -1)
    k = free_cols.shape[1]
    V = field.arrays.neg[R[np.arange(N)[:, None, None],
                           np.maximum(pivot_row, 0)[:, :, None],
                           free_cols[:, None, :]]]
    V[free] = 0
    V[np.arange(N)[:, None], free_cols, np.arange(k)] = 1
    return V


# codes per rank_batch call while a rank table is built
_TABLE_BLOCK = 1 << 12


@lru_cache(maxsize=32)
def _rank_table(field: FieldSpec, m: int, n: int) -> np.ndarray:
    """Rank of every m-by-n matrix over field, indexed by its code, as a
    read-only uint8 array shared by every caller of the cache.

    The code of a matrix reads its row-major entries as base-q digits,
    entry (0,0) most significant, so numeric order on codes is
    lexicographic order on entries and a GF(2) code is the bit word of
    the entries.  The q^(mn) matrices are ranked by rank_batch in blocks,
    which bounds the working memory; callers decide how large a table to
    build.
    """
    q, mn = field.q, m * n
    total = q ** mn
    out = np.empty(total, dtype=np.uint8)
    for lo in range(0, total, _TABLE_BLOCK):
        codes = np.arange(lo, min(lo + _TABLE_BLOCK, total), dtype=np.int64)
        out[lo:lo + len(codes)] = rank_batch(
            field, _code_digits(codes, q, mn).reshape(-1, m, n))
    out.flags.writeable = False
    return out


def _code_digits(codes: np.ndarray, q: int, length: int) -> np.ndarray:
    """(N, length) base-q digits of codes, most significant first."""
    powers = q ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return (codes[:, None] // powers % q).astype(np.int32)


def _rank_rows(field: FieldSpec, rows: list[list[int]]) -> int:
    """Row-echelon rank through the field's scalar arithmetic; consumes
    the row lists."""
    sub, mul = field.sub, field.mul
    nrows = len(rows)
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pinv = field.inv(prow[col])
        for i in range(rank + 1, nrows):
            ri = rows[i]
            c = ri[col]
            if c:
                c = mul(c, pinv)
                rows[i] = [sub(x, mul(c, y)) for x, y in zip(ri, prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _tokens_with_cols(line: str) -> list[tuple[str, int]]:
    """The whitespace-separated tokens of line with their 1-based columns."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_int(token: str, line_no: int, col: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line_no, col)


def _parse_matrix_block(lines: Sequence[str], idx: int) -> tuple[MatGF, int]:
    """Parse one matrix starting at lines[idx] (blank lines skipped first).

    Returns the matrix and the index of the first line after it.  Line and
    column numbers in errors are 1-based and refer to the full line list.
    """
    nlines = len(lines)
    while idx < nlines and not lines[idx].strip():
        idx += 1
    if idx >= nlines:
        raise ParseError("missing matrix header", nlines + 1, 1)
    header = _tokens_with_cols(lines[idx])
    line_no = idx + 1
    if len(header) < 3:
        raise ParseError("matrix header needs 'm n GF(...)'", line_no,
                         header[-1][1] if header else 1)
    m = _parse_int(header[0][0], line_no, header[0][1], "row count")
    n = _parse_int(header[1][0], line_no, header[1][1], "column count")
    if m < 1 or n < 1:
        raise ParseError(f"matrix shape {m}x{n} must be at least 1x1",
                         line_no, header[0][1])
    desc = " ".join(t for t, _ in header[2:])
    field = parse_field_descriptor(desc, line=line_no, col=header[2][1])
    entries: list[int] = []
    for r in range(m):
        row_idx = idx + 1 + r
        if row_idx >= nlines or not lines[row_idx].strip():
            raise ParseError(f"expected {m} rows of entries, got {r}",
                             row_idx + 1, 1)
        toks = _tokens_with_cols(lines[row_idx])
        if len(toks) != n:
            bad_col = toks[n][1] if len(toks) > n else (toks[-1][1] if toks else 1)
            raise ParseError(f"expected {n} entries in row, got {len(toks)}",
                             row_idx + 1, bad_col)
        for tok, col in toks:
            x = _parse_int(tok, row_idx + 1, col, "entry")
            if not 0 <= x < field.q:
                raise ParseError(
                    f"entry {x} is not a code in 0..{field.q - 1}",
                    row_idx + 1, col)
            entries.append(x)
    return MatGF(field, m, n, entries), idx + 1 + m


def parse_matrix(text: str) -> MatGF:
    """Parse the matrix text format; inverse of MatGF.to_text()."""
    lines = text.splitlines()
    mat, nxt = _parse_matrix_block(lines, 0)
    for k in range(nxt, len(lines)):
        if lines[k].strip():
            raise ParseError("unexpected content after matrix", k + 1, 1)
    return mat
