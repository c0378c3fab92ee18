"""The batched span-rank and reduction kernels against scalar references.

The references go only through the field's scalar methods (add, sub, mul,
inv) and itertools, so they share no array or block code with the kernel.
The scalar methods and the kernels read the same field tables, which
test_field_arrays_match_scalar_arithmetic checks against a digit-wise
reference.  Every case is seeded.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random

import numpy as np
import pytest

from constrank import (
    MatGF,
    SubspaceBasis,
    UsageError,
    check_image_of_kernel,
    enumerate_elements,
    is_constant_rank,
    make_field,
    make_subspace,
    parse_subspace,
    rank_profile,
    regular_representation,
    truncated_construction,
)
import constrank.analysis as analysis_mod
import constrank.subspace as subspace_mod
from constrank.cli import main
from constrank.matrix import _kernel_batch, _rank_table, rank_batch, rref_batch
from constrank.subspace import _BLOCK_CAP, _BLOCK_START
from conftest import ref_add, ref_mul, ref_rank, ref_rref

_DATA = os.path.join(os.path.dirname(__file__), "data")

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (251, 1),
          (2, 8), (257, 1), (2, 9), (3, 6)]


def _field_id(pe) -> str:
    return f"GF({pe[0]})" if pe[1] == 1 else f"GF({pe[0]}^{pe[1]})"


def _ref_kernel(F, rows):
    """Kernel vectors in ascending free-column order: 1 at the free
    column f, minus row i's entry f at pivot column i."""
    reduced, pivots = ref_rref(F, rows)
    n = len(rows[0])
    out = []
    for f in range(n):
        if f not in pivots:
            v = [0] * n
            v[f] = 1
            for row, p in zip(reduced, pivots):
                v[p] = F.neg(row[f])
            out.append(v)
    return out


def _ref_elements(S):
    """(index, entries) of every span element in coefficient-lex order."""
    F = S.field
    for k, coeffs in enumerate(itertools.product(range(F.q), repeat=S.d)):
        acc = [0] * (S.m * S.n)
        for c, B in zip(coeffs, S.basis):
            acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, B.entries)]
        yield k, tuple(acc)


def _ref_matrix_rank(S, entries) -> int:
    n = S.n
    return ref_rank(S.field, [entries[i * n:(i + 1) * n] for i in range(S.m)])


def _ref_first_offender(S, r):
    for k, ent in _ref_elements(S):
        if k and _ref_matrix_rank(S, ent) != r:
            return k, ent
    return None


def _random_matrix(F, m, n, rng):
    """A zero, random or rank-deficient m-by-n code array."""
    kind = rng.randrange(3)
    if kind == 0:
        return [[0] * n for _ in range(m)]
    rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)]
    if kind == 2 and m > 1:
        keep = rng.randrange(1, m)
        for i in range(keep, m):
            coeffs = [rng.randrange(F.q) for _ in range(keep)]
            row = [0] * n
            for c, src in zip(coeffs, rows[:keep]):
                row = [F.add(x, F.mul(c, y)) for x, y in zip(row, src)]
            rows[i] = row
        rng.shuffle(rows)
    return rows


def _random_span(F, m, n, d, rng):
    while True:
        mats = [MatGF(F, m, n, [rng.randrange(F.q) for _ in range(m * n)])
                for _ in range(d)]
        S = make_subspace(mats)
        if S.d == d:
            return S


@pytest.mark.parametrize("pe", FIELDS, ids=_field_id)
def test_rank_batch_matches_scalar_elimination(pe):
    F = make_field(*pe)
    rng = random.Random(f"rank_batch:{pe}")
    for m in range(1, 5):
        for n in range(1, 5):
            block = [_random_matrix(F, m, n, rng) for _ in range(12)]
            codes = np.array(block)
            ranks = rank_batch(F, codes)
            assert ranks.tolist() == [ref_rank(F, rows) for rows in block], (m, n)
            R, pivot_row = rref_batch(F, codes)
            for k, rows in enumerate(block):
                reduced, pivots = ref_rref(F, rows)
                assert np.flatnonzero(pivot_row[k] >= 0).tolist() == pivots
                at = pivot_row[k][pivots]
                assert R[k][at].tolist() == reduced, (m, n, rows)
                assert not np.delete(R[k], at, axis=0).any()
            # kernel and left-kernel extraction, batched over equal ranks
            for s in set(ranks.tolist()):
                same = codes[ranks == s]
                K = _kernel_batch(F, same)
                L = _kernel_batch(F, same.transpose(0, 2, 1))
                for A, K_A, L_A in zip(same, K, L):
                    A = MatGF(F, m, n, A.ravel().tolist())
                    kernel = [list(v.entries) for v in A.kernel_basis()]
                    assert kernel == _ref_kernel(F, A.rows_as_lists())
                    assert K_A.T.tolist() == kernel
                    assert L_A.T.tolist() == [
                        list(v.entries) for v in A.transpose().kernel_basis()]


@pytest.mark.parametrize("pe,m,n", [
    ((2, 1), 3, 3), ((2, 1), 2, 5), ((3, 1), 2, 3), ((2, 2), 2, 2),
    ((5, 1), 1, 3), ((2, 3), 1, 3),
], ids=lambda v: _field_id(v) if isinstance(v, tuple) else str(v))
def test_rank_table_matches_scalar_elimination(pe, m, n, monkeypatch):
    # every code, with blocks small enough that the table spans several
    monkeypatch.setattr("constrank.matrix._TABLE_BLOCK", 100)
    F = make_field(*pe)
    _rank_table.cache_clear()
    table = _rank_table(F, m, n)
    q = F.q
    assert len(table) == q ** (m * n)
    for code in range(q ** (m * n)):
        digits = [(code // q ** (m * n - 1 - t)) % q for t in range(m * n)]
        rows = [digits[i * n:(i + 1) * n] for i in range(m)]
        assert table[code] == ref_rank(F, rows), (code, rows)


@pytest.mark.parametrize("pe", FIELDS + [(2, 16)], ids=_field_id)
def test_field_arrays_match_scalar_arithmetic(pe):
    """Scalar and array arithmetic both equal the digit-wise reference
    (conftest.ref_add, ref_mul), which shares no table with the field."""
    F = make_field(*pe)
    q = F.q
    if q <= 16:
        pairs = list(itertools.product(range(q), repeat=2))
    else:
        rng = random.Random(f"arrays:{pe}")
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]
        pairs += [(0, 0), (0, 5), (1, 0), (q - 1, q - 1)]
    x, y = (list(t) for t in zip(*pairs))
    sums = [ref_add(F, a, b) for a, b in pairs]
    prods = [ref_mul(F, a, b) for a, b in pairs]
    assert [F.add(a, b) for a, b in pairs] == sums
    assert [F.sub(s, b) for s, b in zip(sums, y)] == x
    assert [F.mul(a, b) for a, b in pairs] == prods
    assert all(ref_add(F, a, F.neg(a)) == 0 for a in x)
    assert all(ref_mul(F, a, F.inv(a)) == 1 for a in x if a)
    ar = F.arrays
    assert ar.add(np.array(x), np.array(y)).tolist() == sums
    assert ar.mul(np.array(x), np.array(y)).tolist() == prods
    assert ar.neg[np.array(x)].tolist() == [F.neg(a) for a in x]
    assert ar.inv[np.array(x)].tolist() == [F.inv(a) if a else 0 for a in x]


@pytest.mark.parametrize("pe", FIELDS, ids=_field_id)
def test_span_statistics_match_per_element_reference(pe):
    F = make_field(*pe)
    rng = random.Random(f"spans:{pe}")
    d_max = 1 if F.q > 16 else (2 if F.q > 4 else 3)
    for _ in range(2):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        S = _random_span(F, m, n, rng.randrange(1, min(d_max, m * n) + 1), rng)
        counts = [0] * (min(m, n) + 1)
        for k, ent in _ref_elements(S):
            if k:
                counts[_ref_matrix_rank(S, ent)] += 1
        assert rank_profile(S).counts == tuple(counts)
        for r in range(1, min(m, n) + 1):
            ok, witness = is_constant_rank(S, r)
            ref = _ref_first_offender(S, r)
            assert ok == (ref is None)
            assert (witness is None) == ok
            if witness is not None:
                assert witness.entries == ref[1]


# ---------------------------------------------------------------------------
# witnesses at block boundaries
# ---------------------------------------------------------------------------

def _block_sizes(count: int) -> list[int]:
    """Sizes of the blocks a walk over count span elements ranks."""
    sizes, size = [], _BLOCK_START
    while count > 0:
        sizes.append(min(size, count))
        count -= sizes[-1]
        size = min(2 * size, _BLOCK_CAP)
    return sizes


def _block_starts(total: int) -> list[int]:
    """First element index of each block of the walk over indices 1..total-1."""
    starts = [1]
    for size in _block_sizes(total - 1)[:-1]:
        starts.append(starts[-1] + size)
    return starts


def _perturbed_span(F, d, target, rng):
    """A seeded 2-by-(2d-1) span whose only rank-1 elements are the
    multiples of the element at index target; all others have rank 2.

    Element c is [c | 0 ; c | pi(c)] with pi a map onto F^(d-1) whose
    kernel is spanned by the coefficient vector of target, followed by
    random invertible row and column operations.
    """
    q = F.q
    star = [(target // q ** (d - 1 - i)) % q for i in range(d)]
    lead = next(i for i, c in enumerate(star) if c)
    # pi(e_i) = e_i for i != lead; pi(e_lead) solves pi(star) = 0
    inv_lead = F.inv(star[lead])
    pi_cols = []
    for i in range(d):
        if i == lead:
            pi_cols.append([F.neg(F.mul(inv_lead, star[j])) if j != lead else 0
                            for j in range(d)])
        else:
            pi_cols.append([1 if j == i else 0 for j in range(d)])
    width = 2 * d - 1
    rows_p = _random_invertible(F, 2, rng)
    cols_q = _random_invertible(F, width, rng)
    basis = []
    for i in range(d):
        top = [1 if j == i else 0 for j in range(d)] + [0] * (d - 1)
        tail = [x for j, x in enumerate(pi_cols[i]) if j != lead]
        bottom = [1 if j == i else 0 for j in range(d)] + tail
        M = MatGF(F, 2, width, top + bottom)
        P = MatGF(F, 2, 2, [x for row in rows_p for x in row])
        Q = MatGF(F, width, width, [x for row in cols_q for x in row])
        basis.append(P @ M @ Q)
    return SubspaceBasis(basis)


def _random_invertible(F, k, rng):
    while True:
        rows = [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)]
        if ref_rank(F, rows) == k:
            return rows


@pytest.mark.parametrize("pe,d", [((2, 1), 8), ((2, 3), 3)],
                         ids=["GF(2)", "GF(2^3)"])
def test_witness_is_first_offender_at_block_boundaries(pe, d):
    F = make_field(*pe)
    total = F.q ** d
    starts = _block_starts(total)
    targets = {"first": 1, "end of first block": starts[1] - 1,
               "start of second block": starts[1]}
    if F.q == 2:
        # every GF(2) coefficient vector leads with 1, so any index can be
        # a first offender; pick one inside the final, shorter block
        assert total - starts[-1] < min(_BLOCK_START << (len(starts) - 1),
                                        _BLOCK_CAP)
        targets["final partial block"] = (starts[-1] + total) // 2
    rng = random.Random(f"boundary:{pe}")
    for where, target in targets.items():
        S = _perturbed_span(F, d, target, rng)
        assert F.q > 2 or S.m * S.n > 16   # ranked by rank_batch, not the table
        ok, witness = is_constant_rank(S, 2)
        index, ref = _ref_first_offender(S, 2)
        assert index == target, where
        assert not ok and witness.entries == ref, where


# ---------------------------------------------------------------------------
# image containment reports recorded before the kernel existed
# ---------------------------------------------------------------------------

def _report(rep):
    return (rep.max_rank, rep.elements_checked, rep.triples_checked,
            [tuple(x.entries for x in v) for v in rep.violations])


def _gf2_counterexample():
    with open(os.path.join(_DATA, "m3_gf2_rank2_dim4.txt")) as fh:
        return parse_subspace(fh.read())


def test_image_of_kernel_golden_gf2_counterexample():
    rep = check_image_of_kernel(_gf2_counterexample())
    max_rank, elements, triples, violations = _report(rep)
    assert (max_rank, elements, triples, rep.sampled) == (2, 15, 60, False)
    assert len(violations) == 32
    assert violations[:3] == [
        ((1, 0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 1), (0, 0, 0, 0, 0, 1, 0, 1, 0)),
        ((0, 0, 1, 0, 0, 0, 1, 0, 0), (0, 1, 0), (0, 0, 0, 0, 1, 0, 1, 0, 0)),
        ((1, 0, 1, 0, 0, 0, 1, 1, 0), (1, 1, 1), (0, 0, 0, 0, 0, 1, 0, 1, 0)),
    ]
    assert violations[-1] == (
        (1, 0, 1, 0, 1, 1, 0, 0, 0), (1, 1, 1), (1, 0, 0, 0, 0, 0, 0, 1, 0))


def test_image_of_kernel_golden_gf2_sample():
    rep = check_image_of_kernel(_gf2_counterexample(), sample=4, seed=7)
    max_rank, elements, triples, violations = _report(rep)
    assert (max_rank, elements, triples, rep.sampled) == (2, 4, 16, True)
    assert [v[0] for v in violations] == [
        (1, 0, 1, 0, 0, 0, 1, 1, 0), (1, 0, 1, 0, 0, 0, 1, 1, 0),
        (0, 0, 1, 0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0, 0, 0, 0),
        (1, 0, 1, 0, 1, 0, 0, 1, 0), (1, 0, 1, 0, 1, 0, 0, 1, 0),
        (1, 0, 1, 0, 1, 0, 0, 1, 0), (1, 0, 1, 0, 0, 1, 1, 0, 0),
        (1, 0, 1, 0, 0, 1, 1, 0, 0), (1, 0, 1, 0, 0, 1, 1, 0, 0),
    ]


@pytest.mark.parametrize("pe,basis,sample,seed,expected", [
    ((2, 2), [(1, 0, 0, 1, 1, 0, 0, 0, 0), (0, 1, 0, 1, 3, 3, 0, 0, 0),
              (0, 0, 1, 2, 3, 0, 0, 0, 0)], 5, 3, (2, 5, 15, [])),
    ((257, 1), [(1, 0, 92, 163, 46, 38, 0, 0, 0),
                (0, 1, 44, 55, 159, 83, 0, 0, 0)], 4, 11, (2, 4, 8, [])),
], ids=["GF(4)", "GF(257)"])
def test_image_of_kernel_golden_sampled(pe, basis, sample, seed, expected):
    F = make_field(*pe)
    S = make_subspace([MatGF(F, 3, 3, b) for b in basis])
    rep = check_image_of_kernel(S, sample=sample, seed=seed)
    assert rep.sampled
    assert _report(rep) == expected


def _block_diagonal(X, Y):
    F, a, b = X.field, X.n, Y.n
    n = a + b
    ent = [0] * (n * n)
    for i in range(a):
        ent[i * n: i * n + a] = X.entries[i * a:(i + 1) * a]
    for i in range(b):
        ent[(a + i) * n + a:(a + i + 1) * n] = Y.entries[i * b:(i + 1) * b]
    return MatGF(F, n, n, ent)


@pytest.mark.parametrize("sample,expected", [
    (None, (5, 105, 735, False, 224,
            "d624e3ae18c26d217bc320a6fa60479b4dbd9665")),
    (20, (5, 20, 140, True, 44, "8519cf2cc210e7ec73e25865fd7e6b1e36b7b4d2")),
], ids=["full", "sample"])
def test_image_of_kernel_golden_across_blocks(sample, expected):
    # diag(X, Y): X from the GF(2) counterexample, Y from GF(8) acting on
    # itself; the 105 maximal-rank elements fill two blocks, and the
    # violations show which of them were examined
    X = _gf2_counterexample()
    Y = regular_representation(X.field, 3)
    zero = MatGF.zero(X.field, 3, 3)
    S = SubspaceBasis([_block_diagonal(B, zero) for B in X.basis]
                      + [_block_diagonal(zero, B) for B in Y.basis])
    assert 105 > _BLOCK_START
    rep = check_image_of_kernel(S, sample=sample, seed=9)
    max_rank, elements, triples, violations = _report(rep)
    digest = hashlib.sha1(repr(violations).encode()).hexdigest()
    assert (max_rank, elements, triples, rep.sampled, len(violations),
            digest) == expected


# ---------------------------------------------------------------------------
# one rank per scalar class, against per-element references
# ---------------------------------------------------------------------------

# (field, span dimension): each dimension puts a range start of the class
# walk strictly inside one of its blocks
CLASS_CASES = [((2, 1), 7), ((3, 1), 6), ((2, 2), 5), ((5, 1), 5),
               ((7, 1), 4), ((3, 2), 4), ((257, 1), 2), ((2, 9), 2)]


def _case_id(case) -> str:
    return f"{_field_id(case[0])}-d{case[1]}"


def _ref_ranked(S):
    """(element, rank) of the non-zero span elements from
    enumerate_elements, each ranked by the scalar reference."""
    for k, A in enumerate(enumerate_elements(S)):
        if k:
            yield A, ref_rank(S.field, A.rows_as_lists())


def _ref_profile(S) -> tuple[int, ...]:
    counts = [0] * (min(S.m, S.n) + 1)
    for _, rank in _ref_ranked(S):
        counts[rank] += 1
    return tuple(counts)


def _ref_verify(S, r):
    """(index, element) of the first non-zero element whose rank is not r."""
    for k, (A, rank) in enumerate(_ref_ranked(S), start=1):
        if rank != r:
            return k, A
    return None


def _class_targets(q: int, d: int) -> dict[str, int]:
    """Element indices at which to place a first offender: q^j and
    2q^j - 1 for every j, and, for each block of the class walk that
    straddles two ranges [q^j, 2q^j), one index in it past the range start."""
    reps = [k for j in range(d) for k in range(q ** j, 2 * q ** j)]
    range_starts = [sum(q ** i for i in range(j)) for j in range(1, d)]
    targets = {}
    for j in range(d):
        targets[f"q^{j}"] = q ** j
        targets[f"2q^{j}-1"] = 2 * q ** j - 1
    lo = 0
    for size in _block_sizes(len(reps)):
        for pos in range_starts:
            if lo < pos < lo + size:
                targets[f"straddle {pos}"] = reps[(pos + lo + size) // 2]
        lo += size
    return targets


@pytest.mark.parametrize("case", CLASS_CASES, ids=_case_id)
def test_class_walk_first_offender_at_range_edges(case):
    pe, d = case
    F = make_field(*pe)
    q = F.q
    targets = _class_targets(q, d)
    assert any(where.startswith("straddle") for where in targets)
    rng = random.Random(f"classes:{pe}")
    for where, target in targets.items():
        S = _perturbed_span(F, d, target, rng)
        ok, witness = is_constant_rank(S, 2)
        index, ref = _ref_verify(S, 2)
        assert index == target, where
        assert not ok and witness == ref, where
        # rank 1 exactly on the q - 1 multiples of the target element
        profile = rank_profile(S).counts
        assert profile == (0, q - 1, q ** d - q), where
        if q ** d <= 1024:
            assert profile == _ref_profile(S), where
        ok, witness = is_constant_rank(S, 1)
        assert not ok and witness == _ref_verify(S, 1)[1], where


@pytest.mark.parametrize("pe", [c[0] for c in CLASS_CASES if c[0][0] ** c[0][1] < 16],
                         ids=_field_id)
def test_class_walk_matches_per_element_reference(pe):
    F = make_field(*pe)
    rng = random.Random(f"class spans:{pe}")
    for m, n, d in [(2, 2, 3), (2, 3, 3), (3, 3, 2), (1, 3, 3)]:
        S = _random_span(F, m, n, d, rng)
        profile = rank_profile(S)
        assert profile.counts == _ref_profile(S), (m, n, d)
        for r in range(1, min(m, n) + 1):
            ref = _ref_verify(S, r)
            ok, witness = is_constant_rank(S, r)
            assert ok == (ref is None) == (profile.constant_rank_of() == r)
            assert witness == (None if ref is None else ref[1]), (m, n, d, r)


@pytest.mark.parametrize("case", CLASS_CASES, ids=_case_id)
def test_class_walk_ranks_one_element_per_class(case, monkeypatch):
    calls = []

    def counting(F, codes):
        calls.append(len(codes))
        return rank_batch(F, codes)

    monkeypatch.setattr(subspace_mod, "rank_batch", counting)
    pe, d_max = case
    F = make_field(*pe)
    q = F.q
    # GF(2) matrices with at most 16 entries are ranked by table lookup,
    # so the GF(2) spans here have more entries than that
    width = 9 if q == 2 else 2
    rng = random.Random(f"class calls:{pe}")
    for d in range(1, min(d_max, 3) + 1):
        S = _random_span(F, 2, width, d, rng)
        classes = (q ** d - 1) // (q - 1)
        calls.clear()
        rank_profile(S)
        assert calls == _block_sizes(classes)
        assert len(calls) <= len(_block_sizes(q ** d - 1))
        # every non-zero 1-by-n matrix has rank 1, so the walk runs to its end
        n = 17 if q == 2 else d
        units = SubspaceBasis([MatGF(F, 1, n, [int(i == j) for j in range(n)])
                               for i in range(d)])
        calls.clear()
        assert is_constant_rank(units, 1) == (True, None)
        assert calls == _block_sizes(classes)


def _no_rank_batch(F, codes):
    raise AssertionError("rank_batch called on a table-ranked span")


def test_gf2_table_walk_first_offender_at_block_edges(monkeypatch):
    # the GF(2) 2x8 rank-2 construction (d = 8, 255 non-zero elements) with
    # basis matrix j replaced by seeded random matrices until the first
    # offender lands at the wanted place; replacing basis matrix j changes
    # only the elements whose index has bit d-1-j set
    monkeypatch.setattr(subspace_mod, "rank_batch", _no_rank_batch)
    F = make_field(2)
    base = truncated_construction(F, 2, 8, 2)
    d = base.d
    assert (d, base.m * base.n) == (8, 16)
    starts = _block_starts(F.q ** d)
    assert starts == [1, 65, 193]
    places = {"end of first block": (1, range(starts[1] - 1, starts[1])),
              "start of second block": (1, range(starts[1], starts[1] + 1)),
              "final partial block": (0, range(starts[2], F.q ** d))}
    rng = random.Random("gf2 table walk")
    for where, (j, wanted) in places.items():
        for _ in range(2000):
            basis = list(base.basis)
            basis[j] = MatGF(F, 2, 8, [rng.randrange(2) for _ in range(16)])
            try:
                S = SubspaceBasis(basis)
            except UsageError:
                continue
            ref = _ref_verify(S, 2)
            if ref is not None and ref[0] in wanted:
                break
        else:
            pytest.fail(f"no span with its first offender at the {where}")
        index, element = ref
        ok, witness = is_constant_rank(S, 2)
        assert not ok and witness.entries == element.entries, where
        assert list(enumerate_elements(S)).index(witness) == index, where
        assert rank_profile(S).counts == _ref_profile(S), where


def test_rank_table_serves_only_small_gf2_spans(monkeypatch):
    F = make_field(2)
    rng = random.Random("table selection")
    small = _random_span(F, 4, 4, 4, rng)
    wide = _random_span(F, 3, 6, 3, rng)
    expected = (rank_profile(small), is_constant_rank(small, 2))
    monkeypatch.setattr(subspace_mod, "rank_batch", _no_rank_batch)
    assert (rank_profile(small), is_constant_rank(small, 2)) == expected
    with pytest.raises(AssertionError, match="rank_batch called"):
        rank_profile(wide)
    with pytest.raises(AssertionError, match="rank_batch called"):
        is_constant_rank(wide, 2)


def _ref_image_of_kernel(S, sample, seed):
    """(_report, sampled) of check_image_of_kernel, element by element:
    rank every element, pick the maximal-rank ones (a seeded sample of them, in
    enumeration order), and test each kernel vector u against each basis
    matrix B by whether appending the column Bu keeps the rank of A."""
    F, n = S.field, S.n
    ranked = list(_ref_ranked(S))
    max_rank = max(rank for _, rank in ranked)
    top = [A for A, rank in ranked if rank == max_rank]
    picked = range(len(top))
    sampled = sample is not None and sample < len(top)
    if sampled:
        picked = sorted(random.Random(seed).sample(picked, sample))
    violations = []
    for i in picked:
        rows = top[i].rows_as_lists()
        for u in _ref_kernel(F, rows):
            for B in S.basis:
                Bu = [0] * n
                for a, row in enumerate(B.rows_as_lists()):
                    for x, y in zip(row, u):
                        Bu[a] = F.add(Bu[a], F.mul(x, y))
                aug = [row + [x] for row, x in zip(rows, Bu)]
                if ref_rank(F, aug) != max_rank:
                    violations.append((top[i].entries, tuple(u), B.entries))
    return (max_rank, len(picked), len(picked) * (n - max_rank) * S.d,
            violations), sampled


def _diagonal_pencil(F, extra: bool) -> SubspaceBasis:
    """diag(a + l_0 b, ..., a + l_(q-1) b, b) over the q scalars l_i.

    For (a, b) != 0 exactly one diagonal entry, say entry k, vanishes, so
    the span has constant rank r = q, out of reach of the q >= r + 1
    hypothesis: its kernel vector e_k is sent out of the image by every
    diagonal basis matrix whose entry k is non-zero.  With extra, E_01
    joins the basis: the elements stay singular upper triangular
    matrices, and c E_01 has rank 1.
    """
    n = F.q + 1
    diag = [[1] * F.q + [0], list(range(F.q)) + [1]]
    basis = [MatGF(F, n, n, [x[i] if i == j else 0
                             for i in range(n) for j in range(n)])
             for x in diag]
    if extra:
        basis.append(MatGF(F, n, n, [int(k == 1) for k in range(n * n)]))
    return SubspaceBasis(basis)


@pytest.mark.parametrize("pe", [c[0] for c in CLASS_CASES if c[0][0] ** c[0][1] < 16],
                         ids=_field_id)
def test_image_of_kernel_matches_per_element_reference(pe):
    F = make_field(*pe)
    spans = {
        "full rank": regular_representation(F, 3),
        "constant rank 1": truncated_construction(F, 3, 3, 1),
        "constant rank q": _diagonal_pencil(F, False),
        "mixed rank": _diagonal_pencil(F, True),
    }
    for where, S in spans.items():
        for sample, seed in [(None, 0), (3, 5), (10 ** 6, 1)]:
            rep = check_image_of_kernel(S, sample=sample, seed=seed)
            assert (_report(rep), rep.sampled) == \
                _ref_image_of_kernel(S, sample, seed), (where, sample)
        if where in ("constant rank q", "mixed rank"):
            assert rep.violations, where


# ---------------------------------------------------------------------------
# image containment per scalar class
# ---------------------------------------------------------------------------

def _lemma_spans(F):
    """Constant-rank square spans whose elements have kernels."""
    if F.q > 5:
        # the large-field boxes: 1x2 rank 1, padded, d = 2
        return [truncated_construction(F, 1, 2, 1).pad_to_square()]
    return [truncated_construction(F, 3, 3, 1),
            truncated_construction(F, 2, 3, 2).pad_to_square(),
            _diagonal_pencil(F, False)]


@pytest.mark.parametrize("pe", [(3, 1), (2, 2), (5, 1), (257, 1), (2, 9)],
                         ids=_field_id)
def test_image_check_reduces_one_element_per_class(pe, monkeypatch):
    reduced = []

    def counting(F, codes):
        reduced.append(len(codes))
        return _kernel_batch(F, codes)

    monkeypatch.setattr(analysis_mod, "_kernel_batch", counting)
    F = make_field(*pe)
    q = F.q
    for S in _lemma_spans(F):
        assert rank_profile(S).constant_rank_of() < S.n
        reduced.clear()
        rep = check_image_of_kernel(S)
        assert sum(reduced) == 2 * (q ** S.d - 1) // (q - 1)
        assert rep.elements_checked == q ** S.d - 1


def test_lemma_check_ranks_each_class_once(tmp_path, monkeypatch, capsys):
    ranked = []

    def counting(F, codes):
        ranked.append(len(codes))
        return rank_batch(F, codes)

    monkeypatch.setattr(subspace_mod, "rank_batch", counting)
    F = make_field(3)
    S = _diagonal_pencil(F, False)
    path = tmp_path / "span.txt"
    path.write_text(S.to_text())
    assert main(["lemma-check", "--input", str(path)]) == 1
    assert "lemma1_holds=false" in capsys.readouterr().out
    assert sum(ranked) == (F.q ** S.d - 1) // (F.q - 1)


@pytest.mark.parametrize("pe", [(7, 1), (2, 3), (3, 2), (11, 1)], ids=_field_id)
def test_sampled_violations_restrict_the_full_report(pe):
    # every non-zero element of the pencil has the maximal rank q, so
    # sampled ordinal k is element k + 1 in coefficient order
    F = make_field(*pe)
    S = _diagonal_pencil(F, False)
    elements = list(enumerate_elements(S))
    full = check_image_of_kernel(S)
    assert not full.sampled and full.elements_checked == len(elements) - 1
    for sample, seed in [(1, 0), (5, 3), (17, 11), (len(elements) - 2, 4)]:
        rep = check_image_of_kernel(S, sample=sample, seed=seed)
        picked = random.Random(seed).sample(range(len(elements) - 1), sample)
        chosen = {elements[k + 1] for k in picked}
        assert rep.sampled and rep.elements_checked == sample
        assert rep.violations == tuple(v for v in full.violations
                                       if v[0] in chosen), (sample, seed)
