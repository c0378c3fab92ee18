"""Matrix arithmetic, rank, kernel, image, parsing."""

from __future__ import annotations

import random

import pytest

from constrank import (
    DimensionMismatch,
    MatGF,
    ParseError,
    ShapeViolation,
    SubspaceBasis,
    UsageError,
    make_field,
    member_of_span,
    parse_matrix,
)
from conftest import col, mat, ref_rank


def _rank_oracle(field, rows):
    """Plain row reduction over field codes; no packing, no tables."""
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    rank = 0
    for j in range(n):
        piv = None
        for i in range(rank, m):
            if work[i][j]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = field.inv(work[rank][j])
        work[rank] = [field.mul(inv, x) for x in work[rank]]
        for i in range(m):
            if i != rank and work[i][j]:
                c = work[i][j]
                work[i] = [
                    field.sub(x, field.mul(c, y))
                    for x, y in zip(work[i], work[rank])
                ]
        rank += 1
    return rank


def test_constructor_validation(gf3):
    with pytest.raises(ShapeViolation):
        MatGF(gf3, 0, 2, [])
    with pytest.raises(ShapeViolation):
        MatGF(gf3, 2, 2, [1, 2, 0])
    with pytest.raises(ValueError):
        MatGF(gf3, 1, 2, [1, 3])
    with pytest.raises(ValueError):
        MatGF(gf3, 1, 2, [1, -1])


def test_rank_examples(gf2, gf5):
    assert MatGF.identity(gf2, 4).rank() == 4
    assert MatGF.zero(gf5, 3, 2).rank() == 0
    assert mat(gf2, [[0, 1], [0, 0]]).rank() == 1
    assert mat(gf2, [[1, 1], [1, 1]]).rank() == 1
    # second row is twice the first mod 5
    assert mat(gf5, [[1, 2], [2, 4]]).rank() == 1
    assert mat(gf5, [[1, 2], [2, 3]]).rank() == 2


@pytest.mark.parametrize("q,shape", [(2, (2, 2)), (2, (2, 3)), (3, (2, 2))])
def test_rank_equals_transpose_rank_exhaustively(q, shape):
    F = make_field(q)
    m, n = shape
    for code in range(q ** (m * n)):
        ent, c = [], code
        for _ in range(m * n):
            ent.append(c % q)
            c //= q
        A = MatGF(F, m, n, ent)
        assert A.rank() == A.transpose().rank()


def test_gf2_packed_rank_agrees_with_plain_elimination(gf2):
    rng = random.Random(99)
    for _ in range(5000):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        A = MatGF.from_rows(gf2, rows)
        assert A.rank() == _rank_oracle(gf2, rows)


def test_rank_agrees_with_plain_elimination_gf9():
    F = make_field(3, 2)
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randrange(9) for _ in range(n)] for _ in range(m)]
        assert MatGF.from_rows(F, rows).rank() == _rank_oracle(F, rows)


@pytest.mark.parametrize("pe", [(2, 1), (2, 2), (251, 1), (257, 1), (2, 9), (3, 6)],
                         ids=["GF(2)", "GF(4)", "GF(251)", "GF(257)", "GF(2^9)",
                              "GF(3^6)"])
def test_scalar_rank_matches_reference(pe):
    # the one scalar elimination behind rank, member_of_span and the
    # independence check of SubspaceBasis, on both sides of the q*q tables
    F = make_field(*pe)
    rng = random.Random(f"scalar rank:{pe}")
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(F.q) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            c = rng.randrange(F.q)
            rows[-1] = [F.add(x, F.mul(c, y)) for x, y in zip(rows[0], rows[1])]
        rank = ref_rank(F, rows)
        assert mat(F, rows).rank() == rank, rows
        columns = [col(F, [rows[i][j] for i in range(m)]) for j in range(n)]
        c = rng.randrange(F.q)
        inside = col(F, [F.add(r[0], F.mul(c, r[-1])) for r in rows])
        for v in (inside, col(F, [rng.randrange(F.q) for _ in range(m)])):
            assert member_of_span(v, columns) == (
                ref_rank(F, [u.entries for u in columns] + [v.entries]) == rank)
        mats = [mat(F, [row]) for row in rows]
        if rank == m:
            assert SubspaceBasis(mats).d == m
        else:
            with pytest.raises(UsageError, match="linearly dependent"):
                SubspaceBasis(mats)


def test_rank_nullity_and_kernel_annihilates(gf3):
    rng = random.Random(41)
    for _ in range(400):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = MatGF(gf3, m, n, [rng.randrange(3) for _ in range(m * n)])
        kernel = A.kernel_basis()
        assert A.rank() + len(kernel) == n
        for v in kernel:
            assert (A @ v).is_zero
        if kernel:
            stacked = MatGF(
                gf3, len(kernel), n,
                [v.at(i, 0) for v in kernel for i in range(n)],
            )
            assert stacked.rank() == len(kernel)


def test_image_basis_spans_columns(gf5):
    rng = random.Random(17)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = MatGF(gf5, m, n, [rng.randrange(5) for _ in range(m * n)])
        image = A.image_basis()
        assert len(image) == A.rank()
        for j in range(n):
            column = col(gf5, [A.at(i, j) for i in range(m)])
            assert member_of_span(column, image)


def test_matmul_and_transpose_identities(gf3):
    rng = random.Random(5)
    for _ in range(100):
        A = MatGF(gf3, 3, 2, [rng.randrange(3) for _ in range(6)])
        B = MatGF(gf3, 2, 4, [rng.randrange(3) for _ in range(8)])
        P = A @ B
        assert P.m == 3 and P.n == 4
        assert P.transpose() == B.transpose() @ A.transpose()
        assert (A @ MatGF.identity(gf3, 2)) == A
    with pytest.raises(DimensionMismatch):
        MatGF.identity(gf3, 3) @ MatGF.identity(gf3, 2)


def test_additive_group_structure(gf4):
    rng = random.Random(3)
    mats = [
        MatGF(gf4, 2, 3, [rng.randrange(4) for _ in range(6)])
        for _ in range(6)
    ]
    for A in mats:
        assert (A + (-A)).is_zero
        assert A - A == MatGF.zero(gf4, 2, 3)
        assert A.scale(0).is_zero
        assert A.scale(1) == A
        for B in mats:
            assert A + B == B + A


def test_lex_order_last_entry_fastest(gf2):
    A = mat(gf2, [[0, 0], [0, 1]])
    B = mat(gf2, [[0, 0], [1, 0]])
    C = mat(gf2, [[1, 0], [0, 0]])
    assert A < B < C
    with pytest.raises(DimensionMismatch):
        A < mat(gf2, [[1, 0, 0], [0, 0, 0]])


def test_member_of_span(gf3):
    e1 = col(gf3, [1, 0, 0])
    e2 = col(gf3, [0, 1, 0])
    assert member_of_span(col(gf3, [2, 1, 0]), [e1, e2])
    assert not member_of_span(col(gf3, [0, 0, 1]), [e1, e2])
    assert member_of_span(col(gf3, [0, 0, 0]), [])
    assert not member_of_span(col(gf3, [1, 0, 0]), [])


def test_padding(gf2):
    A = mat(gf2, [[1, 1, 0], [0, 1, 1]])
    P = A.pad_rows(4)
    assert P.m == 4 and P.n == 3
    assert P.rank() == A.rank()
    assert [P.at(0, j) for j in range(3)] == [1, 1, 0]
    assert all(P.at(i, j) == 0 for i in (2, 3) for j in range(3))
    S = A.pad_to_square()
    assert S.m == S.n == 3
    with pytest.raises(ShapeViolation):
        A.transpose().pad_to_square()
    with pytest.raises(ShapeViolation):
        A.pad_rows(1)


def test_text_round_trip(gf2, gf4):
    for A in (
        mat(gf2, [[1, 0, 1], [0, 1, 1]]),
        MatGF.identity(gf4, 3),
        MatGF.zero(gf4, 1, 4),
    ):
        assert parse_matrix(A.to_text()) == A


def test_parse_matrix_reports_position():
    good = "2 2 GF(3)\n1 2\n0 1\n"
    assert parse_matrix(good) == mat(make_field(3), [[1, 2], [0, 1]])

    with pytest.raises(ParseError) as info:
        parse_matrix("2 2 GF(3)\n1 2\n0 3\n")
    assert info.value.line == 3
    assert info.value.col == 3

    with pytest.raises(ParseError):
        parse_matrix("2 2 GF(3)\n1 2\n")

    with pytest.raises(ParseError):
        parse_matrix(good + "9\n")


def test_hash_consistent_with_eq(gf3):
    A = mat(gf3, [[1, 2], [0, 1]])
    B = mat(gf3, [[1, 2], [0, 1]])
    assert A == B and hash(A) == hash(B)
    assert len({A, B}) == 1
