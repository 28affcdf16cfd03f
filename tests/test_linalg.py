import math
import random
from fractions import Fraction

from bsdecomp import matrix_rank

from oracles import bareiss_rank


def sparse(matrix):
    return [dict(enumerate(row)) for row in matrix]


def test_empty_edge_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([{}]) == 0
    assert matrix_rank([{}, {}, {}]) == 0
    assert matrix_rank([{}, {4: 1}, {}]) == 1


def test_rank_known_cases():
    assert matrix_rank(sparse([[0, 0], [0, 0]])) == 0
    assert matrix_rank(sparse([[1, 2], [2, 4]])) == 1
    assert matrix_rank(sparse([[1, 0], [0, 1]])) == 2
    assert matrix_rank(sparse([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2


def test_rank_matches_bareiss_oracle():
    rng = random.Random(271828)
    for _ in range(80):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        matrix = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert matrix_rank(sparse(matrix)) == bareiss_rank(matrix)


def test_explicit_zero_values_are_dropped():
    assert matrix_rank([{0: 0, 7: 0}, {3: Fraction(0)}]) == 0
    # a zero at the largest key must not be taken for the leading entry
    assert matrix_rank([{0: 1, 9: 0}, {0: 2, 9: 0}]) == 1
    assert matrix_rank([{0: 1, 9: 0}, {9: 5}]) == 2


def test_fraction_values_match_oracle_on_scaled_rows():
    rng = random.Random(314159)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        # scaling a row by a nonzero integer keeps the rank
        scaled = []
        for row in matrix:
            scale = math.lcm(*(x.denominator for x in row))
            scaled.append([int(x * scale) for x in row])
        assert matrix_rank(sparse(matrix)) == bareiss_rank(scaled)


def test_keys_out_of_column_order():
    rng = random.Random(161803)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(ncols)] for _ in range(nrows)]
        # sparse, widely spaced keys inserted in shuffled order
        keys = rng.sample(range(1 << 12), ncols)
        rows = []
        for row in matrix:
            cols = list(range(ncols))
            rng.shuffle(cols)
            rows.append({keys[c]: row[c] for c in cols if row[c]})
        assert matrix_rank(rows) == bareiss_rank(matrix)
