import random

import pytest

from bsdecomp import matrix_rank

from oracles import bareiss_rank


def test_empty_edge_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[]]) == 0
    with pytest.raises(ValueError, match="ragged"):
        matrix_rank([[1, 2], [1]])


def test_rank_known_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_rank_matches_bareiss_oracle():
    rng = random.Random(271828)
    for _ in range(80):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        matrix = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert matrix_rank(matrix) == bareiss_rank(matrix)
