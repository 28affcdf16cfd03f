import collections
import functools
import itertools
import math
import operator
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bsdecomp.monomial
from bsdecomp import (
    BettiTable,
    CertificateError,
    Monomial,
    MonomialIdeal,
    ParseError,
    ZeroIdealError,
    betti_table,
    detect_stabilization,
    ideal_from_json,
    ideal_to_json,
    is_equigenerated,
    parse_btt_text,
    parse_monomial,
    power,
    power_tables,
)
from bsdecomp.monomial import (
    MAX_VARIABLES,
    _SEARCH_BUDGET,
    _faces_of,
    _height,
    _homology_from_masks,
    _key_homology,
    _lattice,
    _maximal,
    _strong_core,
    _symmetries,
)
from oracles import hilbert_numerator, reduced_homology_oracle, taylor_betti_table
from reference_values import MINIMAL_GENERATOR_COUNTS, SMALL_TABLES, path_edge_ideal


def m(*exps):
    return Monomial(tuple(exps))


def _int_refusal(digits: str) -> str:
    """What int() says of an integer longer than Python converts from text."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    return "int() converted it"


_HUGE = "1" + "0" * 4999


def _unit(v):
    return tuple(int(u == v) for u in range(12))


# parse_monomial at 12 variables: the exponents, or the exact message; one
# input at least for every message the lexer can give
PARSE_CORPUS = [
    ("", "empty monomial in ''"),
    ("   ", "empty monomial in '   '"),
    ("　", "empty monomial in '\\u3000'"),
    ("y1", "expected 'x' at position 0 in 'y1'"),
    ("x", "expected variable index at position 1 in 'x'"),
    ("x^2", "expected variable index at position 1 in 'x^2'"),
    ("x0", "variable x0 out of range 1..12 in 'x0'"),
    ("x13", "variable x13 out of range 1..12 in 'x13'"),
    ("x1^", "expected exponent at position 3 in 'x1^'"),
    ("x1^0", "exponent must be >= 1 at position 3 in 'x1^0'"),
    ("x1^00", "exponent must be >= 1 at position 3 in 'x1^00'"),
    ("x1^01", _unit(0)),
    ("x1 x2", "expected '*' at position 3 in 'x1 x2'"),
    ("x1*", "expected 'x' at position 3 in 'x1*'"),
    ("x1**x2", "expected 'x' at position 3 in 'x1**x2'"),
    ("*x1", "expected 'x' at position 0 in '*x1'"),
    ("x²", "expected variable index at position 1 in 'x²'"),
    ("x1^²", "expected exponent at position 3 in 'x1^²'"),
    ("x١", "expected variable index at position 1 in 'x١'"),
    ("\x85x2\x85", _unit(1)),
    ("\tx3^2*x3 \x0b", tuple(3 * u for u in _unit(2))),
    ("x1　*　x2^3", (1, 3) + (0,) * 10),
    ("x12^3 * x1", (1,) + (0,) * 10 + (3,)),
    ("x" + _HUGE, f"variable index at position 1: {_int_refusal(_HUGE)}"),
    ("x1^" + _HUGE, f"exponent at position 3: {_int_refusal(_HUGE)}"),
]


def random_ideal(rng, num_vars, num_gens, max_exp=3):
    gens = []
    while len(gens) < num_gens:
        exps = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        if any(exps):
            gens.append(Monomial(exps))
    return MonomialIdeal(num_vars, tuple(gens))


# exponents on either side of the powers of two up to 16, 0 included
FIELD_EDGES = (0, 1, 2, 3, 4, 7, 8, 15, 16)


@st.composite
def edge_ideals(draw, max_vars=4, max_gens=5):
    n = draw(st.integers(1, max_vars))
    vectors = st.tuples(*[st.sampled_from(FIELD_EDGES)] * n)
    gens = draw(st.lists(vectors, min_size=1, max_size=max_gens))
    return MonomialIdeal(n, tuple(Monomial(e) for e in gens))


def brute_lcm_lattice(ideal):
    """lcm of every nonempty generator subset, by definition, one generator
    at a time: the subsets holding g are {g} and each earlier subset plus g."""
    closure = set()
    for g in ideal.generators:
        closure |= {tuple(map(max, b, g.exponents)) for b in closure} | {g.exponents}
    return frozenset(Monomial(b) for b in closure)


def is_full_simplex(ideal, b):
    """supp(b) is nonempty and a generator has g_v < b_v on all of it, so its
    simplex {v : g_v < b_v} is every face sigma inside supp(b)."""
    support = [v for v, c in enumerate(b.exponents) if c]
    return bool(support) and any(
        g.divides(b) and all(g.exponents[v] < b.exponents[v] for v in support) for g in ideal.generators
    )


def brute_koszul_faces(ideal, b):
    """sigma inside supp b with x^b / x^sigma in the ideal, by definition."""
    support = [v for v, e in enumerate(b.exponents) if e > 0]
    faces = set()
    for r in range(len(support) + 1):
        for sigma in itertools.combinations(support, r):
            reduced = Monomial(tuple(e - (v in sigma) for v, e in enumerate(b.exponents)))
            if any(g.divides(reduced) for g in ideal.generators):
                faces.add(frozenset(sigma))
    return frozenset(faces)


def brute_classes(ideal, b):
    """The generators dividing b grouped by S_g = {v : g_v = b_v}, by
    definition: {mask of S: mask of the divisors with that S}."""
    classes = {}
    for i, g in enumerate(ideal.generators):
        if g.divides(b):
            same = sum(1 << v for v, (e, c) in enumerate(zip(g.exponents, b.exponents)) if e == c)
            classes[same] = classes.get(same, 0) | 1 << i
    return classes


def exponents_of(ideal):
    """The ideal's generators as the exponent tuples ``_lattice`` walks."""
    return [g.exponents for g in ideal.generators]


def minimal_sums(drawn, k):
    """The minimal k-fold sums of the exponent vectors drawn, repeats
    allowed, sorted: by definition, every sum that no other one divides."""
    sums = {tuple(map(sum, zip(*combo))) for combo in itertools.product(drawn, repeat=k)}
    return sorted(s for s in sums if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in sums))


def walk_points(ideal):
    """``(b, degree, classes)`` for each point the walk yields, with b taken
    as the lcm of the divisors in its classes."""
    for degree, classes, _ in _lattice(ideal.num_vars, exponents_of(ideal)):
        divisors = functools.reduce(operator.or_, classes.values())
        gens = [g.exponents for i, g in enumerate(ideal.generators) if divisors >> i & 1]
        yield Monomial(tuple(map(max, zip(*gens)))), degree, classes


def walk_keys(ideal):
    """{b: the walk's key at b} for each point it yields."""
    return {b: tuple(classes) for b, _, classes in walk_points(ideal)}


def walk_facets(ideal):
    """{b: maximal facets at b} for each point the walk yields, derived from
    its key: the complements of the distinct S_g, cut to the maximal ones."""
    full = (1 << ideal.num_vars) - 1
    return {b: _maximal(full ^ same for same in key) for b, key in walk_keys(ideal).items()}


def vertex_sets(masks):
    """Faces as vertex sets, from faces as vertex bitmasks."""
    return frozenset(frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in masks)


def has_apex(faces, num_vars):
    """Some vertex v with sigma | {v} a face for every face sigma."""
    return any(all(f | {v} in faces for f in faces) for v in range(num_vars))


def facet_masks(facets):
    """Vertex bitmasks of facets given as vertex lists."""
    return tuple(sum(1 << v for v in f) for f in facets)


def random_complexes(seed, count=40):
    """``(facet masks, vertex count)`` for random complexes on 6-10 vertices:
    2-9 facets of 1-4 vertices, and in half of them the boundary of a simplex
    on 3-5 vertices, a sphere unless other facets fill it."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(6, 10)
        facets = [rng.sample(range(n), rng.randint(1, 4)) for _ in range(rng.randint(2, 9))]
        if rng.random() < 0.5:
            hollow = rng.sample(range(n), rng.randint(3, 5))
            facets += itertools.combinations(hollow, len(hollow) - 1)
        yield facet_masks(facets), n


def edge_ideal(num_vars, edges):
    """The edge ideal of a graph on num_vars vertices, edges as index pairs."""
    return MonomialIdeal(num_vars, tuple(Monomial(tuple(int(v in e) for v in range(num_vars))) for e in edges))


CHAINS_IDEAL = MonomialIdeal(4, (m(1, 1, 1, 0), m(0, 1, 1, 1), m(3, 0, 0, 0), m(0, 0, 0, 3)))
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def rank_path(monkeypatch):
    """The vertex counts of the calls ``_key_homology`` makes to
    ``_homology_from_masks``: one per complex that reaches faces and ranks."""
    calls = []
    real = bsdecomp.monomial._homology_from_masks

    def counting(masks, n):
        calls.append(n)
        return real(masks, n)

    monkeypatch.setattr(bsdecomp.monomial, "_homology_from_masks", counting)
    return calls


@pytest.fixture
def core_builds(monkeypatch):
    """The facets of each call ``_key_homology`` makes to ``_strong_core``:
    one per complex that the nerve of its facets does not decide."""
    calls = []
    real = bsdecomp.monomial._strong_core

    def counting(facets):
        calls.append(facets)
        return real(facets)

    monkeypatch.setattr(bsdecomp.monomial, "_strong_core", counting)
    return calls


def decision(key, num_vars, rank_path):
    """How ``_key_homology`` decides a key: "cone", "vertex" or "sphere" (a
    simplex boundary, read in closed form), or "rank" (faces and ranks)."""
    before = len(rank_path)
    dims = _key_homology(key, num_vars)
    if dims == ():
        return "cone"
    if len(rank_path) > before:
        return "rank"
    if dims == []:
        return "vertex"
    assert dims == [0] * (len(dims) - 1) + [1]
    return "sphere"


class TestMonomial:
    def test_basics(self):
        a = m(2, 0, 1)
        assert a.num_vars == 3
        assert a.degree == 3
        assert a.text() == "x1^2*x3"
        assert m(0, 0).text() == "1"

    def test_divides(self):
        a, b = m(1, 2, 0), m(0, 1, 3)
        assert not a.divides(b) and not b.divides(a)
        assert m(0, 1, 0).divides(a) and a.divides(a)
        assert a.divides(m(1, 2, 3)) and b.divides(m(1, 3, 3))
        assert m(0, 0, 0).divides(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            m(1, -1)
        with pytest.raises(ValueError):
            m(1.5)
        with pytest.raises(ValueError):
            m(1, 2).divides(m(1, 2, 3))

    def test_refuses_boolean_exponents(self):
        # booleans are integers to Python, so True used to read as exponent 1
        with pytest.raises(ValueError, match="non-integer exponent"):
            Monomial((True, 0))


class TestParseMonomial:
    def test_plain_and_powers(self):
        assert parse_monomial("x1^2*x3", 3) == m(2, 0, 1)
        assert parse_monomial("x2", 2) == m(0, 1)
        assert parse_monomial(" x1 * x2 ", 2) == m(1, 1)

    def test_repeated_factors_accumulate(self):
        assert parse_monomial("x1*x1^2", 1) == m(3)
        assert parse_monomial("x2*x1*x2", 2) == m(1, 2)

    def test_errors(self):
        with pytest.raises(ParseError, match="empty"):
            parse_monomial("   ", 2)
        with pytest.raises(ParseError, match="expected 'x' at position 0"):
            parse_monomial("y1", 2)
        with pytest.raises(ParseError, match="out of range"):
            parse_monomial("x9", 2)
        with pytest.raises(ParseError, match="variable index"):
            parse_monomial("x^2", 2)
        with pytest.raises(ParseError, match="exponent"):
            parse_monomial("x1^", 2)
        with pytest.raises(ParseError, match="expected '\\*'"):
            parse_monomial("x1 x2", 2)
        with pytest.raises(ParseError, match="expected 'x'"):
            parse_monomial("x1*", 2)

    @pytest.mark.parametrize("text, expected", PARSE_CORPUS, ids=range(len(PARSE_CORPUS)))
    def test_frozen_corpus(self, text, expected):
        if isinstance(expected, tuple):
            assert parse_monomial(text, 12) == Monomial(expected)
        else:
            with pytest.raises(ParseError) as caught:
                parse_monomial(text, 12)
            assert str(caught.value) == expected

    @settings(max_examples=200)
    @given(st.integers(1, 16).flatmap(lambda n: st.lists(st.integers(0, 1000), min_size=n, max_size=n)))
    def test_text_reads_back(self, exponents):
        if any(exponents):
            a = Monomial(tuple(exponents))
            assert parse_monomial(a.text(), len(exponents)) == a

    @settings(max_examples=300)
    @given(st.text(), st.integers(1, MAX_VARIABLES))
    def test_any_text_parses_or_is_a_parse_error(self, text, num_vars):
        try:
            assert isinstance(parse_monomial(text, num_vars), Monomial)
        except ParseError:
            pass


class TestMonomialIdeal:
    def test_construction_is_canonical(self):
        a = MonomialIdeal(2, (m(1, 1), m(2, 0), m(1, 1), m(2, 2)))
        b = MonomialIdeal(2, (m(2, 0), m(1, 1)))
        assert a == b
        assert a.generators == (m(1, 1), m(2, 0))

    def test_zero_ideal(self):
        z = MonomialIdeal(3, ())
        assert z.is_zero
        assert not path_edge_ideal().is_zero

    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialIdeal(0, ())
        with pytest.raises(ValueError):
            MonomialIdeal(2, (m(1, 0, 0),))
        with pytest.raises(TypeError):
            MonomialIdeal(2, ("x1",))

    def test_refuses_a_boolean_variable_count(self):
        # True used to count as 1 variable
        with pytest.raises(TypeError, match="True is not an integer"):
            MonomialIdeal(True, (m(1),))

    def test_variable_cap(self):
        assert MonomialIdeal(16, (Monomial((1,) * 16),)).num_vars == 16
        with pytest.raises(ValueError, match="cap"):
            MonomialIdeal(17, ())


class TestPower:
    def test_identity_and_validation(self):
        ideal = path_edge_ideal()
        assert power(ideal, 1) == ideal
        with pytest.raises(ValueError):
            power(ideal, 0)

    def test_single_variable(self):
        ideal = MonomialIdeal(1, (m(1),))
        assert power(ideal, 7).generators == (m(7),)

    def test_path_generator_counts(self):
        ideal = path_edge_ideal()
        for k, count in MINIMAL_GENERATOR_COUNTS.items():
            assert len(power(ideal, k).generators) == count

    def test_power_of_power(self):
        ideal = path_edge_ideal()
        assert power(power(ideal, 2), 3) == power(ideal, 6)

    def test_matches_k_fold_sums(self):
        # I^k is minimally generated by the minimal k-fold sums of the
        # exponent vectors of any generating set, repeats allowed
        rng = random.Random(41)
        degrees = set()
        for _ in range(40):
            n = rng.randint(1, 4)
            drawn = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
            ideal = MonomialIdeal(n, tuple(Monomial(e) for e in drawn))
            degrees.add(is_equigenerated(ideal))
            for k in range(1, 5):
                sums = {
                    tuple(sum(e[v] for e in combo) for v in range(n)) for combo in itertools.product(drawn, repeat=k)
                }
                minimal = sorted(
                    s for s in sums if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in sums)
                )
                assert [g.exponents for g in power(ideal, k).generators] == minimal
        assert None in degrees  # some ideals mix generator degrees
        for n in range(1, 5):
            for k in range(1, 5):
                assert power(MonomialIdeal(n, ()), k).is_zero

    @pytest.fixture
    def walked(self, monkeypatch):
        """The exponent tuples of each walk ``power_tables`` makes, in order."""
        walks = []
        real = bsdecomp.monomial._lattice

        def recording(num_vars, exponents, symmetries=()):
            walks.append(list(exponents))
            return real(num_vars, exponents, symmetries)

        monkeypatch.setattr(bsdecomp.monomial, "_lattice", recording)
        return walks

    def test_walks_read_the_minimal_products(self, walked):
        # each power's tuples come from the previous power's times I's; they
        # are I^k's minimal generators, as power() gives them and as the
        # minimal k-fold sums of the generators drawn define them, on the
        # unit ideal, one variable, and ideals of mixed degrees
        rng = random.Random(3301)
        drawn_sets = [[(0, 0, 0)], [(3,), (5,)], [(2, 0), (0, 3)], [(1, 1), (2, 0)]]
        for _ in range(20):
            n = rng.randint(1, 4)
            drawn_sets.append([tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))])
        ideals = [MonomialIdeal(len(drawn[0]), tuple(map(Monomial, drawn))) for drawn in drawn_sets]
        assert {is_equigenerated(ideal) is None for ideal in ideals} == {True, False}
        for drawn, ideal in zip(drawn_sets, ideals):
            if ideal.is_zero:
                continue
            walked.clear()
            power_tables(ideal, 1, 4)
            assert len(walked) == 4
            for k, exponents in enumerate(walked, 1):
                assert exponents == [g.exponents for g in power(ideal, k).generators], (ideal, k)
                assert exponents == minimal_sums(drawn, k), (ideal, k)

    def test_powers_below_k_min_are_not_walked(self, walked):
        # the tables from k = 3 on, with I^1 and I^2 built but not walked,
        # are those of the powers power() expands, on ideals of mixed degrees
        rng = random.Random(3306)
        checked = 0
        while checked < 6:
            ideal = random_ideal(rng, rng.randint(1, 3), rng.randint(2, 4), max_exp=2)
            if is_equigenerated(ideal) is not None:
                continue
            walked.clear()
            tables = power_tables(ideal, 3, 5)
            assert [len(w) for w in walked] == [len(power(ideal, k).generators) for k in (3, 4, 5)]
            assert tables == {k: betti_table(power(ideal, k)) for k in (3, 4, 5)}, ideal
            checked += 1


class TestEquigenerated:
    def test_cases(self):
        assert is_equigenerated(path_edge_ideal()) == 2
        assert is_equigenerated(power(path_edge_ideal(), 4)) == 8
        mixed = MonomialIdeal(2, (m(2, 0), m(0, 3)))
        assert is_equigenerated(mixed) is None


class TestLcmClosure:
    def test_matches_subset_enumeration(self):
        # the walk yields the lattice points that are not full simplices
        rng = random.Random(31)
        for _ in range(25):
            ideal = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 5))
            expected = {b for b in brute_lcm_lattice(ideal) if not is_full_simplex(ideal, b)}
            points = set()
            for b, degree, classes in walk_points(ideal):
                assert degree == b.degree
                assert classes == brute_classes(ideal, b)
                points.add(b)
            assert points == expected

    @settings(max_examples=60)
    @given(edge_ideals())
    @example(MonomialIdeal(2, (m(0, 0),)))
    def test_walk_matches_definition(self, ideal):
        points = []
        for b, degree, classes in walk_points(ideal):
            assert degree == b.degree
            # one class per distinct S, as the definition groups them
            assert classes == brute_classes(ideal, b)
            points.append(b)
        # each point once: a repeat would count its homology twice
        assert len(points) == len(set(points))
        assert set(points) == {b for b in brute_lcm_lattice(ideal) if not is_full_simplex(ideal, b)}
        # the key is the memo's: it must not depend on the generator order
        keys = walk_keys(ideal)
        gens = ideal.generators
        for order in (gens[::-1], gens[1:] + gens[:1]):
            assert walk_keys(SimpleNamespace(num_vars=ideal.num_vars, generators=order)) == keys

    def test_closure_size_can_beat_subset_count(self):
        # 10 generators but far fewer than 2^10 - 1 distinct lcms
        ideal = power(path_edge_ideal(), 2)
        assert len(ideal.generators) == 10
        assert sum(1 for _ in _lattice(ideal.num_vars, exponents_of(ideal))) < 2 ** 10 - 1


class TestFacesOf:
    def test_from_facets(self):
        assert sorted(_faces_of((0b011, 0b100))) == [0, 1, 2, 3, 4]

    def test_void_vs_empty_face(self):
        # the void complex has no faces; {empty set} has H~_{-1} = Q
        assert _homology_from_masks([], 2) == [0, 0, 0]
        assert _homology_from_masks([0], 2) == [1, 0, 0]
        # no facets span {empty set}, not the void complex
        assert _faces_of(()) == [0]


class TestUpperKoszul:
    def test_generator_multidegree_gives_irrelevant_complex(self):
        ideal = MonomialIdeal(3, (m(1, 1, 0), m(0, 1, 1)))
        facets = walk_facets(ideal)[m(1, 1, 0)]
        assert facets == [0]
        assert _homology_from_masks(_faces_of(facets), 3)[0] == 1

    def test_pair_lcm_gives_two_points(self):
        ideal = MonomialIdeal(3, (m(1, 1, 0), m(0, 1, 1)))
        facets = walk_facets(ideal)[m(1, 1, 1)]
        assert vertex_sets(_faces_of(facets)) == {frozenset(), frozenset({0}), frozenset({2})}
        dims = _homology_from_masks(_faces_of(facets), 3)
        assert dims[1] == 1 and sum(dims) == 1

    def test_outside_ideal_is_void(self):
        ideal = MonomialIdeal(2, (m(2, 0),))
        assert m(1, 1) not in walk_facets(ideal)
        assert brute_koszul_faces(ideal, m(1, 1)) == frozenset()

    @settings(max_examples=40)
    @given(edge_ideals(), st.data())
    def test_matches_definition(self, ideal, data):
        # every point the walk yields, from the maximal facets of its key
        walked = walk_facets(ideal)
        for b, facets in walked.items():
            assert vertex_sets(_faces_of(facets)) == brute_koszul_faces(ideal, b)
        # multidegrees off the lattice whose exponents exceed every
        # generator's, so no generator reaches them, and b = 0, outside every
        # ideal but the unit ideal: unless yielded, void or a cone
        points = [Monomial((0,) * ideal.num_vars)]
        tops = [max(g.exponents[v] for g in ideal.generators) for v in range(ideal.num_vars)]
        for _ in range(3):
            extra = data.draw(st.tuples(*[st.integers(1, 20)] * ideal.num_vars))
            points.append(Monomial(tuple(t + e for t, e in zip(tops, extra))))
        for b in points:
            if b not in walked:
                faces = brute_koszul_faces(ideal, b)
                assert not faces or has_apex(faces, ideal.num_vars), b


class TestConeFromMasks:
    @settings(max_examples=80)
    @given(
        st.one_of(
            edge_ideals(),
            st.builds(random_ideal, st.randoms(use_true_random=False), st.integers(1, 4), st.integers(1, 6)),
        )
    )
    @example(MonomialIdeal(2, (m(0, 0),)))
    # every lattice point has b_3 = 0; at (2, 2, 0), x1*x2 spans the full simplex on supp b
    @example(MonomialIdeal(3, (m(2, 0, 0), m(1, 1, 0), m(0, 2, 0))))
    def test_skipped_points_have_an_apex(self, ideal):
        # each yielded point as betti_table memoizes its key: () for a cone
        walked = {b: _key_homology(key, ideal.num_vars) for b, key in walk_keys(ideal).items()}
        lattice = brute_lcm_lattice(ideal)
        assert walked.keys() <= lattice
        for b in lattice:
            faces = brute_koszul_faces(ideal, b)
            support = frozenset(v for v, c in enumerate(b.exponents) if c)
            full = bool(support) and support in faces
            # the walk skips exactly the full simplices on a nonempty supp(b)
            assert full == (b not in walked), b
            if full or walked[b] == ():
                assert has_apex(faces, ideal.num_vars), b

    def test_both_tests_fire_on_a_path_power(self, path_ideal):
        # P5^4: the walk skips the full simplices; the points it yields share
        # their keys, and each distinct key is a cone or reaches homology
        ideal = power(path_ideal, 4)
        keys = walk_keys(ideal)
        points = sum(1 for _ in _lattice(ideal.num_vars, exponents_of(ideal)))
        assert (points, len(keys), len(brute_lcm_lattice(ideal))) == (323, 323, 517)
        decided = [_key_homology(key, ideal.num_vars) for key in set(keys.values())]
        assert (len(decided), decided.count(()), len(decided) - decided.count(())) == (86, 55, 31)
        # P5^8: the prune leaves 2,832 of the 7,809 lattice points
        ideal = power(path_ideal, 8)
        points = sum(1 for _ in bsdecomp.monomial._lattice(ideal.num_vars, exponents_of(ideal)))
        assert (points, len(brute_lcm_lattice(ideal))) == (2832, 7809)

    @pytest.mark.parametrize(
        "ideal, powers, counts",
        [
            (path_edge_ideal(), range(1, 9), (6934, 581, 371)),
            (CHAINS_IDEAL, range(1, 7), (746, 97, 27)),
        ],
        ids=["P5^1..8", "chains^1..6"],
    )
    def test_memo_key_counts_on_the_stabilize_ideals(self, ideal, powers, counts):
        # points yielded, and distinct memo keys and cone keys summed over
        # the tables: fixed by the keys' canonical split order
        points = keys = cones = 0
        for k in powers:
            power_k = power(ideal, k)
            table_keys = set()
            for _, classes, _ in _lattice(power_k.num_vars, exponents_of(power_k)):
                points += 1
                table_keys.add(tuple(classes))
            keys += len(table_keys)
            cones += sum(_key_homology(key, power_k.num_vars) == () for key in table_keys)
        assert (points, keys, cones) == counts

    @pytest.mark.parametrize(
        "ideal, k_max, misses",
        [(path_edge_ideal(), 8, 92), (CHAINS_IDEAL, 6, 21)],
        ids=["P5^1..8", "chains^1..6"],
    )
    def test_stabilize_takes_homology_once_per_family_key(self, ideal, k_max, misses, monkeypatch):
        # a key names its complex at every power, so the run shares one memo
        # across its tables: one homology per distinct key of the family, not
        # per key of each table (581 and 97 above); a second run counts the
        # same again, so no memo outlives the call. Only one point per orbit
        # of P5's reversal reaches the memo (102 keys on the plain walk);
        # the chains ideal's symmetry decides only at its last variable, so
        # its walk uses none
        calls = []
        real = bsdecomp.monomial._key_homology

        def counting(key, num_vars):
            calls.append(key)
            return real(key, num_vars)

        monkeypatch.setattr(bsdecomp.monomial, "_key_homology", counting)
        for run in (1, 2):
            detect_stabilization(ideal, 1, k_max)
            assert len(calls) == misses * run
        assert len(set(calls)) == misses

    @pytest.mark.parametrize(
        "ideal, powers, split",
        [(path_edge_ideal(), range(1, 9), (371, 78, 77, 55)), (CHAINS_IDEAL, range(1, 7), (27, 0, 59, 11))],
        ids=["P5^1..8", "chains^1..6"],
    )
    def test_how_each_key_is_decided(self, ideal, powers, split, rank_path):
        # distinct memo keys summed over the tables, as (cones, one-vertex
        # cores, simplex-boundary cores, cores that reach faces and ranks)
        decided = []
        for k in powers:
            power_k = power(ideal, k)
            keys = {tuple(classes) for _, classes, _ in _lattice(power_k.num_vars, exponents_of(power_k))}
            decided += [decision(key, power_k.num_vars, rank_path) for key in keys]
        assert tuple(map(decided.count, ("cone", "vertex", "sphere", "rank"))) == split
        assert len(rank_path) == split[3]


class TestReducedHomology:
    def test_known_complexes(self):
        assert _homology_from_masks([], 3) == [0, 0, 0, 0]  # void
        assert _homology_from_masks(_faces_of(()), 3) == [1, 0, 0, 0]  # {empty set}

        two_points = facet_masks([{0}, {1}])
        assert _homology_from_masks(_faces_of(two_points), 2) == [0, 1, 0]

        hollow_triangle = facet_masks([{0, 1}, {1, 2}, {0, 2}])
        assert _homology_from_masks(_faces_of(hollow_triangle), 3) == [0, 0, 1, 0]

        solid_triangle = facet_masks([{0, 1, 2}])
        assert _homology_from_masks(_faces_of(solid_triangle), 3) == [0, 0, 0, 0]

        square = facet_masks([{0, 1}, {1, 2}, {2, 3}, {0, 3}])
        assert _homology_from_masks(_faces_of(square), 4) == [0, 0, 1, 0, 0]

    def test_disjoint_union_adds_components(self):
        three_points = facet_masks([{0}, {1}, {2}])
        assert _homology_from_masks(_faces_of(three_points), 3)[1] == 2

    def test_euler_characteristic_identity(self):
        rng = random.Random(63)
        for _ in range(30):
            n = rng.randint(1, 5)
            facets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
            faces = _faces_of(facet_masks(facets))
            face_side = sum((-1) ** (f.bit_count() - 1) for f in faces)
            dims = _homology_from_masks(faces, n)
            homology_side = sum((-1) ** (slot - 1) * d for slot, d in enumerate(dims))
            assert face_side == homology_side

    def test_matches_dense_oracle_beyond_five_vertices(self):
        nonzero_slots = set()
        for masks, n in random_complexes(8128):
            faces = _faces_of(masks)
            dims = _homology_from_masks(faces, n)
            assert dims == reduced_homology_oracle(vertex_sets(faces), n)
            nonzero_slots.update(slot for slot, d in enumerate(dims) if d)
        # the draw exercises homology above H~_0, not only components
        assert {1, 2, 3, 4} <= nonzero_slots

    def test_real_projective_plane_is_rationally_acyclic(self):
        # the 6-vertex triangulation: over GF(2), H~_1 and H~_2 would be 1
        triangles = [
            {0, 1, 3}, {0, 1, 5}, {0, 2, 4}, {0, 2, 5}, {0, 3, 4},
            {1, 2, 3}, {1, 2, 4}, {1, 4, 5}, {2, 3, 5}, {3, 4, 5},
        ]
        faces = _faces_of(facet_masks(triangles))
        assert sum(f.bit_count() == 2 for f in faces) == 15
        assert _homology_from_masks(faces, 6) == [0] * 7
        assert reduced_homology_oracle(vertex_sets(faces), 6) == [0] * 7


def core_keeping_homology(facets, n):
    """The strong-collapse core of the complex the facets span, after checking
    that its homology is the dense oracle's for the whole complex."""
    core = _strong_core(_maximal(facets))
    assert sorted(_maximal(core)) == sorted(core)  # the core's facets are maximal
    full = reduced_homology_oracle(vertex_sets(_faces_of(facets)), n)
    assert _homology_from_masks(_faces_of(core), n) == full
    return core


class TestStrongCore:
    def test_random_complexes_keep_their_homology(self):
        shrunk = 0
        for masks, n in random_complexes(1729):
            core = core_keeping_homology(masks, n)
            shrunk += len(_faces_of(core)) < len(_faces_of(masks))
        assert shrunk >= 20

    def test_mutually_dominating_edge_keeps_one_vertex(self):
        # deleting both ends of {0, 1} would leave {empty set}, with H~_{-1} = Q
        core = core_keeping_homology(facet_masks([{0, 1}]), 2)
        assert len(core) == 1 and core[0].bit_count() == 1

    def test_cone_collapses_to_a_vertex(self):
        cone_over_square = facet_masks([{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 1}])
        core = core_keeping_homology(cone_over_square, 5)
        assert len(core) == 1 and core[0].bit_count() == 1

    def test_minimal_complexes_come_back_unchanged(self):
        hollow_triangle = facet_masks([{0, 1}, {1, 2}, {0, 2}])
        real_projective_plane = facet_masks([
            {0, 1, 3}, {0, 1, 5}, {0, 2, 4}, {0, 2, 5}, {0, 3, 4},
            {1, 2, 3}, {1, 2, 4}, {1, 4, 5}, {2, 3, 5}, {3, 4, 5},
        ])
        for facets, n in ((hollow_triangle, 3), (real_projective_plane, 6), ((0,), 2)):
            assert sorted(core_keeping_homology(facets, n)) == sorted(facets)


def key_of(facets, num_vars):
    """The walk key, distinct S_g, whose complements are the given facets."""
    return tuple(((1 << num_vars) - 1) ^ f for f in facets)


def checked_key_homology(facets, num_vars):
    """``_key_homology`` on the key of the complex the facets span, after
    checking it, padded with zeros, against faces and ranks on the core and
    against the dense oracle on the whole complex."""
    dims = _key_homology(key_of(facets, num_vars), num_vars)
    padded = list(dims) + [0] * (num_vars + 1 - len(dims))
    core = _strong_core(_maximal(facets))
    assert padded == _homology_from_masks(_faces_of(core), num_vars)
    assert padded == reduced_homology_oracle(vertex_sets(_faces_of(facets)), num_vars)
    return dims


class TestClosedFormHomology:
    @pytest.mark.parametrize(
        "facets, num_vars, core_size, dims, how",
        [
            ([{0}, {1}], 2, 2, [0, 1], "sphere"),
            ([{0, 1}, {1, 2}, {0, 2}], 3, 3, [0, 0, 1], "sphere"),
            (list(itertools.combinations((0, 2, 3, 5, 7), 4)), 8, 5, [0, 0, 0, 0, 1], "sphere"),
            ([{0, 1}, {1, 2}, {2, 3}], 4, 1, [], "vertex"),
            ([()], 3, 1, [1, 0, 0, 0], "rank"),
            ([{0, 1, 2}, {2, 3, 4}, {4, 5, 0}], 6, 3, [0, 0, 1], "sphere"),
            ([{0, 1}, {1, 2}, {0, 2}, {2, 3}], 4, 3, [0, 0, 1], "sphere"),
            ([{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}], 5, 6, [0, 0, 2, 0, 0, 0], "rank"),
        ],
        ids=[
            "S^0", "hollow-triangle", "4-simplex-boundary-on-5-of-8", "path-to-one-vertex", "empty-set",
            "nerve-sphere-with-a-triangle-core", "triangle-with-a-tail", "two-circles-at-a-vertex",
        ],
    )
    def test_explicit_cores(self, facets, num_vars, core_size, dims, how, rank_path):
        # no cone among them: () is kept for cones, so the path's one-vertex
        # core must read as [], not ()
        masks = facet_masks(facets)
        assert not functools.reduce(operator.and_, masks)
        assert len(_strong_core(_maximal(masks))) == core_size
        assert checked_key_homology(masks, num_vars) == dims
        assert decision(key_of(masks, num_vars), num_vars, rank_path) == how

    @pytest.mark.parametrize(
        "facets, num_vars, cored",
        [
            ([{0}, {1}], 2, False),
            ([{0, 1}, {1, 2}, {0, 2}], 3, False),
            ([{0, 1, 2}, {2, 3, 4}, {4, 5, 0}], 6, False),
            ([{0, 1}, {1, 2}, {0, 2}, {2, 3}], 4, True),
            ([{0, 1}, {1, 2}, {2, 3}], 4, True),
            ([{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}], 5, True),
            ([()], 3, True),
        ],
        ids=[
            "S^0", "hollow-triangle", "nerve-sphere-with-a-triangle-core", "triangle-with-a-tail",
            "path-to-one-vertex", "two-circles-at-a-vertex", "empty-set",
        ],
    )
    def test_nerve_spheres_build_no_core(self, facets, num_vars, cored, core_builds):
        # every two of the triangles {0,1,2}, {2,3,4}, {4,5,0} meet and all
        # three do not, so their nerve is a circle, read before any core; the
        # tail {2,3} breaks that, and only the core, a hollow triangle, is a
        # sphere; the rest are no sphere at all, and {empty set} keeps the
        # rank path
        _key_homology(key_of(facet_masks(facets), num_vars), num_vars)
        assert len(core_builds) == cored

    def test_random_keys_match_the_dense_oracle(self, rank_path, core_builds):
        # keys drawn at random, not from a walk: 1-7 distinct S on 1-9
        # vertices, their complements half or three quarters empty; nonzero
        # slots agree with the oracle on the whole complex, and () is
        # returned exactly for the cones
        rng = random.Random(455)
        decided = collections.Counter()
        for _ in range(1500):
            n = rng.randint(1, 9)
            key = tuple({rng.getrandbits(n) | rng.getrandbits(n) * rng.randint(0, 1) for _ in range(rng.randint(1, 7))})
            facets = _maximal(((1 << n) - 1) ^ same for same in key)
            ranked, cored = len(rank_path), len(core_builds)
            dims = _key_homology(key, n)
            oracle = reduced_homology_oracle(vertex_sets(_faces_of(facets)), n)
            assert (dims == ()) == bool(functools.reduce(operator.and_, facets)), key
            assert [(i, d) for i, d in enumerate(dims) if d] == [(i, d) for i, d in enumerate(oracle) if d], key
            if dims == () or len(rank_path) > ranked:
                decided["cone" if dims == () else "rank"] += 1
            else:
                decided[("core " if len(core_builds) > cored else "nerve ") + ("sphere" if dims else "vertex")] += 1
        # every way to decide a key is drawn
        assert min(decided[how] for how in ("cone", "nerve sphere", "core sphere", "core vertex", "rank")) >= 50

    def test_random_complexes(self, rank_path):
        decided = []
        for masks, n in random_complexes(1729):
            dims = checked_key_homology(masks, n)
            # () exactly for the cones
            assert (dims == ()) == bool(functools.reduce(operator.and_, _maximal(masks)))
            decided.append(decision(key_of(masks, n), n, rank_path))
        assert {"vertex", "sphere", "rank"} <= set(decided)


class TestBettiTable:
    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            betti_table(MonomialIdeal(2, ()))

    def test_missing_generator_degree_is_caught(self, monkeypatch):
        # homology shifted up one step leaves no entry in column 0
        real = bsdecomp.monomial._homology_from_masks
        monkeypatch.setattr(bsdecomp.monomial, "_homology_from_masks", lambda masks, n: [0] + real(masks, n)[:-1])
        with pytest.raises(CertificateError, match="beta_0"):
            betti_table(MonomialIdeal(2, (m(1, 0), m(0, 1))))

    def test_doubled_generator_count_is_caught(self, monkeypatch):
        # at a generator's own degree the complex is {empty set}, whose
        # homology is one copy of Q in degree -1: beta_0 counts generators
        real = bsdecomp.monomial._key_homology
        monkeypatch.setattr(
            bsdecomp.monomial, "_key_homology", lambda key, n: [2] if key == ((1 << n) - 1,) else real(key, n)
        )
        with pytest.raises(CertificateError, match="beta_0"):
            betti_table(MonomialIdeal(2, (m(1, 0), m(0, 1))))

    def test_doubled_first_syzygies_are_caught_by_identity_two(self, monkeypatch):
        # H~_0 doubled leaves column 0, and so identity one, as it is; on
        # (x1, x2), of height 2, beta_{1,2} = 2 makes the alternating sum
        # 2 - 2 = 0 where identity two wants 1
        real = bsdecomp.monomial._key_homology

        def doubled(key, n):
            return [2 * d if i == 1 else d for i, d in enumerate(real(key, n))]

        monkeypatch.setattr(bsdecomp.monomial, "_key_homology", doubled)
        with pytest.raises(CertificateError, match="identity two"):
            betti_table(MonomialIdeal(2, (m(1, 0), m(0, 1))))

    def test_orbit_weights_off_column_0_are_caught_by_identity_two(self, monkeypatch):
        # weight 1 at each orbit of P5^3 whose homology lies off column 0:
        # the reversal's orbits of two points then count once there, while
        # column 0 keeps the generator counts, so identity one alone passes
        # a wrong table that identity two refuses
        plain = betti_table(power(path_edge_ideal(), 3))
        real = bsdecomp.monomial._lattice

        def reweighted(num_vars, exponents, symmetries=()):
            for degree, classes, multiplicity in real(num_vars, exponents, symmetries):
                off = any(_key_homology(tuple(classes), num_vars)[1:])
                yield degree, classes, 1 if off else multiplicity

        monkeypatch.setattr(bsdecomp.monomial, "_lattice", reweighted)
        with pytest.raises(CertificateError, match="identity two"):
            power_tables(path_edge_ideal(), 3, 3)
        monkeypatch.setattr(bsdecomp.monomial, "_height", lambda ideal: 0)
        wrong = power_tables(path_edge_ideal(), 3, 3)[3]
        assert wrong.entry(0, 6) == plain.entry(0, 6) and not wrong.same_entries(plain)

    def test_power_tables_refuses_a_bad_range(self):
        # an empty range used to give {} without a word
        for k_min, k_max in [(3, 2), (1, 0), (0, 2), (-1, 1)]:
            with pytest.raises(ValueError, match="1 <= k_min <= k_max"):
                power_tables(path_edge_ideal(), k_min, k_max)

    def test_small_path_powers_match_frozen_tables(self, path_ideal):
        for k, entries in SMALL_TABLES.items():
            assert betti_table(power(path_ideal, k)) == BettiTable.from_entries(entries)

    def test_complete_intersection(self):
        # regular sequence: the Taylor complex is minimal, so each subset
        # contributes one Betti number at its lcm degree
        ideal = MonomialIdeal(3, (m(2, 0, 0), m(0, 3, 0), m(0, 0, 5)))
        expected = {
            (0, 2): 1, (0, 3): 1, (0, 5): 1,
            (1, 5): 1, (1, 7): 1, (1, 8): 1,
            (2, 10): 1,
        }
        assert betti_table(ideal) == BettiTable.from_entries(expected)

    def test_unit_ideal(self):
        assert betti_table(MonomialIdeal(2, (m(0, 0),))).support() == ((0, 0),)

    @settings(max_examples=60)
    @given(edge_ideals())
    @example(MonomialIdeal(2, (m(0, 0),)))
    def test_against_taylor_oracle_on_field_edges(self, ideal):
        assert betti_table(ideal).same_entries(taylor_betti_table(ideal))

    def test_against_taylor_oracle_random(self):
        rng = random.Random(97)
        for _ in range(25):
            ideal = random_ideal(rng, rng.randint(1, 4), rng.randint(1, 6))
            assert betti_table(ideal).same_entries(taylor_betti_table(ideal))

    def test_power_tables_match_betti_table(self):
        # one memo across the powers gives each power the table a memo of its
        # own does: 2-8 variables, equigenerated or not, and a principal ideal
        rng = random.Random(2015)
        ideals = [MonomialIdeal(3, (m(2, 1, 0),))]
        for num_vars in range(2, 9):
            ideals.append(random_ideal(rng, num_vars, 5, max_exp=2))
            edges = list(itertools.combinations(range(num_vars), 2))
            ideals.append(edge_ideal(num_vars, rng.sample(edges, min(3, len(edges)))))
        assert {is_equigenerated(ideal) is None for ideal in ideals} == {True, False}
        for ideal in ideals:
            tables = power_tables(ideal, 1, 4)
            assert sorted(tables) == [1, 2, 3, 4]
            for k, table in tables.items():
                assert table.same_entries(betti_table(power(ideal, k))), (ideal, k)

    def test_against_taylor_oracle_on_eight_variables(self, monkeypatch, rank_path):
        # shaped like the betti-random benchmark ideals: 5-10 minimal
        # generators of degrees 2-4, not all of one degree; on 8 variables
        # many vertices are dominated, so the strong-collapse cores shrink
        shrunk = []
        real = bsdecomp.monomial._strong_core

        def recording(facets):
            core = real(facets)
            shrunk.append(sorted(core) != sorted(facets))
            return core

        monkeypatch.setattr(bsdecomp.monomial, "_strong_core", recording)
        rng = random.Random(150908)
        checked = 0
        while checked < 5:
            gens = []
            for _ in range(10):
                exps = [0] * 8
                for _ in range(rng.randint(2, 4)):
                    exps[rng.randrange(8)] += 1
                gens.append(Monomial(tuple(exps)))
            ideal = MonomialIdeal(8, tuple(gens))
            if len(ideal.generators) < 5 or is_equigenerated(ideal) is not None:
                continue
            assert betti_table(ideal).same_entries(taylor_betti_table(ideal))
            checked += 1
        assert any(shrunk)
        # one _strong_core call per key that reaches homology; most of those
        # cores are a vertex or a simplex boundary, read without ranks
        assert 2 * len(rank_path) < len(shrunk)

    @pytest.mark.parametrize(
        "ideal, k, golden",
        [
            (edge_ideal(6, [(v, v + 1) for v in range(5)]), 7, "betti-p6-7.btt"),
            (edge_ideal(5, [(v, (v + 1) % 5) for v in range(5)]), 8, "betti-c5-8.btt"),
        ]
        + [(path_edge_ideal(), k, None) for k in range(1, 9)],
        ids=["P6^7", "C5^8"] + [f"P5^{k}" for k in range(1, 9)],
    )
    def test_euler_characteristics_match_the_hilbert_series(self, ideal, k, golden, path_tables):
        # sum_i (-1)^i beta_{i,j} is the t^j coefficient of 1 - K(S/I; t), an
        # independent check past the Taylor oracle's reach: the golden tables
        # (which TestGolden compares with `bsdecomp betti`) and P5^1..8
        if golden is None:
            table = path_tables(k)
        else:
            table = parse_btt_text((GOLDEN / golden).read_text(encoding="utf-8"))
        numerator = hilbert_numerator([g.exponents for g in power(ideal, k).generators])
        expected = {j: (j == 0) - c for j, c in enumerate(numerator) if (j == 0) != c}
        alternating = {}
        for (i, j), beta in table.iter_support():
            alternating[j] = alternating.get(j, 0) + (-1) ** i * beta
        assert {j: x for j, x in alternating.items() if x} == expected


class TestHeight:
    def test_known_ideals(self):
        ideals = [path_edge_ideal(), path_ideal_on(7), cycle_ideal(5), cycle_ideal(6), MonomialIdeal(3, (m(0, 0, 0),))]
        assert list(map(_height, ideals)) == [2, 3, 3, 3, 0]

    def test_against_brute_force(self):
        # the least number of variables meeting every generator's support,
        # over all subsets; generators on 1-3 of 1-9 variables
        rng = random.Random(1984)
        heights = []
        for _ in range(80):
            n = rng.randint(1, 9)
            gens = []
            for _ in range(rng.randint(1, 10)):
                exps = [0] * n
                for v in rng.sample(range(n), rng.randint(1, min(3, n))):
                    exps[v] = rng.randint(1, 3)
                gens.append(Monomial(tuple(exps)))
            ideal = MonomialIdeal(n, tuple(gens))
            supports = [{v for v, e in enumerate(g.exponents) if e} for g in ideal.generators]
            brute = next(
                h
                for h in range(n + 1)
                if any(all(s.intersection(c) for s in supports) for c in itertools.combinations(range(n), h))
            )
            assert _height(ideal) == brute, ideal
            heights.append(brute)
        assert set(heights) >= {1, 2, 3, 4}

    @pytest.mark.parametrize("n, covers", [(12, 715), (14, 2158)])
    def test_counts_partial_covers(self, monkeypatch, n, covers):
        # the squarefree ideal of all 4-subsets of n variables has height
        # n - 3; the memo counts each partial cover the search visits once
        real = functools.cache
        caches = []
        monkeypatch.setattr(functools, "cache", lambda f: caches.append(real(f)) or caches[-1])
        subsets = itertools.combinations(range(n), 4)
        ideal = MonomialIdeal(n, tuple(Monomial(tuple(int(v in c) for v in range(n))) for c in subsets))
        assert _height(ideal) == n - 3
        assert [cache.cache_info().misses for cache in caches] == [covers]


def renamed(ideal, s):
    """The ideal with variable v renamed s[v]."""
    gens = []
    for g in ideal.generators:
        exps = [0] * ideal.num_vars
        for v, e in enumerate(g.exponents):
            exps[s[v]] = e
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(ideal.num_vars, tuple(gens))


def column_classes(ideal):
    """For each variable, the index of its class of equal generator columns."""
    columns = [tuple(g.exponents[v] for g in ideal.generators) for v in range(ideal.num_vars)]
    return [columns.index(column) for column in columns]


def closed_under(ideal, s):
    """The least ideal holding the generators and their images under every
    power of the permutation s."""
    gens = set(ideal.generators)
    image = renamed(ideal, s)
    while image != ideal:
        gens |= set(image.generators)
        image = renamed(image, s)
    return MonomialIdeal(ideal.num_vars, tuple(gens))


def symmetric_ideals(seed, count):
    """Random ideals on 1-5 variables closed under a random permutation, in
    about 30% of them with one variable's column copied to another."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        ideal = random_ideal(rng, n, rng.randint(1, 4), max_exp=2)
        if n > 1 and rng.random() < 0.3:
            v, w = rng.sample(range(n), 2)
            copied = (g.exponents[:w] + (g.exponents[v],) + g.exponents[w + 1 :] for g in ideal.generators)
            ideal = MonomialIdeal(n, tuple(map(Monomial, copied)))
        yield closed_under(ideal, rng.sample(range(n), n))


def cycle_ideal(n):
    return edge_ideal(n, [(v, (v + 1) % n) for v in range(n)])


def path_ideal_on(n):
    return edge_ideal(n, [(v, v + 1) for v in range(n - 1)])


class TestSymmetryOrbits:
    def test_symmetries_match_brute_force(self):
        # one symmetry per class modulo swaps of equal columns: times the
        # swaps, the whole group, counted over every permutation; random
        # ideals made symmetric under a random permutation, some with a
        # column copied, and the maximal ideal of 5 variables (|G| = 120)
        ideals = [MonomialIdeal(5, tuple(m(*(int(v == w) for v in range(5))) for w in range(5)))]
        orders = set()
        for ideal in ideals + list(symmetric_ideals(1978, 59)):
            n = ideal.num_vars
            group = {s for s in itertools.permutations(range(n)) if renamed(ideal, s) == ideal}
            classes = column_classes(ideal)
            swaps = math.prod(math.factorial(classes.count(c)) for c in set(classes))
            found = _symmetries(ideal)
            orders.add(len(group) // swaps)
            if len(group) // swaps > 2 * MAX_VARIABLES:
                assert found == [], ideal
                continue
            assert found[0] == tuple(range(n))
            assert set(found) <= group
            assert len(found) * swaps == len(group), ideal
            # no two in one class: they move the column classes differently
            assert len({tuple(classes[v] for v in s) for s in found}) == len(found)
        assert {1, 2} < orders and max(orders) > 2 * MAX_VARIABLES

    @pytest.fixture
    def search_work(self, monkeypatch):
        """``_symmetries`` with its projections counted: the symmetries and
        the count, failing at once past what the search may compute with k
        column classes, k^2 pairs and k prefixes before the k *
        ``_SEARCH_BUDGET`` full comparisons."""
        real = bsdecomp.monomial._projections

        def search(ideal):
            k = len(set(column_classes(ideal)))
            calls = 0

            def counting(exponents, variables):
                nonlocal calls
                calls += 1
                assert calls <= k * k + k + k * _SEARCH_BUDGET, "the search ran past its budget"
                return real(exponents, variables)

            monkeypatch.setattr(bsdecomp.monomial, "_projections", counting)
            return _symmetries(ideal), calls

        return search

    def test_search_is_bounded(self, search_work):
        # all 45 squarefree quadrics on 10 variables: every permutation is a
        # symmetry (10!), the search stops past 2 * MAX_VARIABLES and uses none
        quadrics = edge_ideal(10, list(itertools.combinations(range(10), 2)))
        assert search_work(quadrics)[0] == []
        assert power_tables(quadrics, 1, 1)[1].same_entries(betti_table(quadrics))
        # the dihedral group of the 16-cycle is the largest that is kept
        assert len(search_work(cycle_ideal(MAX_VARIABLES))[0]) == 2 * MAX_VARIABLES

    def test_most_distinct_column_is_mapped_first(self, search_work):
        # x_i * y^i for i = 1..15: the x columns are unit vectors, so every
        # map among them agrees with the generators until y; y goes first
        # instead, and then fixes each x class with one full comparison. The
        # pairs projected are each class with itself, each x with y, and each
        # x with the x classes mapped before it, beside the n + 1 prefixes
        n = MAX_VARIABLES - 1
        ideal = MonomialIdeal(n + 1, tuple(Monomial(tuple(int(v == i) for v in range(n)) + (i + 1,)) for i in range(n)))
        symmetries, calls = search_work(ideal)
        assert symmetries == [tuple(range(n + 1))]
        assert calls == (n + 1) + n + n * (n - 1) // 2 + 2 * (n + 1)

    def test_pairs_are_projected_when_first_looked_up(self, search_work):
        # P5's two symmetries each compare their own triangle of the 25
        # ordered pairs of its 5 classes, so every pair is projected, beside 5
        # prefixes and 10 full comparisons. The chains ideal's classes are
        # {x1}, {x4} and {x2, x3}; the last is never an image of the others,
        # so 7 of its 9 pairs are projected, beside 3 prefixes and 6 full
        # comparisons
        assert search_work(path_edge_ideal()) == ([(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)], 25 + 5 + 10)
        assert search_work(CHAINS_IDEAL) == ([(0, 1, 2, 3), (3, 1, 2, 0)], 7 + 3 + 6)

    def test_rigid_search_gives_up(self, search_work):
        # a random cubic graph on 16 vertices: its partial maps agree on
        # every pair of mapped vertices far into the search, which needs
        # tens of thousands of full comparisons; the budget stops it and no
        # symmetry is used
        rng = random.Random(5)
        while True:
            ends = [v for v in range(MAX_VARIABLES) for _ in range(3)]
            rng.shuffle(ends)
            edges = {tuple(sorted(ends[j : j + 2])) for j in range(0, len(ends), 2)}
            if len(edges) == len(ends) // 2 and all(a != b for a, b in edges):
                break
        assert search_work(edge_ideal(MAX_VARIABLES, sorted(edges)))[0] == []

    def test_orbit_walk_on_p5(self):
        # the reversal halves the points P5^1..8 yields; the multiplicities
        # add up to the plain walk's points, each of which has multiplicity 1
        symmetries = _symmetries(path_edge_ideal())
        assert symmetries == [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)]
        orbits = weighted = plain = 0
        for k in range(1, 9):
            ideal = power(path_edge_ideal(), k)
            for _, _, multiplicity in _lattice(ideal.num_vars, exponents_of(ideal), symmetries):
                orbits += 1
                weighted += multiplicity
            multiplicities = [multiplicity for _, _, multiplicity in _lattice(ideal.num_vars, exponents_of(ideal))]
            assert set(multiplicities) == {1}
            plain += len(multiplicities)
        assert (orbits, weighted, plain) == (3570, 6934, 6934)

    def test_symmetry_decided_only_at_the_last_variable_is_not_used(self):
        # x1 <-> x4 fixes the chains ideal, but x2 and x3 have equal columns,
        # so its first comparison waits for x4: the walk is the plain one
        symmetries = _symmetries(CHAINS_IDEAL)
        assert symmetries == [(0, 1, 2, 3), (3, 1, 2, 0)]
        for k in (1, 3):
            ideal = power(CHAINS_IDEAL, k)
            exponents = exponents_of(ideal)
            assert list(_lattice(ideal.num_vars, exponents, symmetries)) == list(_lattice(ideal.num_vars, exponents))

    def test_power_tables_searches_only_for_a_power(self, symmetry_searches):
        # a single table of the ideal itself walks every point; a range that
        # reaches a power searches once, on the base ideal
        power_tables(path_edge_ideal(), 1, 1)
        assert symmetry_searches == []
        power_tables(path_edge_ideal(), 1, 3)
        power_tables(path_edge_ideal(), 3, 3)
        assert symmetry_searches == [path_edge_ideal()] * 2

    def test_betti_table_never_searches(self, monkeypatch):
        def refuse(ideal):
            raise AssertionError("betti_table searched for symmetries")

        monkeypatch.setattr(bsdecomp.monomial, "_symmetries", refuse)
        assert betti_table(path_edge_ideal()).same_entries(taylor_betti_table(path_edge_ideal()))

    @pytest.mark.parametrize(
        "ideal, k_max",
        [
            (path_edge_ideal(), 8),
            (path_ideal_on(6), 6),
            (path_ideal_on(7), 4),
            (cycle_ideal(5), 6),
            (cycle_ideal(6), 5),
            (CHAINS_IDEAL, 6),
        ],
        ids=["P5", "P6", "P7", "C5", "C6", "chains"],
    )
    def test_power_tables_match_betti_table(self, ideal, k_max):
        # one point per orbit, weighted by the orbit's size, gives the table
        # of the plain walk; the first power against the Taylor oracle too
        tables = power_tables(ideal, 1, k_max)
        for k, table in tables.items():
            assert table.same_entries(betti_table(power(ideal, k))), k
        assert tables[1].same_entries(taylor_betti_table(ideal))

    def test_power_tables_match_betti_table_on_reversal_closed_ideals(self):
        rng = random.Random(2026)
        checked = 0
        while checked < 12:
            n = rng.randint(3, 6)
            ideal = closed_under(random_ideal(rng, n, rng.randint(1, 3), max_exp=2), tuple(reversed(range(n))))
            if len(ideal.generators) > 6 or len(_symmetries(ideal)) < 2:
                continue
            tables = power_tables(ideal, 1, 3)
            for k, table in tables.items():
                assert table.same_entries(betti_table(power(ideal, k))), (ideal, k)
            assert tables[1].same_entries(taylor_betti_table(ideal))
            checked += 1

    def test_power_tables_match_betti_table_on_symmetric_ideals(self):
        # other groups, and column classes of more than one variable
        for ideal in symmetric_ideals(25, 40):
            tables = power_tables(ideal, 1, 2)
            for k, table in tables.items():
                assert table.same_entries(betti_table(power(ideal, k))), (ideal, k)
            if len(ideal.generators) <= 8:
                assert tables[1].same_entries(taylor_betti_table(ideal)), ideal


class TestIdealJson:
    def test_round_trip(self):
        ideal = path_edge_ideal()
        assert ideal_from_json(ideal_to_json(ideal)) == ideal

    def test_string_generators(self):
        obj = {"variables": 2, "generators": ["x1^2", [0, 1]]}
        assert ideal_from_json(obj) == MonomialIdeal(2, (m(2, 0), m(0, 1)))

    def test_errors(self):
        with pytest.raises(ParseError):
            ideal_from_json([])
        with pytest.raises(ParseError, match="variables"):
            ideal_from_json({"generators": []})
        with pytest.raises(ParseError, match="generators"):
            ideal_from_json({"variables": 2})
        with pytest.raises(ParseError, match="length"):
            ideal_from_json({"variables": 2, "generators": [[1, 0, 0]]})
        with pytest.raises(ParseError):
            ideal_from_json({"variables": 2, "generators": [3]})
        with pytest.raises(ParseError):
            ideal_from_json({"variables": 2, "generators": [[-1, 0]]})
        # booleans are integers to Python, but not in JSON
        with pytest.raises(ParseError, match="variables"):
            ideal_from_json({"variables": True, "generators": [[1]]})
        with pytest.raises(ParseError, match="exponent vector"):
            ideal_from_json({"variables": 1, "generators": [[True]]})
        # the count is checked before a string generator allocates an
        # exponent per variable
        with pytest.raises(ParseError, match="^100000000000000 variables exceeds the cap of 16 "):
            ideal_from_json({"variables": 100000000000000, "generators": ["x1"]})
        with pytest.raises(ParseError, match="^need at least one variable, got 0$"):
            ideal_from_json({"variables": 0, "generators": ["x1"]})
