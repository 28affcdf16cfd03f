"""Monomial ideals and exact Betti tables via multigraded simplicial homology.

The Betti number beta_{i,b} of an ideal at a multidegree b is the dimension of
the (i-1)-st reduced rational homology of the upper-Koszul complex at b: the
faces are the subsets sigma of the support of b such that x^b / x^sigma still
lies in the ideal. Multidegrees outside the lcm lattice of the generators
contribute nothing, so the scan runs over that lattice only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import index as _exact_int

from .errors import CertificateError, ParseError, ZeroIdealError
from .linalg import matrix_rank
from .tables import BettiTable, Window

MAX_VARIABLES = 16  # face scans are 2^n per multidegree


@dataclass(frozen=True)
class Monomial:
    """Exponent vector of a monomial; the constant monomial is all zeros."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        try:
            exps = tuple(_exact_int(e) for e in self.exponents)
        except TypeError as exc:
            raise ValueError(f"non-integer exponent in {self.exponents!r}") from exc
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def num_vars(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents, strict=True))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents, strict=True)))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents, strict=True)))

    def text(self) -> str:
        parts = []
        for v, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{v + 1}")
            elif e > 1:
                parts.append(f"x{v + 1}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({self.text()})"


def parse_monomial(text: str, num_vars: int) -> Monomial:
    """Parse ``x1*x3^2`` style input; repeated factors accumulate.

    Variables are x1..x<num_vars>, exponents are positive integers, factors
    are joined by ``*``. Errors report the character position.
    """
    exps = [0] * num_vars
    pos = 0
    end = len(text)

    def skip_ws():
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1

    def parse_int(what: str) -> int:
        nonlocal pos
        start = pos
        while pos < end and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError(f"expected {what} at position {start} in {text!r}")
        return int(text[start:pos])

    skip_ws()
    if pos >= end:
        raise ParseError(f"empty monomial in {text!r}")
    while True:
        if pos >= end or text[pos] != "x":
            raise ParseError(f"expected 'x' at position {pos} in {text!r}")
        pos += 1
        idx = parse_int("variable index")
        if not 1 <= idx <= num_vars:
            raise ParseError(f"variable x{idx} out of range 1..{num_vars} in {text!r}")
        exponent = 1
        if pos < end and text[pos] == "^":
            pos += 1
            exponent = parse_int("exponent")
            if exponent < 1:
                raise ParseError(f"exponent must be >= 1 at position {pos} in {text!r}")
        exps[idx - 1] += exponent
        skip_ws()
        if pos >= end:
            break
        if text[pos] != "*":
            raise ParseError(f"expected '*' at position {pos} in {text!r}")
        pos += 1
        skip_ws()
    return Monomial(tuple(exps))


@dataclass(frozen=True)
class MonomialIdeal:
    """Ideal generated by monomials; construction minimalizes and sorts.

    The stored generators are the unique minimal ones (no generator divides
    another), sorted by exponent vector, so equal ideals compare equal. The
    zero ideal has no generators.
    """

    num_vars: int
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        n = _exact_int(self.num_vars)
        if n < 1:
            raise ValueError(f"need at least one variable, got {n}")
        if n > MAX_VARIABLES:
            raise ValueError(f"{n} variables exceeds the cap of {MAX_VARIABLES} (face scans are 2^n)")
        gens = tuple(self.generators)
        for g in gens:
            if not isinstance(g, Monomial):
                raise TypeError(f"generator {g!r} is not a Monomial")
            if g.num_vars != n:
                raise ValueError(f"generator {g.text()} has {g.num_vars} variables, expected {n}")
        unique = set(gens)
        minimal = sorted(
            (g for g in unique if not any(h != g and h.divides(g) for h in unique)),
            key=lambda m: m.exponents,
        )
        object.__setattr__(self, "num_vars", n)
        object.__setattr__(self, "generators", tuple(minimal))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self) -> str:
        gens = ", ".join(g.text() for g in self.generators) or "0"
        return f"MonomialIdeal({gens}; {self.num_vars} vars)"


def minimalize(monomials, num_vars: int | None = None) -> MonomialIdeal:
    """Ideal generated by the given monomials, reduced to minimal generators."""
    gens = list(monomials)
    if num_vars is None:
        if not gens:
            raise ValueError("cannot infer the variable count of an empty ideal")
        num_vars = gens[0].num_vars
    return MonomialIdeal(num_vars, tuple(gens))


def power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th power: products of k generators with repetition, minimalized."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    products = set()
    for combo in itertools.combinations_with_replacement(ideal.generators, k):
        acc = combo[0]
        for g in combo[1:]:
            acc = acc * g
        products.add(acc)
    return MonomialIdeal(ideal.num_vars, tuple(products))


def is_equigenerated(ideal: MonomialIdeal) -> int | None:
    """The common total degree of the minimal generators, or None."""
    degrees = {g.degree for g in ideal.generators}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def lcm_closure(ideal: MonomialIdeal) -> frozenset[Monomial]:
    """All lcms of nonempty generator subsets.

    Worklist closure joining against generators only: every subset lcm is a
    fold of pairwise joins with generators, so this finds the whole lattice in
    O(closure * generators) joins instead of squaring the closure.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no lcm closure")
    gens = [g.exponents for g in ideal.generators]
    seen = {e: None for e in gens}
    queue = list(gens)
    while queue:
        x = queue.pop()
        for g in gens:
            z = tuple(a if a > b else b for a, b in zip(x, g))
            if z not in seen:
                seen[z] = None
                queue.append(z)
    return frozenset(Monomial(e) for e in seen)


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex on vertices 0..vertex_count-1.

    ``faces`` must be closed under taking subsets. The empty complex (no
    faces, the void complex) and the complex whose only face is the empty set
    are distinct objects with different homology.
    """

    vertex_count: int
    faces: frozenset[frozenset[int]]

    def __post_init__(self):
        n = _exact_int(self.vertex_count)
        if n < 0:
            raise ValueError("negative vertex count")
        faces = frozenset(frozenset(f) for f in self.faces)
        for f in faces:
            for v in f:
                if not 0 <= _exact_int(v) < n:
                    raise ValueError(f"vertex {v} out of range 0..{n - 1}")
            for v in f:
                if f - {v} not in faces:
                    raise ValueError(f"faces are not subset-closed at {sorted(f)}")
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "faces", faces)

    @classmethod
    def from_facets(cls, vertex_count: int, facets) -> "SimplicialComplex":
        faces: set[frozenset[int]] = set()
        for facet in facets:
            fs = frozenset(facet)
            for r in range(len(fs) + 1):
                faces.update(frozenset(c) for c in itertools.combinations(sorted(fs), r))
        return cls(vertex_count, frozenset(faces))

    @property
    def is_void(self) -> bool:
        return not self.faces


def upper_koszul_complex(ideal: MonomialIdeal, multidegree: Monomial) -> SimplicialComplex:
    """Upper-Koszul complex of the ideal at a multidegree.

    Vertices are variable indexes 0..n-1; sigma is a face when x^b / x^sigma
    is divisible by some generator (in particular sigma must stay inside the
    support of b). Void when b itself is outside the ideal.
    """
    if ideal.num_vars != multidegree.num_vars:
        raise ValueError("variable count mismatch")
    masks = _koszul_face_masks([g.exponents for g in ideal.generators], multidegree.exponents)
    n = ideal.num_vars
    faces = frozenset(frozenset(v for v in range(n) if mask >> v & 1) for mask in masks)
    return SimplicialComplex(n, faces)


def reduced_homology_dims(complex_: SimplicialComplex) -> list[int]:
    """Reduced rational homology dimensions, indexed so that slot i holds
    dim H~_{i-1}; the length is vertex_count + 1. Void complexes are all zero."""
    masks = [sum(1 << v for v in face) for face in complex_.faces]
    return _homology_from_masks(masks, complex_.vertex_count)


def _koszul_face_masks(gen_exps: list[tuple[int, ...]], b: tuple[int, ...]) -> list[int]:
    support = [v for v in range(len(b)) if b[v] > 0]
    divisors = [g for g in gen_exps if all(x <= y for x, y in zip(g, b))]
    if not divisors:
        return []
    faces = []
    for bits in range(1 << len(support)):
        reduced = list(b)
        mask = 0
        for p, v in enumerate(support):
            if bits >> p & 1:
                reduced[v] -= 1
                mask |= 1 << v
        if any(all(x <= y for x, y in zip(g, reduced)) for g in divisors):
            faces.append(mask)
    return faces


def _homology_from_masks(masks: list[int], num_vertices: int) -> list[int]:
    """Reduced homology over Q from bitmask faces; slot i is dim H~_{i-1}."""
    out = [0] * (num_vertices + 1)
    if not masks:
        return out
    by_card: dict[int, list[int]] = {}
    for m in masks:
        by_card.setdefault(bin(m).count("1"), []).append(m)
    for card in by_card:
        by_card[card].sort()
    top = max(by_card)
    # rank of the boundary map from cardinality card to card-1
    ranks: dict[int, int] = {}
    for card in range(1, top + 1):
        sources = by_card.get(card, [])
        targets = by_card.get(card - 1, [])
        if not sources or not targets:
            ranks[card] = 0
            continue
        index_of = {m: c for c, m in enumerate(targets)}
        rows = []
        for m in sources:
            row = [0] * len(targets)
            sign = 1
            for v in range(num_vertices):
                if m >> v & 1:
                    row[index_of[m ^ (1 << v)]] = sign
                    sign = -sign
            rows.append(row)
        ranks[card] = matrix_rank(rows)
    for card in range(0, top + 1):
        cycles = len(by_card.get(card, [])) - ranks.get(card, 0)
        out[card] = cycles - ranks.get(card + 1, 0)
    return out


def _is_cone(masks: set[int], num_vertices: int) -> bool:
    # a cone over any apex is contractible, so its reduced homology vanishes
    verts = 0
    for m in masks:
        verts |= m
    for v in range(num_vertices):
        bit = 1 << v
        if verts >> v & 1 and all(m | bit in masks for m in masks):
            return True
    return False


def _canonical_key(masks: list[int], num_vertices: int) -> tuple:
    # homology only sees the face structure, so remap vertices densely
    used = 0
    for m in masks:
        used |= m
    remap = {}
    for v in range(num_vertices):
        if used >> v & 1:
            remap[v] = len(remap)
    packed = []
    for m in masks:
        out = 0
        for v, t in remap.items():
            if m >> v & 1:
                out |= 1 << t
        packed.append(out)
    return len(remap), tuple(sorted(packed))


def betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Exact graded Betti table of the ideal (as a module, not its quotient).

    Scans the lcm closure of the generators, computes the reduced homology of
    the upper-Koszul complex at each multidegree, and accumulates dimensions
    by total degree. Cones are skipped outright and homology is memoized on
    the relabeled face structure, which collapses the many isomorphic
    complexes a power family produces. Deterministic for a given ideal.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no Betti table")
    gen_exps = [g.exponents for g in ideal.generators]
    n = ideal.num_vars
    multidegrees = sorted(m.exponents for m in lcm_closure(ideal))
    memo: dict[tuple, list[int]] = {}
    entries: dict[tuple[int, int], Fraction] = {}
    for b in multidegrees:
        masks = _koszul_face_masks(gen_exps, b)
        if _is_cone(set(masks), n):
            continue
        key = _canonical_key(masks, n)
        dims = memo.get(key)
        if dims is None:
            dims = memo[key] = _homology_from_masks(masks, n)
        degree = sum(b)
        for i, dim in enumerate(dims):
            if dim:
                pos = (i, degree)
                entries[pos] = entries.get(pos, Fraction(0)) + dim
    table = BettiTable.from_entries(entries, num_vars=n)
    low = min(g.degree for g in ideal.generators)
    if table.entry(0, low) <= 0:
        raise CertificateError(f"beta_0 in the least generator degree {low} is not positive")
    return table


def ideal_to_json(ideal: MonomialIdeal) -> dict:
    return {
        "variables": ideal.num_vars,
        "generators": [list(g.exponents) for g in ideal.generators],
    }


def ideal_from_json(obj) -> MonomialIdeal:
    """Parse ideal JSON: ``variables`` count plus a list of generators, each
    an exponent vector or a monomial string like ``"x1*x2^2"``."""
    if not isinstance(obj, dict):
        raise ParseError("ideal JSON must be an object")
    try:
        n = _exact_int(obj["variables"])
    except KeyError:
        raise ParseError("ideal JSON needs a 'variables' key") from None
    except TypeError as exc:
        raise ParseError(f"'variables' must be an integer: {exc}") from exc
    raw_gens = obj.get("generators")
    if not isinstance(raw_gens, list):
        raise ParseError("ideal JSON needs a 'generators' list")
    gens = []
    for g in raw_gens:
        if isinstance(g, str):
            gens.append(parse_monomial(g, n))
        elif isinstance(g, list):
            if len(g) != n:
                raise ParseError(f"exponent vector {g} has length {len(g)}, expected {n}")
            try:
                gens.append(Monomial(tuple(g)))
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad exponent vector {g}: {exc}") from exc
        else:
            raise ParseError(f"generator {g!r} is neither a string nor an exponent vector")
    try:
        return MonomialIdeal(n, tuple(gens))
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
