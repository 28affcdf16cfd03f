"""Monomial ideals and exact Betti tables via multigraded simplicial homology.

The Betti number beta_{i,b} of an ideal at a multidegree b is the dimension of
the (i-1)-st reduced rational homology of the upper-Koszul complex at b: the
faces are the subsets sigma of the support of b such that x^b / x^sigma still
lies in the ideal. That complex is the union of the simplices
F_g = {v : g_v < b_v} over the generators g dividing b (Miller and Sturmfels,
Combinatorial Commutative Algebra, Thm 1.34), so it is given by its maximal
facets. Multidegrees outside the lcm lattice of the generators contribute
nothing (Gasharov, Peeva and Welker 1999), so the scan runs over that lattice
only.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from operator import index as _exact_int

from .errors import CertificateError, ParseError, ZeroIdealError
from .linalg import matrix_rank
from .tables import BettiTable, _json_int

# a complex on n vertices can have 2^n faces, and a memo miss expands them all;
# the lattice walk's generator and variable bitmasks need no cap of their own
MAX_VARIABLES = 16


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

    Variables are x1..x<num_vars>, exponents are positive integers, both in
    ASCII digits, factors are joined by ``*``. Errors report the character
    position.
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
        while pos < end and "0" <= text[pos] <= "9":
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
            start = pos
            exponent = parse_int("exponent")
            if exponent < 1:
                raise ParseError(f"exponent must be >= 1 at position {start} in {text!r}")
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
            raise ValueError(
                f"{n} variables exceeds the cap of {MAX_VARIABLES} "
                "(a complex on n vertices can have 2^n faces)"
            )
        gens = tuple(self.generators)
        for g in gens:
            if not isinstance(g, Monomial):
                raise TypeError(f"generator {g!r} is not a Monomial")
            if g.num_vars != n:
                raise ValueError(f"generator {g.text()} has {g.num_vars} variables, expected {n}")
        # a proper divisor has strictly lower degree, so each degree group
        # is tested against the minimal generators kept before it
        minimal: list[Monomial] = []
        by_degree = sorted(set(gens), key=lambda m: m.degree)
        for _, group in itertools.groupby(by_degree, key=lambda m: m.degree):
            lower = tuple(minimal)
            minimal.extend(g for g in group if not any(h.divides(g) for h in lower))
        minimal.sort(key=lambda m: m.exponents)
        object.__setattr__(self, "num_vars", n)
        object.__setattr__(self, "generators", tuple(minimal))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self) -> str:
        gens = ", ".join(g.text() for g in self.generators) or "0"
        return f"MonomialIdeal({gens}; {self.num_vars} vars)"


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


def _lattice(ideal: MonomialIdeal):
    """Walk the lcm lattice of the generators, yielding ``(b, divisors,
    achievers, reach)`` for each point: the exponent tuple b, the bitmask of
    the generators dividing b (bit i is generator i), for each variable v the
    mask of those divisors g with g_v = b_v, and the mask of the divisors that
    attain b_v for at least one v with b_v > 0 (the union of the achiever
    masks over the support of b).

    b is fixed one variable at a time, to a value some divisor so far takes
    there. A prefix is cut as soon as a fixed variable loses all its achievers:
    b is a lattice point exactly when it is the lcm of its divisors, that is
    when every achiever mask is nonempty. ``reach`` follows the divisors down
    and gains each new achiever mask at a positive value; a divisor outside it
    spans the full simplex on supp(b) (``_full_simplex``). Depth first over an
    explicit stack, so the lattice streams instead of being held.
    """
    levels = []  # per variable: (value c, generators with g_v = c, with g_v <= c)
    for v in range(ideal.num_vars):
        by_value: dict[int, int] = {}
        for i, g in enumerate(ideal.generators):
            by_value[g.exponents[v]] = by_value.get(g.exponents[v], 0) | 1 << i
        le = 0
        level = []
        for c in sorted(by_value):
            le |= by_value[c]
            level.append((c, by_value[c], le))
        levels.append(level)
    stack = [((), (1 << len(ideal.generators)) - 1, (), 0)]
    while stack:
        b, divisors, achievers, reach = stack.pop()
        if len(b) == ideal.num_vars:
            yield b, divisors, achievers, reach
            continue
        for c, eq, le in levels[len(b)]:
            achiever = divisors & eq
            if achiever:
                below = divisors & le
                kept = tuple(a & below for a in achievers)
                if all(kept):
                    reached = reach & below | achiever if c else reach & below
                    stack.append((b + (c,), below, kept + (achiever,), reached))


def _full_simplex(divisors: int, reach: int) -> bool:
    """True when a divisor attains b_v at no v in supp(b). Such a g has
    g_v < b_v on all of supp(b), so its facet {v : g_v < b_v} is supp(b) and
    the complex is the full simplex on supp(b), a cone when supp(b) is
    nonempty, which on a lattice point is when ``reach`` is. (At b = 0 the
    complex is {empty set}, with beta_{0,0} = 1.)

    ``_apex_witness`` decides every point this decides; this is the fast path
    for the commonest cones, one mask test on what the walk carries.
    """
    return bool(reach and divisors & ~reach)


def _apex_witness(divisors: int, achievers) -> bool:
    """True when, for some v, a divisor lies outside W_v below, which makes v
    an apex of the upper-Koszul complex at b. False means undecided, not "not
    a cone".

    Write A_v for the achiever mask of v and S_g = {v : g in A_v} for a
    divisor g, so that its facet is F_g = {v : g_v < b_v}, the complement of
    S_g. Let W_v = A_v | (the union of the A_u with A_v not inside A_u). A
    divisor h outside W_v is an apex witness for v: h is not in A_v, so v is
    in F_h; and h misses every A_u that does not contain A_v, so S_h is inside
    {u : A_v inside A_u}, which is inside S_g for every g in A_v. Hence F_h
    contains F_g and v for each g in A_v, while every other divisor's facet
    already contains v: every facet lies in one that contains v, so v is an
    apex. A divisor that ``_full_simplex`` finds is a witness for any v with
    A_v != D, since A_u = D off supp(b). At b = 0 every A_v is D, so the
    complex {empty set} is never skipped.
    """
    for a in achievers:
        if a == divisors:
            continue  # no divisor lies outside A_v
        witness = divisors & ~a
        for other in achievers:
            if a & ~other:
                witness &= ~other
                if not witness:
                    break
        else:
            return True
    return False


def _maximal_facets(divisors: int, achievers) -> list[int]:
    """Maximal facets of the upper-Koszul complex at b, as variable bitmasks.

    The facet of a divisor g is {v : g_v < b_v}: the variables whose achiever
    mask misses g. Refining the divisors by each achiever mask leaves one
    class per distinct facet, so no divisor is visited alone. Empty when no
    generator divides b (the void complex); ``[0]`` when b is itself a
    minimal generator (the complex whose only face is the empty set).
    """
    classes = [(divisors, (1 << len(achievers)) - 1)]
    for v, achiever in enumerate(achievers):
        refined = []
        for members, facet in classes:
            inside = members & achiever
            if inside:
                refined.append((inside, facet & ~(1 << v)))
            if members != inside:
                refined.append((members ^ inside, facet))
        classes = refined
    maximal: list[int] = []
    for f in sorted((facet for _, facet in classes), key=int.bit_count, reverse=True):
        if not any(f & k == f for k in maximal):
            maximal.append(f)
    return maximal


def _boundary(face: int) -> dict[int, int]:
    """Boundary of a face mask: {codimension-one face mask: sign}, with
    signs alternating from +1 at the lowest vertex."""
    row = {}
    sign = 1
    rest = face
    while rest:
        low = rest & -rest
        row[face ^ low] = sign
        sign = -sign
        rest ^= low
    return row


def _homology_from_masks(masks: list[int], num_vertices: int) -> list[int]:
    """Reduced homology over Q from the bitmask faces of a complex; slot i is
    dim H~_{i-1}. The boundary map out of the faces of each cardinality is one
    sparse integer row per face, keyed by face masks, ranked exactly by
    ``matrix_rank``."""
    by_card: dict[int, list[int]] = {}
    for m in masks:
        by_card.setdefault(m.bit_count(), []).append(m)
    ranks = {card: matrix_rank([_boundary(f) for f in faces]) for card, faces in by_card.items()}
    out = [0] * (num_vertices + 1)
    for card, faces in by_card.items():
        out[card] = len(faces) - ranks[card] - ranks.get(card + 1, 0)
    return out


def _renumbered(masks: list[int]) -> tuple[int, tuple[int, ...]]:
    """(count, sorted masks) with the bits the masks use renumbered 0..count-1.

    Homology only sees the face structure, so complexes that differ in where
    their vertices sit get one memo key.
    """
    used = functools.reduce(operator.or_, masks)
    slots = []
    while used:
        slots.append(used & -used)
        used &= used - 1
    return len(slots), tuple(sorted(sum(1 << t for t, s in enumerate(slots) if m & s) for m in masks))


def _faces_of(facets: tuple[int, ...]) -> list[int]:
    """Every submask of every facet: the faces of the complex they span."""
    faces = {0}
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    return list(faces)


def betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Exact graded Betti table of the ideal (as a module, not its quotient).

    Walks the lcm lattice of the generators over generator bitmasks, so no
    Monomial is built per point. A cone has no reduced homology, so b is
    skipped as soon as its complex is shown to be one. Most cones are found
    from the walk's masks alone: first when a divisor attains b_v at no v in
    supp(b), so the complex is the full simplex on supp(b) (``_full_simplex``);
    then when, for some v, a divisor lies outside the achiever mask A_v and
    every A_u that does not contain A_v, which makes v an apex
    (``_apex_witness``, which also covers the first case but costs a loop).
    The remaining points keep the maximal facets {v : g_v < b_v} of the
    generators g dividing b, found by refining those divisors by the
    variables where they reach b, and are skipped when those facets share a
    vertex. Otherwise homology is memoized on the facets with their vertices
    renumbered densely, which collapses the many isomorphic complexes a power
    family produces; faces are listed only on a memo miss. Dimensions
    accumulate by total degree. Deterministic for a given ideal.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no Betti table")
    memo: dict[tuple, list[int]] = {}
    entries: dict[tuple[int, int], int] = {}
    for b, divisors, achievers, reach in _lattice(ideal):
        if _full_simplex(divisors, reach) or _apex_witness(divisors, achievers):
            continue  # a cone, shown from the walk's masks
        facets = _maximal_facets(divisors, achievers)
        if functools.reduce(operator.and_, facets):
            continue  # the facets share a vertex: a cone, with no reduced homology
        key = _renumbered(facets)
        dims = memo.get(key)
        if dims is None:
            dims = memo[key] = _homology_from_masks(_faces_of(key[1]), key[0])
        degree = sum(b)
        for i, dim in enumerate(dims):
            if dim:
                pos = (i, degree)
                entries[pos] = entries.get(pos, 0) + dim
    table = BettiTable.from_entries(entries)
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
        n = _json_int(obj["variables"])
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
                gens.append(Monomial(tuple(_json_int(e) for e in g)))
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad exponent vector {g}: {exc}") from exc
        else:
            raise ParseError(f"generator {g!r} is neither a string nor an exponent vector")
    try:
        return MonomialIdeal(n, tuple(gens))
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
