"""Monomial ideals and exact Betti tables via multigraded simplicial homology.

The Betti number beta_{i,b} of an ideal at a multidegree b is the dimension of
the (i-1)-st reduced rational homology of the upper-Koszul complex at b: the
faces are the subsets sigma of the support of b such that x^b / x^sigma still
lies in the ideal. That complex is the union of the simplices
F_g = {v : g_v < b_v} over the generators g dividing b (Miller and Sturmfels,
Combinatorial Commutative Algebra, Thm 1.34), so it is given by its maximal
facets. Multidegrees outside the lcm lattice of the generators contribute
nothing (Gasharov, Peeva and Welker 1999), so the scan runs over that lattice
only. Homology is read off the strong-collapse core of each complex, which has
its homotopy type (Barmak and Minian, Discrete Comput. Geom. 47, 2012): a
vertex and a simplex boundary in closed form, faces and ranks for the rest.
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

# a complex on n vertices can have 2^n faces, all listed on a memo miss when it
# is its own strong-collapse core and neither a vertex nor a simplex boundary;
# the walk's bitmasks need no cap of their own
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
        try:
            return int(text[start:pos])
        except ValueError as exc:  # longer than Python converts from text
            raise ParseError(f"{what} at position {start}: {exc}") from exc

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
    """k-th power: products of k generators with repetition, minimalized; a
    product is summed on exponent tuples, one Monomial per distinct one."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    exponents = [g.exponents for g in ideal.generators]
    products = {tuple(map(sum, zip(*combo))) for combo in itertools.combinations_with_replacement(exponents, k)}
    return MonomialIdeal(ideal.num_vars, tuple(Monomial(p) for p in products))


def is_equigenerated(ideal: MonomialIdeal) -> int | None:
    """The common total degree of the minimal generators, or None."""
    degrees = {g.degree for g in ideal.generators}
    if len(degrees) == 1:
        return degrees.pop()
    return None


def _lattice(ideal: MonomialIdeal):
    """Walk the lcm lattice of the generators, yielding ``(degree, classes)``
    for each point b whose upper-Koszul complex is not the full simplex on a
    nonempty supp(b): its total degree, and the generators dividing b grouped
    by S_g = {v : g_v = b_v}, as a dict from the bitmask of S to the bitmask
    of the divisors with that S (bit i is generator i).

    b is fixed one variable at a time, to a value c some divisor so far takes
    there. A child keeps the divisors with g_v <= c and splits each class into
    those with g_v = c, which gain v in S, then the rest; no S holds v yet, so
    the two keys never collide. So the keys come in one order for a given set
    of S, and ``tuple(classes)`` is a key that needs no sort. A prefix is cut
    as soon as a fixed variable lies in no class's S: b is a lattice point
    exactly when it is the lcm of its divisors, that is when some divisor
    attains each b_v.

    The walk also carries ``reach``, the divisors attaining b_v at some fixed
    v with b_v > 0, and cuts a prefix when ``reach`` is nonzero and a divisor
    outside it is idle, zero on every variable still to fix. Such a g
    divides every completion and attains no later b_v > 0, so at each
    lattice point below it has g_v < b_v on all of supp(b), which is
    nonempty since ``reach`` is: its facet {v : g_v < b_v} is supp(b), and
    the complex is the full simplex there, a cone. At a leaf every generator
    is idle, so no such point is yielded; b = 0 has ``reach`` zero and stays,
    the unit ideal's {empty set} complex with beta_{0,0} = 1. Depth first
    over an explicit stack, so the lattice streams instead of being held.
    """
    n = ideal.num_vars
    levels = []  # per variable: (value c, generators with g_v = c, with g_v <= c)
    for v in range(n):
        by_value: dict[int, int] = {}
        for i, g in enumerate(ideal.generators):
            by_value[g.exponents[v]] = by_value.get(g.exponents[v], 0) | 1 << i
        le = 0
        level = []
        for c in sorted(by_value):
            le |= by_value[c]
            level.append((c, by_value[c], le))
        levels.append(level)
    # idle[j]: the generators with g_v = 0 for every v >= j
    idle = [
        sum(1 << i for i, g in enumerate(ideal.generators) if not any(g.exponents[j:]))
        for j in range(n + 1)
    ]
    everyone = (1 << len(ideal.generators)) - 1
    stack = [(0, 0, everyone, {0: everyone}, 0)]
    while stack:
        depth, degree, divisors, classes, reach = stack.pop()
        if depth == n:
            yield degree, classes
            continue
        bit = 1 << depth
        for c, eq, le in levels[depth]:
            achiever = divisors & eq
            if achiever:
                below = divisors & le
                reached = reach & below | achiever if c else reach & below
                if reached and below & ~reached & idle[depth + 1]:
                    continue  # every lattice point below is a full simplex
                split = {}
                covered = 0
                for same, members in classes.items():
                    members &= below
                    if members:
                        covered |= same
                        inside = members & eq
                        if inside:
                            split[same | bit] = inside
                        if members != inside:
                            split[same] = members ^ inside
                if covered == bit - 1:
                    stack.append((depth + 1, degree + c, below, split, reached))


def _maximal(masks) -> list[int]:
    """The masks that lie in no other, largest first; a repeat is kept once."""
    maximal: list[int] = []
    for f in sorted(masks, key=int.bit_count, reverse=True):
        if not any(f & k == f for k in maximal):
            maximal.append(f)
    return maximal


def _strong_core(facets):
    """Maximal facets of the strong-collapse core of the complex they span;
    the facets as given when no vertex is dominated.

    Vertex v is dominated by w when every maximal facet holding v holds w.
    Deleting v keeps the homotopy type and so the rational homology (Barmak
    and Minian, Discrete Comput. Geom. 47, 2012), and each other dominator
    still dominates. A round deletes dominated vertices in turn, each while
    a dominator is present, so the edge {0, 1} keeps a vertex, not {empty
    set}; rounds repeat until none is dominated.
    """
    while True:
        vertices = kept = functools.reduce(operator.or_, facets, 0)
        rest = vertices
        while rest:
            v = rest & -rest
            rest ^= v
            if functools.reduce(operator.and_, (f for f in facets if f & v)) & kept & ~v:
                kept ^= v
        if kept == vertices:
            return facets
        facets = _maximal(f & kept for f in facets)


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


def _faces_of(facets) -> list[int]:
    """Every submask of every facet: the faces of the complex they span."""
    faces = {0}
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    return list(faces)


def _key_homology(key: tuple[int, ...], num_vars: int) -> tuple[()] | list[int]:
    """Reduced homology of the complex at a point the walk yields, from its
    key, the distinct S_g: their complements cut to the maximal facets.
    ``()`` when those share a vertex, a cone, which has none; otherwise the
    dimensions, slot i holding H~_{i-1}, read off the strong-collapse core:
    none for one vertex, H~_{V-2} = Q when its V facets each miss one of its
    V vertices (a simplex boundary), else from its faces and their ranks."""
    facets = _maximal(((1 << num_vars) - 1) ^ same for same in key)
    if functools.reduce(operator.and_, facets):
        return ()
    core = _strong_core(facets)
    vertices = functools.reduce(operator.or_, core)
    if len(core) == 1 and vertices:
        return []
    if len(core) == vertices.bit_count() > 1 and all((vertices ^ f).bit_count() == 1 for f in core):
        return [0] * (len(core) - 1) + [1]
    return _homology_from_masks(_faces_of(core), num_vars)


def betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Exact graded Betti table of the ideal (as a module, not its quotient).

    Walks the lcm lattice of the generators over generator bitmasks, so no
    Monomial is built per point, and never reaches a full simplex on a
    nonempty supp(b) (``_lattice``). The complex at a yielded b is the union
    of the simplices {v : g_v < b_v}, the complements of the sets S_g the
    walk groups its divisors by, so it is fixed by the walk's key, the class
    map's keys in split order. Each point looks its key up in a memo. On a
    miss only, the complements are cut to the maximal facets; when those
    share a vertex the complex is a cone, with no reduced homology, and the
    key is stored as ``()``. Otherwise homology is read off the strong-collapse
    core, in closed form for a vertex or a simplex boundary and from faces
    and ranks for the rest (``_key_homology``). So a cone costs one dict hit
    after its key is first seen. Dimensions accumulate by total degree.
    Deterministic for a given ideal.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no Betti table")
    memo: dict[tuple[int, ...], tuple[()] | list[int]] = {}
    entries: dict[tuple[int, int], int] = {}
    for degree, classes in _lattice(ideal):
        key = tuple(classes)
        dims = memo.get(key)
        if dims is None:
            dims = memo[key] = _key_homology(key, ideal.num_vars)
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
        # the count is checked before a string generator allocates n exponents
        n = MonomialIdeal(_json_int(obj["variables"]), ()).num_vars
    except KeyError:
        raise ParseError("ideal JSON needs a 'variables' key") from None
    except TypeError as exc:
        raise ParseError(f"'variables' must be an integer: {exc}") from exc
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
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
