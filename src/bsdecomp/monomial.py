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
The complex at b is fixed by which generators reach b where, whatever the
power, so the powers of one ideal share one homology memo, and a variable
permutation fixing the generators maps it onto an isomorphic complex, so
their walks visit one point per orbit. ``power_tables`` is the one driver of
the walk, for ``betti_table`` too, and checks each table it returns against
the Herzog-Kühl identities (Comm. Algebra 12, 1984).
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import re
from dataclasses import dataclass

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
            exps = tuple(map(_json_int, self.exponents))
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


# a factor and the space after it; [0-9] keeps the digits ASCII, and \s takes
# exactly the characters str.isspace() does
_FACTOR = re.compile(r"x([0-9]*)(\^([0-9]*))?\s*")
_SPACE = re.compile(r"\s*")


def parse_monomial(text: str, num_vars: int) -> Monomial:
    """Parse ``x1*x3^2`` style input; repeated factors accumulate.

    Variables are x1..x<num_vars>, exponents are positive integers, both in
    ASCII digits, factors are joined by ``*``. Errors report the character
    position.
    """
    exps = [0] * _json_int(num_vars)
    pos = _SPACE.match(text).end()
    if pos == len(text):
        raise ParseError(f"empty monomial in {text!r}")
    while True:
        factor = _FACTOR.match(text, pos)
        if factor is None:
            raise ParseError(f"expected 'x' at position {pos} in {text!r}")
        idx = _digit_group(factor, 1, "variable index")
        if not 1 <= idx <= num_vars:
            raise ParseError(f"variable x{idx} out of range 1..{num_vars} in {text!r}")
        exponent = 1 if factor[2] is None else _digit_group(factor, 3, "exponent")
        if exponent < 1:
            raise ParseError(f"exponent must be >= 1 at position {factor.start(3)} in {text!r}")
        exps[idx - 1] += exponent
        pos = factor.end()
        if pos == len(text):
            break
        if text[pos] != "*":
            raise ParseError(f"expected '*' at position {pos} in {text!r}")
        pos = _SPACE.match(text, pos + 1).end()
    return Monomial(tuple(exps))


def _digit_group(factor: re.Match, group: int, what: str) -> int:
    """The integer in one digit group of a ``_FACTOR`` match."""
    digits, start = factor[group], factor.start(group)
    if not digits:
        raise ParseError(f"expected {what} at position {start} in {factor.string!r}")
    try:
        return int(digits)
    except ValueError as exc:  # longer than Python converts from text
        raise ParseError(f"{what} at position {start}: {exc}") from exc


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
        n = _json_int(self.num_vars)
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
    if _json_int(k) < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if k == 1:
        return ideal  # its generators are minimal already
    exponents = [g.exponents for g in ideal.generators]
    products = {tuple(map(sum, zip(*combo))) for combo in itertools.combinations_with_replacement(exponents, k)}
    return MonomialIdeal(ideal.num_vars, tuple(Monomial(p) for p in products))


def is_equigenerated(ideal: MonomialIdeal) -> int | None:
    """The common total degree of the minimal generators, or None."""
    degrees = {g.degree for g in ideal.generators}
    if len(degrees) == 1:
        return degrees.pop()
    return None


_SEARCH_BUDGET = 4 * MAX_VARIABLES  # full comparisons per column class before _symmetries gives up


def _symmetries(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """The permutations s of the variables (v to s[v]) that map the generator
    set, and so each power, onto itself: the identity, then one per class
    modulo swaps of equal columns, which fix every lattice point, namely the
    one keeping each column class's order. None past ``2 * MAX_VARIABLES``,
    every dihedral group's order. Backtracks over the column classes while
    the generators' projections onto the mapped ones and onto their images
    agree as multisets, so it never lists the n! of a fully symmetric ideal.
    The classes whose columns have the most distinct values go first, as
    they rule out the most maps, and a candidate image is compared in full
    only once its projections onto each pair of classes agree; a pair is
    projected the first time the search looks it up. A search
    still open after ``_SEARCH_BUDGET`` full comparisons per class, as on a
    rigid ideal whose partial maps agree until the last class, uses none.
    """
    exponents = [g.exponents for g in ideal.generators]
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in range(ideal.num_vars):
        classes.setdefault(tuple(e[v] for e in exponents), []).append(v)
    members = sorted(classes.values(), key=lambda vs: -len({e[vs[0]] for e in exponents}))
    firsts = [vs[0] for vs in members]
    numbers: dict[tuple, int] = {}

    @functools.cache
    def pair(a: int, b: int) -> int:
        """The projections onto classes a and b, numbered by value."""
        return numbers.setdefault(tuple(_projections(exponents, (firsts[a], firsts[b]))), len(numbers))

    wanted = [_projections(exponents, firsts[: d + 1]) for d in range(len(members))]
    budget = _SEARCH_BUDGET * len(members)
    found: list[tuple[int, ...]] = []
    stack = [()]  # the classes that the first len(images) classes map onto
    while stack:
        images = stack.pop()
        depth = len(images)
        if depth == len(members):
            pairs = zip(itertools.chain(*members), itertools.chain(*map(members.__getitem__, images)))
            found.append(tuple(w for _, w in sorted(pairs)))
            if len(found) > 2 * MAX_VARIABLES:
                return []
            continue
        for t in reversed(range(len(members))):
            if t in images or len(members[t]) != len(members[depth]):
                continue
            if any(pair(t, u) != pair(depth, d) for d, u in enumerate(images + (t,))):
                continue
            budget -= 1
            if budget < 0:
                return []
            if _projections(exponents, [firsts[u] for u in images + (t,)]) == wanted[depth]:
                stack.append(images + (t,))
    return found


def _projections(exponents, variables) -> list[tuple[int, ...]]:
    """The exponent vectors cut to ``variables``, in that order, sorted."""
    return sorted(tuple(e[v] for v in variables) for e in exponents)


def _lattice(ideal: MonomialIdeal, symmetries=()):
    """Walk the lcm lattice of the generators, yielding ``(degree, classes,
    multiplicity)`` for each point b whose upper-Koszul complex is not the
    full simplex on a nonempty supp(b): its total degree, the generators
    dividing b grouped by S_g = {v : g_v = b_v}, as a dict from the bitmask
    of S to the bitmask of the divisors with that S (bit i is generator i),
    and the number of points whose complex it stands for.

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

    With ``symmetries`` (``_symmetries``), each mapping the complex at b onto
    an isomorphic one of the same degree, only the least point of each orbit
    is yielded (Read, Ann. Discrete Math. 2, 1978), weighted by the orbit's
    size, else by 1. Points compare on the variables p in order of the depth
    at which every s has fixed b_p and b_{s[p]}. As the s are closed under
    inverses, s cuts a prefix whose first p with b_p != b_{s[p]} has
    b_p > b_{s[p]}, and drops out if b_p < b_{s[p]}; those left at a leaf
    and the identity are the stabilizer of b. None is used if each s
    decides only at the last variable, where the cut saves no node.
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
    # per symmetry but the identity: per depth, the (p, s[p]) it compares there
    positions = sorted(range(n), key=lambda p: (max([p] + [s[p] for s in symmetries]), p))
    checks = []
    for s in symmetries:
        pairs = [(p, s[p]) for p in positions if s[p] != p]
        check: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for pair, depth in zip(pairs, itertools.accumulate(map(max, pairs), max)):
            check[depth].append(pair)
        if pairs:
            checks.append(check)
    if not any(any(check[:-1]) for check in checks):
        checks = []
    everyone = (1 << len(ideal.generators)) - 1
    idle = [everyone]  # idle[j]: the generators with g_v = 0 for every v >= j
    for (c, eq, _), *_ in reversed(levels):
        idle.insert(0, idle[0] & eq if c == 0 else 0)
    order = len(checks) + 1
    # orbit: the prefix and the checks still reading it as equal to its
    # image, or () once none is left, when a leaf's orbit has full size
    stack = [(0, 0, everyone, {0: everyone}, 0, ((), tuple(checks)) if checks else ())]
    while stack:
        depth, degree, divisors, classes, reach, orbit = stack.pop()
        if depth == n:
            yield degree, classes, order // (len(orbit[1]) + 1) if orbit else order
            continue
        bit = 1 << depth
        for c, eq, le in levels[depth]:
            achiever = divisors & eq
            if achiever:
                below = divisors & le
                reached = reach & below | achiever if c else reach & below
                # a divisor idle outside reached at c stays below, idle and
                # outside reached at every larger c, where reached holds c's
                # achievers and so is nonzero: each later c is cut as well
                if reached and below & ~reached & idle[depth + 1]:
                    break  # every lattice point below is a full simplex
                child = orbit
                if orbit:
                    child = _unsettled(orbit, c, depth)
                    if child is None:
                        continue  # a symmetry maps every completion lower
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
                    stack.append((depth + 1, degree + c, below, split, reached, child))


def _unsettled(orbit, c, depth):
    """The orbit state of a child that fixes variable ``depth`` to c: its
    prefix and the checks whose comparisons there find it equal to its
    image, () once none is left; None when one finds it larger, as its image
    is then a lower point."""
    values, alive = orbit
    point = values + (c,)
    still = []
    for check in alive:
        for p, q in check[depth]:
            if point[p] != point[q]:
                if point[q] < point[p]:
                    return None
                break
        else:
            still.append(check)
    return (point, tuple(still)) if still else ()


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
    """Exact graded Betti table of the ideal (as a module, not its quotient):
    ``power_tables(ideal, 1, 1)[1]``, which searches for no symmetries."""
    return power_tables(ideal, 1, 1)[1]


def power_tables(ideal: MonomialIdeal, k_min: int, k_max: int) -> dict[int, BettiTable]:
    """The Betti tables of ideal^k for k = k_min..k_max, each from one walk
    of its lcm lattice (``_lattice``) that builds no Monomial per point. A
    point looks up its key, which fixes its complex whatever k is, in one
    memo for the call, and a miss takes homology (``_key_homology``), so a
    cone costs one dict hit once its key is known. When some walk is over a
    power (k_max >= 2), the ideal's symmetries, which fix every power, are
    searched once (``_symmetries``) and each walk visits one point per
    orbit; a table of the ideal alone searches for none, as the search costs
    more than it saves on ideals that mostly have none. Entries add up by
    total degree; deterministic for an ideal. Each table must meet the
    Herzog-Kühl identities of I^k, whose height h is I's: beta_{0,j} counts
    the minimal generators of degree j, and sum (-1)^i j^m beta_{i,j} is 1
    at m = 0 and 0 at 0 < m < h. A table that does not raises
    CertificateError.
    """
    if _json_int(k_min) < 1 or _json_int(k_max) < k_min:
        raise ValueError(f"need 1 <= k_min <= k_max, got {k_min}..{k_max}")
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no Betti table")
    memo: dict[tuple[int, ...], tuple[()] | list[int]] = {}
    symmetries = _symmetries(ideal) if k_max >= 2 else ()
    height = _height(ideal)  # every power has the ideal's radical
    tables = {}
    for k in range(k_min, k_max + 1):
        ideal_k = power(ideal, k)
        entries: dict[tuple[int, int], int] = {}
        for degree, classes, multiplicity in _lattice(ideal_k, symmetries):
            key = tuple(classes)
            dims = memo.get(key)
            if dims is None:
                dims = memo[key] = _key_homology(key, ideal.num_vars)
            for i, dim in enumerate(dims):
                if dim:
                    pos = (i, degree)
                    entries[pos] = entries.get(pos, 0) + multiplicity * dim
        # beta_{0,j} counts the minimal generators of degree j
        column = {j: dim for (i, j), dim in entries.items() if i == 0}
        counts = collections.Counter(g.degree for g in ideal_k.generators)
        if column != counts:
            raise CertificateError(f"beta_0 by degree is {column}, but the minimal generators number {dict(counts)}")
        # (1 - t)^height divides the Hilbert series numerator of S/I^k
        for m in range(height):
            total = sum((-1) ** i * j**m * dim for (i, j), dim in entries.items())
            if total != (1 if m == 0 else 0):
                raise CertificateError(f"identity two fails at m = {m} < height {height}: the sum is {total}")
        tables[k] = BettiTable.from_entries(entries)
    return tables


def _height(ideal: MonomialIdeal) -> int:
    """The least number of variables meeting the support of every generator,
    0 for the unit ideal: ``least(chosen)`` is 0 once the partial cover meets
    every support, else 1 + the least ``least`` with a variable of the smallest
    support it misses added; memoized, at most one step per set of variables."""
    supports = sorted({sum(1 << v for v, e in enumerate(g.exponents) if e) for g in ideal.generators}, key=int.bit_count)

    @functools.cache
    def least(chosen: int) -> int:
        for support in supports:
            if not support & chosen:
                return 1 + min(least(chosen | 1 << v) for v in range(ideal.num_vars) if support >> v & 1)
        return 0

    return least(0) if supports[0] else 0


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
