"""Conjugation-invariant word norms on small permutation groups.

Elements are permutations of at most 12 points, stored as tuples of images.
Groups are fully enumerated (cap 10^6 elements), which keeps every norm
exact and every axiom checkable exhaustively.

Every norm here is conjugation invariant, so on a finite group it is a class
function, and every engine runs over the conjugacy-class table: the
commutator set, word norms, the zeta norm and normal closures are computed
over classes rather than over elements or pairs of elements.

``generate_group`` enumerates a group one conjugacy class at a time, so
closing the generators and labelling the classes are one pass: each class
is an orbit under conjugation by the generators, and the products of each
class with the generators' classes name the classes still to walk.  That
pass works on bytes: a permutation padded to 256 bytes is a
``bytes.translate`` table, so each product or conjugation step is one or two
C-level lookups.  The elements are sorted and become tuples once, at the
end.  The group keeps the walk's own table: its one index maps the bytes of
each element to its class label, so a lookup answers membership and class
at once, and the walk's orbits are the classes.
"""

from __future__ import annotations

import struct

from rotnorm._rat import INF
from rotnorm.errors import (
    ClosureTooLarge,
    EmptySubset,
    IdentityGenerator,
    NotAMember,
    NotConjInvariant,
    NotSymmetric,
    TrivialGroup,
    ValidationError,
    quoted,
)

Perm = tuple[int, ...]

MAX_DEGREE = 12
CLOSURE_CAP = 10**6


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """Product a*b: apply b first, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, img in enumerate(a):
        inv[img] = i
    return tuple(inv)


def conjugate(h: Perm, g: Perm) -> Perm:
    """h g h^-1."""
    return compose(compose(h, g), inverse(h))


def validate_perm(images) -> Perm:
    """The permutation with these images; each must be an int (not a bool,
    float or string)."""
    if not isinstance(images, (list, tuple)) or any(
            type(i) is not int for i in images):
        raise ValidationError(f"a permutation is a list of integers: {quoted(images)}")
    p = tuple(images)
    if len(p) > MAX_DEGREE:
        raise ValidationError(f"degree {len(p)} exceeds cap {MAX_DEGREE}")
    if sorted(p) != list(range(len(p))):
        raise ValidationError(f"not a permutation of 0..{len(p) - 1}: {quoted(p)}")
    return p


_OPEN = tuple(f"({i}" for i in range(MAX_DEGREE))
_NEXT = tuple(f" {i}" for i in range(MAX_DEGREE))


def cycle_str(p: Perm) -> str:
    """Cycle notation, fixed points omitted; identity is '()'.

    One pass over the points of p (at most MAX_DEGREE of them): a cycle is
    written from its least point, the first of its points the pass meets,
    and its other points are marked as written.
    """
    out = ""
    q = list(p)
    for start in range(len(q)):
        j = q[start]
        if j <= start:  # a fixed point, or a point of a cycle written already
            continue
        out += _OPEN[start]
        while j != start:
            out += _NEXT[j]
            q[j], j = -1, q[j]
        out += ")"
    return out or "()"


class FiniteGroup:
    """A fully enumerated permutation group with canonically ordered elements.

    ``generators`` must generate ``elements``: the conjugacy classes and the
    invariance checks are taken under conjugation by the generators alone.

    The group keeps one index, ``_class_of``, which maps the bytes of each
    element to its class label, the identity's class being label 0.
    ``_classes`` holds the members of each class as bytes, in label order,
    and ``_labels`` the label of each element in ``elements`` order.
    ``generate_group`` hands over all three from its class walk.  A group
    built directly (as ``normal_closure`` builds them) starts with an index
    that answers membership only, and labels its classes on first use
    (``_table``).
    """

    __slots__ = ("degree", "elements", "generators", "_class_of", "_classes",
                 "_labels")

    def __init__(self, degree, elements, generators, _class_of=None,
                 _classes=None, _labels=None):
        self.degree = degree
        self.elements = elements
        self.generators = generators
        self._class_of = (dict.fromkeys(map(bytes, elements))
                          if _class_of is None else _class_of)
        self._classes = _classes
        self._labels = _labels

    def _table(self):
        """(``_class_of``, ``_classes``, ``_labels``), labelling the classes
        of a directly built group first.

        Its classes are the orbits under conjugation by the generators,
        walked by ``_orbit`` in element order, which costs |G| *
        |generators| conjugations.  The identity is the least element, so
        its class is walked first and gets label 0.
        """
        if self._classes is None:
            keys = list(self._class_of)
            conjugators = _conjugators(self.generators)
            class_of, orbits = {}, []
            for x in keys:
                if x not in class_of:
                    orbits.append(_orbit(x, conjugators, class_of, len(orbits),
                                         len(keys)))
            self._class_of = class_of
            self._classes = orbits
            self._labels = list(map(class_of.__getitem__, keys))
        return self._class_of, self._classes, self._labels

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def _key(self, g):
        """The bytes of g if g is an element, else None.

        Answers as a dict keyed by the element tuples would: an unhashable
        g raises TypeError, and images equal to ints (True, 1.0) count as
        those ints.
        """
        hash(g)
        if not isinstance(g, tuple) or len(g) != self.degree:
            return None
        try:
            key = bytes(g)
        except ValueError:  # an image outside 0..255
            return None
        except TypeError:  # an image that is not an int
            try:
                ints = tuple(map(int, g))
            except (TypeError, ValueError, OverflowError):
                return None
            return self._key(ints) if ints == g else None
        return key if key in self._class_of else None

    def _label(self, g) -> int:
        """The class label of the element g."""
        key = self._key(g)
        if key is None:
            raise NotAMember(f"{g} is not an element of the group")
        return self._table()[0][key]

    def __contains__(self, g) -> bool:
        return self._key(g) is not None

    def require_member(self, g: Perm) -> Perm:
        """g as a tuple of ints (g itself when its images are ints), or
        NotAMember when g is not an element."""
        key = self._key(g)
        if key is None:
            raise NotAMember(f"{g} is not an element of the group")
        return g if all(type(i) is int for i in g) else tuple(key)


def _conjugators(generators):
    """(s padded to a 256-byte translate table, s^-1) for each generator s."""
    return [(bytes(s) + bytes(256 - len(s)), bytes(inverse(s)))
            for s in generators]


def _orbit(x: bytes, conjugators, class_of: dict, k: int, cap: int) -> list:
    """The orbit of x under conjugation by the generators, entered in
    class_of as class k.

    (s y s^-1)[i] = s[y[s^-1[i]]]: translate s^-1 through y, then through s,
    with y padded to 256 bytes as a translate table.  Raises ClosureTooLarge
    as soon as class_of would hold more than cap elements, so an oversized
    group stops inside the walk that passes the cap.
    """
    pad = bytes(256 - len(x))
    if len(class_of) >= cap:
        raise ClosureTooLarge(f"closure exceeds {cap} elements")
    class_of[x] = k
    orbit = [x]
    for y in orbit:  # the list grows as it is walked: a BFS queue
        table = y + pad
        for s_table, s_inv in conjugators:
            z = s_inv.translate(table).translate(s_table)
            if z not in class_of:
                if len(class_of) >= cap:
                    raise ClosureTooLarge(f"closure exceeds {cap} elements")
                class_of[z] = k
                orbit.append(z)
    return orbit


def _class_products(K, C) -> list[bytes]:
    """Products whose classes are the classes of k*c, k in K and c in C
    (two conjugacy classes, as bytes).

    Conjugating k*c by h gives (h k h^-1)(h c h^-1), so these classes are
    those of r*c over c in C, r the first member of K, and also those of
    k*c0 over k in K, c0 the first member of C: the shorter loop suffices.
    (r*c)[i] = r[c[i]] is c translated through r; c0*k is conjugate to
    k*c0 and is k translated through c0.
    """
    if len(C) <= len(K):
        table = K[0] + bytes(256 - len(K[0]))
        return [c.translate(table) for c in C]
    table = C[0] + bytes(256 - len(C[0]))
    return [k.translate(table) for k in K]


def generate_group(generators) -> FiniteGroup:
    """The group generated by a set of permutations, enumerated one
    conjugacy class at a time (cap 10^6 elements).

    The classes of the identity and of each generator come first, each an
    orbit under conjugation by the generators (``_orbit``).  Then the
    classes are walked in the order found: for each class K and each class
    C of a generator, ``_class_products`` gives elements whose classes are
    those of k*c over k in K, c in C, and each product not seen yet starts
    a new orbit.

    This reaches all of G.  Let U be the union of the classes found.  It
    contains the identity.  Take x in U and a generator g, and write x =
    h r h^-1 with r the first member of x's class K.  Then x*g = h (r *
    h^-1 g h) h^-1, and h^-1 g h lies in C, the class of g, so the class of
    x*g is that of r*c for some c in C, which the walk reached.  So U is
    closed under right multiplication by every generator; G is finite, so
    every element is a word in the generators (inverses are positive
    powers), and U = G.  Every member of U is a conjugate of a product of
    generators, so U lies in G.

    Elements stay bytes throughout; they are sorted once (bytes of one
    length sort exactly as the tuples of their values) and turned into
    tuples once.  The group keeps the walk's table as it stands: ``class_of``
    as its index, the orbits as its classes (the identity's first), and the
    labels of the sorted elements.
    """
    gens = tuple(validate_perm(g) for g in generators)
    if not gens:
        raise ValidationError("at least one generator required")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValidationError("generators have mixed degrees")
    conjugators = _conjugators(gens)
    class_of: dict[bytes, int] = {}
    orbits: list[list[bytes]] = []
    for x in (bytes(range(degree)), *map(bytes, gens)):
        if x not in class_of:
            orbits.append(_orbit(x, conjugators, class_of, len(orbits),
                                 CLOSURE_CAP))
    gen_classes = [orbits[c]
                   for c in sorted({class_of[bytes(g)] for g in gens})]
    for K in orbits:  # the list grows as it is walked
        for C in gen_classes:
            for x in _class_products(K, C):
                if x not in class_of:
                    orbits.append(_orbit(x, conjugators, class_of,
                                         len(orbits), CLOSURE_CAP))
    keys = sorted(class_of)
    elements = (tuple(struct.iter_unpack(f"{degree}B", b"".join(keys)))
                if degree else ((),))
    return FiniteGroup(degree, elements, gens, class_of, orbits,
                       list(map(class_of.__getitem__, keys)))


def _union_of_classes(G: FiniteGroup, keep) -> tuple[Perm, ...]:
    """The sorted members of the classes whose labels satisfy keep."""
    return tuple(g for g, k in zip(G.elements, G._table()[2]) if keep(k))


def _class_distances(G: FiniteGroup, s_labels) -> list[int]:
    """Word length per class over S, the union of the classes s_labels;
    -1 where unreachable.

    A class enters layer d+1 as the class of f*s, f in a class K of layer d
    and s in a class C of S; ``_class_products`` gives those classes from
    min(|K|, |C|) products.
    """
    class_of, classes, _ = G._table()
    dist = [-1] * len(classes)
    dist[0] = 0  # the identity's class
    unseen = len(classes) - 1
    frontier = [0]
    d = 0
    while frontier and unseen:
        d += 1
        nxt = []
        for k in frontier:
            K = classes[k]
            for c in s_labels:
                products = _class_products(K, classes[c])
                for j in set(map(class_of.__getitem__, products)):
                    if dist[j] < 0:
                        dist[j] = d
                        nxt.append(j)
                        unseen -= 1
        frontier = nxt
    return dist


def conjugacy_class(G: FiniteGroup, g: Perm) -> tuple[Perm, ...]:
    """The members of g's class, sorted."""
    label = G._label(g)
    return tuple(map(tuple, sorted(G._table()[1][label])))


def normal_closure(G: FiniteGroup, g: Perm) -> FiniteGroup:
    """Smallest normal subgroup of G containing g.

    It is the set of finite products of conjugates of g and g^-1: the
    classes reachable by the class BFS over class(g) and class(g^-1).
    """
    g = G.require_member(g)
    s_labels = {G._label(g), G._label(inverse(g))}
    dist = _class_distances(G, s_labels)
    classes = G._table()[1]
    gens = tuple(map(tuple, sorted(s for c in s_labels for s in classes[c])))
    return FiniteGroup(G.degree, _union_of_classes(G, lambda k: dist[k] >= 0),
                       gens)


class NormTable:
    """Map element -> word-norm value (non-negative int, or inf)."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: dict):
        self.group = group
        self.values = values

    def __getitem__(self, g: Perm):
        self.group.require_member(g)
        return self.values[g]

    def check_axioms(self) -> None:
        """Exhaustive check of the four norm axioms; raises AssertionError
        on a violation, also under ``python -O``."""
        G = self.group
        v = self.values
        if v[G.identity] != 0:
            raise AssertionError("norm is nonzero at the identity")
        for g in G.elements:
            if g != G.identity and v[g] <= 0:
                raise AssertionError(f"norm vanishes off identity at {g}")
            if v[g] != v[inverse(g)]:
                raise AssertionError(f"asymmetric at {g}")
        for g in G.elements:
            for h in G.elements:
                if v[compose(g, h)] > v[g] + v[h]:
                    raise AssertionError(f"triangle fails at {g},{h}")
                if v[conjugate(h, g)] != v[g]:
                    raise AssertionError(f"not conjugation-invariant at {g}")

    def to_json(self) -> dict:
        out = {}
        for g in self.group.elements:
            val = self.values[g]
            out[cycle_str(g)] = "inf" if val == INF else int(val)
        return out


def word_norm(G: FiniteGroup, S) -> NormTable:
    """BFS word length over S; inf outside the subgroup generated by S.

    S is any iterable of permutations, and must be a union of conjugacy
    classes closed under inversion.  This is checked on the class table, in
    this order: every member lies in G (``NotAMember``, members taken in
    sorted order); the inverse of every member lies in S (``NotSymmetric``);
    every class S meets lies in S, that is S holds as many of its members
    as it has (``NotConjInvariant``, naming the least member whose class
    leaves S).  The classes are the orbits under conjugation by G's
    generators, so this is invariance under conjugation by all of G.

    The norm is then a class function and the BFS runs over conjugacy
    classes: a class K gets distance d+1 when it is unvisited and k*s has
    distance d for some k in K and s in S.
    """
    members = [G.require_member(s) for s in sorted({tuple(s) for s in S})]
    mset = set(members)
    class_of, classes, _ = G._table()
    labels = [class_of[bytes(s)] for s in members]
    for s in members:
        if inverse(s) not in mset:
            raise NotSymmetric(f"inverse of {s} missing from the set")
    met = dict.fromkeys(labels, 0)  # class label -> members of S in it
    for k in labels:
        met[k] += 1
    for s, k in zip(members, labels):
        if met[k] != len(classes[k]):
            raise NotConjInvariant(f"the class of {s} leaves the set")
    return _class_norm(G, set(met) - {0})  # 0: the identity


def _class_norm(G: FiniteGroup, s_labels) -> NormTable:
    """The word norm over the union of the classes s_labels (the
    identity's class not among them)."""
    per_class = [INF if d < 0 else d for d in _class_distances(G, s_labels)]
    return NormTable(group=G, values=dict(
        zip(G.elements, map(per_class.__getitem__, G._table()[2]))))


def _commutator_labels(G: FiniteGroup) -> set[int]:
    """The labels of the classes whose union is the set of commutators.

    For fixed a, {[a, b] : b in G} = a * class(a^-1), and h [a, b] h^-1 =
    [h a h^-1, h b h^-1], so the set is the union of the classes of r*c for
    r a class representative and c in class(r^-1): |G| products in all.
    """
    class_of, classes, _ = G._table()
    hit = set()
    for K in classes:
        inv = classes[class_of[bytes(inverse(K[0]))]]
        hit.update(map(class_of.__getitem__, _class_products(K, inv)))
    return hit


def commutator_set(G: FiniteGroup) -> tuple[Perm, ...]:
    """All commutators [a, b] = a b a^-1 b^-1, sorted."""
    return _union_of_classes(G, _commutator_labels(G).__contains__)


def commutator_length(G: FiniteGroup) -> NormTable:
    """Word norm over the set of all commutators; inf outside [G, G].

    The BFS runs over the commutator classes' labels; the identity's class
    ([a, a]) is left out, as ``word_norm`` leaves it out.
    """
    return _class_norm(G, _commutator_labels(G) - {0})


def zeta_norm(G: FiniteGroup, g: Perm) -> NormTable:
    """Word norm over the conjugacy classes of g and g^-1."""
    g = G.require_member(g)
    if g == G.identity:
        raise IdentityGenerator("zeta norm requires a non-identity element")
    return _class_norm(G, {G._label(g), G._label(inverse(g))})


def quotient_norm(q: NormTable, S, f: Perm):
    """min over a in S of q(f a^-1)."""
    members = tuple(S)
    if not members:
        raise EmptySubset("quotient norm needs a non-empty subset")
    G = q.group
    f = G.require_member(f)
    members = [G.require_member(tuple(a)) for a in members]
    return min(q.values[compose(f, inverse(a))] for a in members)


def weakly_simple_set(G: FiniteGroup):
    """S_G = union of all proper normal subgroups, plus a classification.

    Returns (elements of S_G sorted, classification) with classification one
    of 'simple', 'weakly simple', 'not weakly simple'.
    """
    if G.order <= 1:
        raise TrivialGroup("classification undefined for the trivial group")
    # A class lies in S_G when the normal closure of its elements is proper;
    # that closure is the union of the classes the class BFS reaches over
    # class(g) and class(g^-1), so its order is a sum of class sizes.  A
    # proper closure holds the closures of all the classes it reaches, so
    # they lie in S_G with no BFS of their own.
    class_of, classes, _ = G._table()
    keep = {0}  # the identity's class
    for k, K in enumerate(classes):
        if k in keep:
            continue
        dist = _class_distances(G, {k, class_of[bytes(inverse(K[0]))]})
        reached = [j for j, d in enumerate(dist) if d >= 0]
        if sum(len(classes[j]) for j in reached) < G.order:
            keep.update(reached)
    s_g = _union_of_classes(G, keep.__contains__)
    if len(s_g) == 1:  # the identity alone
        classification = "simple"
    elif len(s_g) < G.order:
        classification = "weakly simple"
    else:
        classification = "not weakly simple"
    return s_g, classification
