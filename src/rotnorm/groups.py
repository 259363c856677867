"""Conjugation-invariant word norms on small permutation groups.

Elements are permutations of at most 12 points, stored as tuples of images.
Groups are fully enumerated (cap 10^6 elements), which keeps every norm
exact and every axiom checkable exhaustively.

Every norm here is conjugation invariant, so on a finite group it is a class
function.  A group labels its conjugacy classes once, on first use, as
orbits under conjugation by its generators; the commutator set, word norms
and normal closures are then computed over classes rather than over
elements or pairs of elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from rotnorm import _kernels
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
    p = tuple(int(i) for i in images)
    if len(p) > MAX_DEGREE:
        raise ValidationError(f"degree {len(p)} exceeds cap {MAX_DEGREE}")
    if sorted(p) != list(range(len(p))):
        raise ValidationError(f"not a permutation of 0..{len(p) - 1}: {p}")
    return p


def cycle_str(p: Perm) -> str:
    """Cycle notation, fixed points omitted; identity is '()'."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "()"


def _to_bytes(p: Perm) -> bytes:
    return bytes(p)


def _from_bytes(b: bytes) -> Perm:
    return tuple(b)


@dataclass(frozen=True)
class FiniteGroup:
    """A fully enumerated permutation group with canonically ordered elements.

    ``generators`` must generate ``elements``: the conjugacy classes and the
    invariance checks are taken under conjugation by the generators alone.
    """

    degree: int
    elements: tuple[Perm, ...]
    generators: tuple[Perm, ...]
    _index: dict = field(default=None, repr=False, compare=False)
    _classes: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {g: i for i, g in enumerate(self.elements)})

    def _class_table(self):
        """(class label of each element index, sorted members of each class).

        Computed once, as orbits under conjugation by the generators, which
        costs |G| * |generators| conjugations.  Labels follow the order of
        each class's least element, so the identity's class is label 0.
        """
        if self._classes is None:
            object.__setattr__(self, "_classes", _label_classes(self))
        return self._classes

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def __contains__(self, g) -> bool:
        return g in self._index

    def require_member(self, g: Perm) -> Perm:
        if g not in self._index:
            raise NotAMember(f"{g} is not an element of the group")
        return g


def generate_group(generators) -> FiniteGroup:
    """Close a generator set under products (BFS, cap 10^6 elements)."""
    gens = tuple(validate_perm(g) for g in generators)
    if not gens:
        raise ValidationError("at least one generator required")
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValidationError("generators have mixed degrees")
    raw = _kernels.closure_bytes([_to_bytes(g) for g in gens], CLOSURE_CAP)
    if raw is None:
        raise ClosureTooLarge(f"closure exceeds {CLOSURE_CAP} elements")
    elements = tuple(sorted(_from_bytes(b) for b in raw))
    return FiniteGroup(degree=degree, elements=elements, generators=gens)


def _label_classes(G: FiniteGroup):
    index, elements = G._index, G.elements
    # x -> s x s^-1 reads x at s^-1, then s at the result.
    conjugators = [(s.__getitem__, inverse(s)) for s in G.generators]
    labels = [-1] * len(elements)
    classes = []
    for i, g in enumerate(elements):
        if labels[i] >= 0:
            continue
        k = len(classes)
        labels[i] = k
        orbit = [i]
        stack = [g]
        while stack:
            x = stack.pop()
            x_at = x.__getitem__
            for s_at, s_inv in conjugators:
                j = index[tuple(map(s_at, map(x_at, s_inv)))]
                if labels[j] < 0:
                    labels[j] = k
                    orbit.append(j)
                    stack.append(elements[j])
        orbit.sort()
        classes.append(tuple(elements[j] for j in orbit))
    return labels, tuple(classes)


def _union_of_classes(G: FiniteGroup, keep) -> tuple[Perm, ...]:
    """The sorted members of the classes whose labels satisfy keep."""
    labels, _ = G._class_table()
    return tuple(g for g, k in zip(G.elements, labels) if keep(k))


def _class_distances(G: FiniteGroup, s_labels) -> list[int]:
    """Word length per class over S, the union of the classes s_labels;
    -1 where unreachable.

    A class enters layer d+1 as the class of f*s, f in a class K of layer d
    and s in a class C of S.  Conjugating f*s by h gives (h f h^-1)(h s
    h^-1), so the classes of f*s over f in K, s in C are those of r*s over
    s in C, r the representative of K, and also those of f*c over f in K,
    c the representative of C: the shorter of the two loops suffices.
    """
    labels, classes = G._class_table()
    index = G._index
    dist = [-1] * len(classes)
    start = labels[index[G.identity]]
    dist[start] = 0
    unseen = len(classes) - 1
    frontier = [start]
    d = 0
    while frontier and unseen:
        d += 1
        nxt = []
        for k in frontier:
            K = classes[k]
            for c in s_labels:
                C = classes[c]
                if len(C) <= len(K):
                    r_at = K[0].__getitem__
                    hit = {labels[index[tuple(map(r_at, s))]] for s in C}
                else:
                    c_rep = C[0]
                    hit = {labels[index[tuple(map(f.__getitem__, c_rep))]]
                           for f in K}
                for j in hit:
                    if dist[j] < 0:
                        dist[j] = d
                        nxt.append(j)
                        unseen -= 1
        frontier = nxt
    return dist


def conjugacy_class(G: FiniteGroup, g: Perm) -> tuple[Perm, ...]:
    G.require_member(g)
    labels, classes = G._class_table()
    return classes[labels[G._index[g]]]


def normal_closure(G: FiniteGroup, g: Perm) -> FiniteGroup:
    """Smallest normal subgroup of G containing g.

    It is the set of finite products of conjugates of g and g^-1: the
    classes reachable by the class BFS over class(g) and class(g^-1).
    """
    G.require_member(g)
    if g == G.identity:
        return FiniteGroup(G.degree, (G.identity,), (G.identity,))
    labels, classes = G._class_table()
    s_labels = {labels[G._index[g]], labels[G._index[inverse(g)]]}
    dist = _class_distances(G, s_labels)
    gens = tuple(sorted(s for c in s_labels for s in classes[c]))
    return FiniteGroup(G.degree, _union_of_classes(G, lambda k: dist[k] >= 0),
                       gens)


@dataclass(frozen=True)
class SymmetricSet:
    """A generating set closed under inversion and ambient conjugation.

    Conjugation invariance is what the class-level engines rely on: a
    SymmetricSet built directly, not through ``checked``, must be a union of
    conjugacy classes of the group it is used in.
    """

    members: tuple[Perm, ...]

    @staticmethod
    def checked(G: FiniteGroup, members) -> "SymmetricSet":
        """Validate members; invariance under conjugation by the generators
        of G is invariance under all of G."""
        mems = tuple(sorted({tuple(m) for m in members}))
        for s in mems:
            G.require_member(s)
        mset = set(mems)
        for s in mems:
            if inverse(s) not in mset:
                raise NotSymmetric(f"inverse of {s} missing from the set")
        for h in G.generators:
            for s in mems:
                if conjugate(h, s) not in mset:
                    raise NotConjInvariant(f"{h} conjugates {s} out of the set")
        return SymmetricSet(mems)


@dataclass(frozen=True)
class NormTable:
    """Map element -> word-norm value (non-negative int, or inf)."""

    group: FiniteGroup
    values: dict

    def __getitem__(self, g: Perm):
        self.group.require_member(g)
        return self.values[g]

    def check_axioms(self) -> None:
        """Exhaustive check of the four norm axioms; raises on violation."""
        G = self.group
        v = self.values
        assert v[G.identity] == 0
        for g in G.elements:
            if g != G.identity:
                assert v[g] > 0, f"norm vanishes off identity at {g}"
            assert v[g] == v[inverse(g)], f"asymmetric at {g}"
        for g in G.elements:
            for h in G.elements:
                assert v[compose(g, h)] <= v[g] + v[h], f"triangle fails at {g},{h}"
                assert v[conjugate(h, g)] == v[g], f"not conjugation-invariant at {g}"

    def to_json(self) -> dict:
        out = {}
        for g in self.group.elements:
            val = self.values[g]
            out[cycle_str(g)] = "inf" if val == INF else int(val)
        return out


def word_norm(G: FiniteGroup, S: SymmetricSet | tuple | list | set) -> NormTable:
    """BFS word length over S; inf outside the subgroup generated by S.

    S is conjugation invariant (see SymmetricSet), so the norm is a class
    function and the BFS runs over conjugacy classes: a class K gets
    distance d+1 when it is unvisited and k*s has distance d for some k in
    K and s in S.
    """
    if not isinstance(S, SymmetricSet):
        S = SymmetricSet.checked(G, S)
    labels, _ = G._class_table()
    identity = labels[G._index[G.identity]]
    s_labels = {labels[G._index[s]] for s in S.members} - {identity}
    dist = _class_distances(G, s_labels)
    values = {
        g: (INF if dist[k] < 0 else dist[k]) for g, k in zip(G.elements, labels)
    }
    return NormTable(group=G, values=values)


def commutator_set(G: FiniteGroup) -> tuple[Perm, ...]:
    """All commutators [a, b] = a b a^-1 b^-1, sorted.

    For fixed a, {[a, b] : b in G} = a * class(a^-1), and h [a, b] h^-1 =
    [h a h^-1, h b h^-1], so the set is the union of the classes of r*c for
    r a class representative and c in class(r^-1): |G| products in all.
    """
    labels, classes = G._class_table()
    index = G._index
    hit = set()
    for cls in classes:
        r_at = cls[0].__getitem__
        for c in classes[labels[index[inverse(cls[0])]]]:
            hit.add(labels[index[tuple(map(r_at, c))]])
    return _union_of_classes(G, hit.__contains__)


def commutator_length(G: FiniteGroup) -> NormTable:
    """Word norm over the set of all commutators; inf outside [G, G]."""
    return word_norm(G, SymmetricSet(commutator_set(G)))


def zeta_norm(G: FiniteGroup, g: Perm) -> NormTable:
    """Word norm over the conjugacy classes of g and g^-1."""
    G.require_member(g)
    if g == G.identity:
        raise IdentityGenerator("zeta norm requires a non-identity element")
    s = set(conjugacy_class(G, g)) | set(conjugacy_class(G, inverse(g)))
    return word_norm(G, SymmetricSet(tuple(sorted(s))))


def quotient_norm(q: NormTable, S, f: Perm):
    """min over a in S of q(f a^-1)."""
    members = tuple(S.members) if isinstance(S, SymmetricSet) else tuple(S)
    if not members:
        raise EmptySubset("quotient norm needs a non-empty subset")
    G = q.group
    G.require_member(f)
    for a in members:
        G.require_member(tuple(a))
    return min(q.values[compose(f, inverse(tuple(a)))] for a in members)


def weakly_simple_set(G: FiniteGroup):
    """S_G = union of all proper normal subgroups, plus a classification.

    Returns (elements of S_G sorted, classification) with classification one
    of 'simple', 'weakly simple', 'not weakly simple'.
    """
    if G.order <= 1:
        raise TrivialGroup("classification undefined for the trivial group")
    # One normal-closure computation per conjugacy class.
    remaining = set(G.elements)
    s_g: set[Perm] = set()
    while remaining:
        g = min(remaining)
        cls = set(conjugacy_class(G, g))
        remaining -= cls
        if g == G.identity:
            s_g.add(g)
            continue
        if normal_closure(G, g).order < G.order:
            s_g |= cls
    if s_g == {G.identity}:
        classification = "simple"
    elif len(s_g) < G.order:
        classification = "weakly simple"
    else:
        classification = "not weakly simple"
    return tuple(sorted(s_g)), classification


def quotient_group(G: FiniteGroup, N: FiniteGroup):
    """Quotient G/N realized by the left-multiplication action on cosets.

    N must be normal in G, which is checked under conjugation by G's
    generators.  Returns (Q, proj) where Q is a permutation group on the
    coset indices and proj maps each element of G to its image in Q.
    """
    for n in N.elements:
        G.require_member(n)
        for g in G.generators:
            if conjugate(g, n) not in N:
                raise ValidationError("subgroup is not normal")
    # Enumerate cosets deterministically, keyed by their minimal element.
    coset_of: dict[Perm, int] = {}
    reps: list[Perm] = []
    for g in G.elements:  # already sorted: reps are coset minima
        if g in coset_of:
            continue
        idx = len(reps)
        reps.append(g)
        for n in N.elements:
            coset_of[compose(g, n)] = idx
    d = len(reps)
    proj = {
        g: tuple(coset_of[compose(g, reps[i])] for i in range(d))
        for g in G.elements
    }
    Q = generate_group(sorted(set(proj.values())))
    return Q, proj
