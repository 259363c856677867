import random

import pytest

import rotnorm
from rotnorm import groups as g
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

from oracles import (
    oracle_commutator_set,
    oracle_conjugacy_class,
    oracle_word_lengths,
    s4_mod_v4_to_s3,
)


def S3():
    return g.generate_group([(1, 0, 2), (1, 2, 0)])


def S4():
    return g.generate_group([(1, 0, 2, 3), (1, 2, 3, 0)])


def A4():
    return g.generate_group([(1, 2, 0, 3), (0, 2, 3, 1)])


def V4():
    return g.generate_group([(1, 0, 3, 2), (2, 3, 0, 1)])


def A5():
    return g.generate_group([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])


def Z4():
    return g.generate_group([(1, 2, 3, 0)])


class TestGenerateGroup:
    def test_s3(self):
        assert S3().order == 6

    def test_trivial(self):
        G = g.generate_group([(0, 1, 2)])
        assert G.order == 1

    def test_a5(self):
        assert A5().order == 60

    def test_closure_cap(self, monkeypatch):
        monkeypatch.setattr(g, "CLOSURE_CAP", 10)
        with pytest.raises(ClosureTooLarge):
            A5()

    def test_canonical_order(self):
        G = S3()
        assert list(G.elements) == sorted(G.elements)

    def test_kernel_backend(self):
        assert rotnorm.BACKEND == "pure"


class TestConjugacyClass:
    def test_transpositions(self):
        cls = g.conjugacy_class(S3(), (1, 0, 2))
        assert set(cls) == {(1, 0, 2), (2, 1, 0), (0, 2, 1)}

    def test_identity(self):
        G = S3()
        assert g.conjugacy_class(G, G.identity) == (G.identity,)

    def test_a5_three_cycles(self):
        cls = g.conjugacy_class(A5(), (1, 2, 0, 3, 4))
        assert len(cls) == 20

    def test_not_member(self):
        with pytest.raises(NotAMember):
            g.conjugacy_class(A5(), (1, 0, 2, 3, 4))


class TestNormalClosure:
    def test_three_cycle_gives_a3(self):
        assert g.normal_closure(S3(), (1, 2, 0)).order == 3

    def test_transposition_gives_s3(self):
        assert g.normal_closure(S3(), (1, 0, 2)).order == 6

    def test_identity(self):
        G = S3()
        assert g.normal_closure(G, G.identity).order == 1


class TestWordNorm:
    def test_transposition_norm(self):
        G = S3()
        q = g.word_norm(G, g.conjugacy_class(G, (1, 0, 2)))
        assert q[(1, 2, 0)] == 2
        assert q[(1, 0, 2)] == 1
        assert q[G.identity] == 0

    def test_whole_group_set(self):
        G = S3()
        s = tuple(e for e in G.elements if e != G.identity)
        q = g.word_norm(G, s)
        assert all(q[e] == 1 for e in s)

    def test_three_cycles_only(self):
        G = S3()
        q = g.word_norm(G, ((1, 2, 0), (2, 0, 1)))
        assert q[(1, 0, 2)] == INF

    def test_not_symmetric(self):
        G = Z4()
        with pytest.raises(NotSymmetric):
            g.word_norm(G, ((1, 2, 3, 0),))

    def test_not_conj_invariant(self):
        G = S3()
        with pytest.raises(NotConjInvariant):
            g.word_norm(G, ((1, 0, 2), (2, 1, 0)))

    @pytest.mark.parametrize("gens", [
        [(1, 0, 2), (1, 2, 0)],
        [(1, 2, 0), (1, 0, 2)],
    ], ids=["transposition-first", "three-cycle-first"])
    def test_invariant_under_one_generator_only(self, gens):
        # {(0 1)} is fixed by conjugation with (0 1), moved by the 3-cycle.
        G = g.generate_group(gens)
        with pytest.raises(NotConjInvariant):
            g.SymmetricSet.checked(G, [(1, 0, 2)])

    def test_matches_bfs_oracle(self):
        G = S4()
        s = g.commutator_set(G)
        q = g.word_norm(G, s)
        oracle = oracle_word_lengths(
            G.elements, [x for x in s if x != G.identity],
            g.compose, G.identity)
        for e in G.elements:
            expected = oracle[e] if oracle[e] is not None else INF
            assert q[e] == expected


class TestCommutatorLength:
    def test_a5_all_one(self):
        G = A5()
        cl = g.commutator_length(G)
        assert all(cl[e] == 1 for e in G.elements if e != G.identity)

    def test_s3(self):
        cl = g.commutator_length(S3())
        assert cl[(1, 2, 0)] == 1
        assert cl[(1, 0, 2)] == INF

    def test_abelian(self):
        G = Z4()
        cl = g.commutator_length(G)
        assert all(cl[e] == INF for e in G.elements if e != G.identity)


class TestZetaNorm:
    def test_transposition_generator(self):
        G = S3()
        z = g.zeta_norm(G, (1, 0, 2))
        assert z[(1, 2, 0)] == 2
        assert z[(1, 0, 2)] == 1

    def test_three_cycle_generator(self):
        z = g.zeta_norm(S3(), (1, 2, 0))
        assert z[(1, 0, 2)] == INF

    def test_identity_rejected(self):
        G = S3()
        with pytest.raises(IdentityGenerator):
            g.zeta_norm(G, G.identity)


class TestQuotientNorm:
    def test_transposition_mod_v4(self):
        cl = g.commutator_length(S4())
        assert g.quotient_norm(cl, V4().elements, (1, 0, 2, 3)) == INF

    def test_member_of_subset(self):
        cl = g.commutator_length(S4())
        for a in V4().elements:
            assert g.quotient_norm(cl, V4().elements, a) == 0

    def test_three_cycle_mod_v4(self):
        cl = g.commutator_length(S4())
        assert g.quotient_norm(cl, V4().elements, (1, 2, 0, 3)) == 1

    def test_empty_subset(self):
        cl = g.commutator_length(S3())
        with pytest.raises(EmptySubset):
            g.quotient_norm(cl, (), (1, 0, 2))


class TestWeaklySimpleSet:
    def test_s3(self):
        s, label = g.weakly_simple_set(S3())
        assert set(s) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        assert label == "weakly simple"

    def test_a5_simple(self):
        s, label = g.weakly_simple_set(A5())
        assert s == (A5().identity,)
        assert label == "simple"

    def test_z4(self):
        s, label = g.weakly_simple_set(Z4())
        assert set(s) == {(0, 1, 2, 3), (2, 3, 0, 1)}
        assert label == "weakly simple"

    def test_trivial_group(self):
        with pytest.raises(TrivialGroup):
            g.weakly_simple_set(g.generate_group([(0, 1)]))


class TestNormAxioms:
    @pytest.mark.parametrize("make", [S3, S4], ids=["S3", "S4"])
    def test_cl_axioms(self, make):
        g.commutator_length(make()).check_axioms()

    @pytest.mark.parametrize("make", [S3, S4], ids=["S3", "S4"])
    def test_zeta_axioms(self, make):
        G = make()
        g.zeta_norm(G, G.elements[1]).check_axioms()


def _random_invariant_subsets(G, rng, count):
    """Random symmetric conjugation-invariant subsets: unions of classes."""
    reps = sorted({min(g.conjugacy_class(G, e)) for e in G.elements
                   if e != G.identity})
    out = []
    while len(out) < count:
        chosen = [r for r in reps if rng.random() < 0.6]
        if not chosen:
            continue
        s = set()
        for r in chosen:
            s |= set(g.conjugacy_class(G, r))
            s |= set(g.conjugacy_class(G, g.inverse(r)))
        out.append(tuple(sorted(s)))
    return out


class TestMonotonicity:
    def test_subset_monotone(self):
        rng = random.Random(7)
        for G in (S3(), S4()):
            for s in _random_invariant_subsets(G, rng, 5):
                for s_prime in _random_invariant_subsets(G, rng, 3):
                    if not set(s_prime) <= set(s):
                        continue
                    q_big = g.word_norm(G, s)
                    q_small = g.word_norm(G, s_prime)
                    for e in G.elements:
                        assert q_big.values[e] <= q_small.values[e]

    def test_power_bound(self):
        # s_prime inside the union of products of at most j elements of s
        # implies q_s <= j * q_s_prime.
        rng = random.Random(11)
        for G in (S3(), S4()):
            for s in _random_invariant_subsets(G, rng, 4):
                for s_prime in _random_invariant_subsets(G, rng, 4):
                    q_s = g.word_norm(G, s)
                    q_sp = g.word_norm(G, s_prime)
                    # smallest j with s_prime inside union_{i<=j} s^i is the
                    # max word length of s_prime elements over s
                    lengths = [q_s.values[e] for e in s_prime]
                    if any(l == INF for l in lengths):
                        continue
                    j = max(lengths)
                    for e in G.elements:
                        assert q_sp.values[e] == INF or (
                            q_sp.values[e] * 0 == 0
                            and q_s.values[e] <= j * q_sp.values[e]
                        )


class TestQuotientNormLaws:
    @pytest.mark.parametrize("make", [S3, S4], ids=["S3", "S4"])
    def test_laws(self, make):
        G = make()
        q = g.commutator_length(G)
        s = tuple(g.normal_closure(G, G.elements[1]).elements)
        sup_s = max(q.values[a] for a in s)
        for f in G.elements:
            qf = g.quotient_norm(q, s, f)
            if G.identity in s:
                assert qf <= q.values[f]
            if sup_s != INF:
                assert q.values[f] <= qf + sup_s
            for h in G.elements:
                assert g.quotient_norm(q, s, g.compose(h, f)) <= (
                    q.values[h] + qf
                )


class TestQuotientGroup:
    @pytest.mark.parametrize("gens", [
        [(1, 0, 2), (1, 2, 0)],
        [(1, 2, 0), (1, 0, 2)],
    ], ids=["transposition-first", "three-cycle-first"])
    def test_not_normal(self, gens):
        # <(0 1)> is invariant under conjugation by (0 1) only.
        G = g.generate_group(gens)
        N = g.generate_group([(1, 0, 2)])
        with pytest.raises(ValidationError, match="subgroup is not normal"):
            g.quotient_group(G, N)

    def test_normal(self):
        Q, proj = g.quotient_group(S3(), g.normal_closure(S3(), (1, 2, 0)))
        assert Q.order == 2
        assert proj[(1, 0, 2)] != proj[(1, 2, 0)]


class TestFactorizationLaw:
    @pytest.mark.parametrize("ambient", [S4, A4], ids=["S4", "A4"])
    def test_cl_mod_n_equals_cl_of_quotient(self, ambient):
        G = ambient()
        N = V4()
        Q, proj = g.quotient_group(G, N)
        cl_G = g.commutator_length(G)
        cl_Q = g.commutator_length(Q)
        for x in G.elements:
            assert g.quotient_norm(cl_G, N.elements, x) == cl_Q.values[proj[x]]

    def test_s4_mod_v4_is_s3_via_partition_action(self):
        # Explicit isomorphism fixture: S4/V4 = S3 by permuting the three
        # pair partitions of {0,1,2,3}.
        G = S4()
        S3_group = S3()
        cl_G = g.commutator_length(G)
        cl_S3 = g.commutator_length(S3_group)
        images = {s4_mod_v4_to_s3(x) for x in G.elements}
        assert images == set(S3_group.elements)
        for x in G.elements:
            assert g.quotient_norm(cl_G, V4().elements, x) == (
                cl_S3.values[s4_mod_v4_to_s3(x)]
            )


class TestMasterNormRule:
    @pytest.mark.parametrize("make", [S3, S4, A5], ids=["S3", "S4", "A5"])
    def test_zeta_bound_controls_cl(self, make):
        G = make()
        cl = g.commutator_length(G)
        for gen in G.elements:
            if gen == G.identity:
                continue
            zeta = g.zeta_norm(G, gen)
            k = max(zeta.values.values())
            if k == INF:
                continue
            for e in G.elements:
                assert cl.values[e] <= k * cl.values[gen]


def _shuffled(rng, points):
    p = list(points)
    rng.shuffle(p)
    return p


def _power(a, k):
    out = tuple(range(len(a)))
    for _ in range(k):
        out = g.compose(a, out)
    return out


def _seeded_pair(rng, kind):
    """A generator pair of degree <= 6 of the given kind, seeded."""
    d = rng.randint(3, 6)
    if kind == "free":
        return [tuple(_shuffled(rng, range(d))) for _ in range(2)]
    if kind == "abelian":  # a and a power of a, or two disjoint supports
        a = tuple(_shuffled(rng, range(d)))
        if rng.random() < 0.5:
            return [a, _power(a, rng.randint(0, 5))]
        cut = rng.randint(2, d - 1)
        return [tuple(_shuffled(rng, range(cut))) + tuple(range(cut, d)),
                tuple(range(cut)) + tuple(_shuffled(rng, range(cut, d)))]
    if kind == "intransitive":  # both preserve the blocks [0, cut), [cut, d)
        cut = rng.randint(1, d - 1)
        return [tuple(_shuffled(rng, range(cut)) + _shuffled(rng, range(cut, d)))
                for _ in range(2)]
    # order 2: one non-trivial involution, paired with itself or the identity
    points = _shuffled(rng, range(d))
    t = list(range(d))
    for i in range(0, 2 * rng.randint(1, d // 2), 2):
        t[points[i]], t[points[i + 1]] = points[i + 1], points[i]
    return [tuple(t), rng.choice([tuple(t), tuple(range(d))])]


# kind -> least order kept, so that each kind holds non-trivial examples
KINDS = {"free": 2, "abelian": 3, "intransitive": 6, "order-2": 2}


def _seeded_groups(seed, per_kind, max_order=120):
    """Seeded groups of every kind, each of order <= max_order so that the
    O(|G|^2) oracles stay cheap."""
    rng = random.Random(seed)
    out = []
    for kind, least in KINDS.items():
        count = 0
        while count < per_kind:
            G = g.generate_group(_seeded_pair(rng, kind))
            if least <= G.order <= max_order:
                out.append((kind, G))
                count += 1
    return out


GROUPS = _seeded_groups(20260, 6)


def _oracle_norm(G, s):
    lengths = oracle_word_lengths(
        G.elements, [x for x in s if x != G.identity], g.compose, G.identity)
    return {x: INF if v is None else v for x, v in lengths.items()}


def _oracle_classes(G):
    """The oracle class of every element, each class computed once."""
    classes = {}
    for x in G.elements:
        if x not in classes:
            cls = oracle_conjugacy_class(G.elements, x)
            classes.update((y, cls) for y in cls)
    return classes


class TestClassEngineOracle:
    """The class-level engines against element-level oracles."""

    def test_kinds_present(self):
        abelian = intransitive = order_2 = False
        for _, G in GROUPS:
            abelian |= all(g.compose(a, b) == g.compose(b, a)
                           for a in G.elements for b in G.elements)
            intransitive |= len({x[0] for x in G.elements}) < G.degree
            order_2 |= G.order == 2
        assert abelian and intransitive and order_2

    @pytest.mark.parametrize("kind,G", GROUPS)
    def test_conjugacy_class(self, kind, G):
        for x in G.elements:
            assert g.conjugacy_class(G, x) == oracle_conjugacy_class(G.elements, x)

    @pytest.mark.parametrize("kind,G", GROUPS)
    def test_commutator_set_and_length(self, kind, G):
        s = oracle_commutator_set(G.elements)
        assert g.commutator_set(G) == s
        assert g.commutator_length(G).values == _oracle_norm(G, s)

    @pytest.mark.parametrize("kind,G", GROUPS)
    def test_normal_closure_and_zeta(self, kind, G):
        classes = _oracle_classes(G)
        for x in G.elements:
            if x == G.identity:
                continue
            s = tuple(sorted(set(classes[x]) | set(classes[g.inverse(x)])))
            norm = _oracle_norm(G, s)
            N = g.normal_closure(G, x)
            assert N.elements == tuple(y for y in G.elements if norm[y] != INF)
            assert N.generators == s
            if x == min(classes[x]):
                assert g.zeta_norm(G, x).values == norm
