import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import rotnorm
from rotnorm import _kernels
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
    oracle_closure_bytes,
    oracle_commutator_set,
    oracle_conjugacy_class,
    oracle_cycle_str,
    oracle_invariant_set,
    oracle_word_lengths,
    quotient_group,
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

    def test_images_must_be_integers(self):
        for images in ([1.7, 0, 2], [1, 0, "x"], [1, True, 0], "10", 3):
            with pytest.raises(ValidationError, match="list of integers"):
                g.validate_perm(images)

    def test_image_past_the_int_conversion_cap(self):
        # repr of a 5,001-digit int raises ValueError; the message names
        # the value by its type instead
        with pytest.raises(ValidationError, match="too large to print") as err:
            g.validate_perm([10 ** 5000, 0])
        assert len(str(err.value)) < 100

    def test_no_generators(self):
        with pytest.raises(ValidationError, match="at least one generator"):
            g.generate_group([])

    def test_mixed_degrees(self):
        with pytest.raises(ValidationError, match="mixed degrees"):
            g.generate_group([(1, 0, 2), (1, 0)])

    def test_canonical_order(self):
        G = S3()
        assert list(G.elements) == sorted(G.elements)

    def test_kernel_backend(self):
        assert rotnorm.BACKEND == "pure"


class TestCycleStr:
    def test_every_element_of_s7(self):
        G = g.generate_group([(1, 0, *range(2, 7)), (*range(1, 7), 0)])
        assert G.order == 5040
        for x in G.elements:
            assert g.cycle_str(x) == oracle_cycle_str(x)

    def test_every_degree(self):
        rng = random.Random(23)
        for n in range(g.MAX_DEGREE + 1):
            for _ in range(50):
                x = list(range(n))
                rng.shuffle(x)
                assert g.cycle_str(tuple(x)) == oracle_cycle_str(tuple(x))
        assert g.cycle_str(()) == g.cycle_str((0, 1)) == "()"
        assert g.cycle_str((1, 0, 3, 4, 2)) == "(0 1)(2 3 4)"


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
            g.word_norm(G, [(1, 0, 2)])

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

    # Values on S3's elements in sorted order: (), (1 2), (0 1), (0 1 2),
    # (0 2 1), (0 2).  Each table breaks one axiom, and the axioms that
    # check_axioms tests before it hold.
    @pytest.mark.parametrize("values, message", [
        ((1, 1, 1, 1, 1, 1), "nonzero at the identity"),
        ((0, 1, 0, 1, 1, 1), "vanishes off identity"),
        ((0, 1, 1, 1, 2, 1), "asymmetric"),
        ((0, 1, 1, 5, 5, 1), "triangle fails"),
        ((0, 2, 1, 2, 2, 1), "not conjugation-invariant"),
    ], ids=["identity", "positivity", "symmetry", "triangle", "conjugation"])
    def test_corrupted_table_fails(self, values, message):
        G = S3()
        assert G.elements == tuple(sorted(G.elements))
        table = g.NormTable(group=G, values=dict(zip(G.elements, values)))
        with pytest.raises(AssertionError, match=message):
            table.check_axioms()

    def test_checks_under_python_O(self):
        # assert statements vanish under -O, and an all-zero table passed.
        script = (
            "from rotnorm import groups as g\n"
            "G = g.generate_group([(1, 0, 2), (1, 2, 0)])\n"
            "g.NormTable(group=G, values=dict.fromkeys(G.elements, 0))"
            ".check_axioms()\n"
        )
        env = {**os.environ, "PYTHONOPTIMIZE": "1"}
        r = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True)
        assert r.returncode == 1
        assert "AssertionError: norm vanishes off identity" in r.stderr


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
            quotient_group(G, N)

    def test_normal(self):
        Q, proj = quotient_group(S3(), g.normal_closure(S3(), (1, 2, 0)))
        assert Q.order == 2
        assert proj[(1, 0, 2)] != proj[(1, 2, 0)]


class TestFactorizationLaw:
    @pytest.mark.parametrize("ambient", [S4, A4], ids=["S4", "A4"])
    def test_cl_mod_n_equals_cl_of_quotient(self, ambient):
        G = ambient()
        N = V4()
        Q, proj = quotient_group(G, N)
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


def _cycles(degree, *cycles):
    """The permutation of range(degree) with the given disjoint cycles."""
    p = list(range(degree))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a] = b
    return tuple(p)


# Groups past the seeded ones' degree 6: S7 (5040 elements, 15 classes),
# the dihedral group D12 of the 12-gon, and an intransitive degree-12 group
# with orbits {0..4}, {5, 6, 7}, {8..11} (720 elements, 42 classes).
LARGE_GENS = {
    "S7": [_cycles(7, (0, 1)), _cycles(7, tuple(range(7)))],
    "D12": [_cycles(12, tuple(range(12))),
            tuple(-i % 12 for i in range(12))],
    "intransitive-12": [_cycles(12, (0, 1, 2, 3, 4), (5, 6, 7)),
                        _cycles(12, (0, 1), (8, 9, 10, 11))],
}


def _seeded_gen_sets(seed, per_degree=5, max_order=5000):
    """Seeded bytes generator sets of every degree 1..MAX_DEGREE, each
    closing to a group of order 2..max_order (order 1 at degree 1).  A
    generator permutes a random set of at most five points, or is one random
    permutation of all points when it is alone (a cyclic group)."""
    rng = random.Random(seed)
    out = []
    for d in range(1, g.MAX_DEGREE + 1):
        count = 0
        while count < per_degree:
            gens = []
            for _ in range(rng.randint(1, 3)):
                perm = list(range(d))
                support = rng.sample(range(d), rng.randint(1, min(d, 5)))
                for i, j in zip(support, _shuffled(rng, support)):
                    perm[i] = j
                gens.append(bytes(perm))
            if len(gens) == 1 and rng.random() < 0.5:
                gens = [bytes(_shuffled(rng, range(d)))]
            elems = oracle_closure_bytes(gens, max_order)
            if elems is not None and len(elems) >= min(d, 2):
                out.append(gens)
                count += 1
    return out


GEN_SETS = _seeded_gen_sets(20261)
ALL_GEN_SETS = GEN_SETS + [
    list(map(bytes, gens)) for gens in LARGE_GENS.values()]


class TestClosureKernel:
    """``_kernels.closure_bytes`` against the point-by-point oracle."""

    def test_degrees_covered(self):
        assert {len(gens[0]) for gens in GEN_SETS} == set(
            range(1, g.MAX_DEGREE + 1))

    @pytest.mark.parametrize("gens", ALL_GEN_SETS,
                             ids=lambda gens: f"deg{len(gens[0])}")
    def test_same_elements_in_discovery_order(self, gens):
        expect = oracle_closure_bytes(gens, 10_000)
        assert _kernels.closure_bytes(gens, 10_000) == expect
        order = len(expect)
        assert _kernels.closure_bytes(gens, order) == expect
        if order > 1:  # the identity is never counted against the cap
            assert _kernels.closure_bytes(gens, order - 1) is None

    def test_no_generators(self):
        assert _kernels.closure_bytes([], 10) == oracle_closure_bytes([], 10) == []


class TestClassEnumeration:
    """``generate_group`` enumerates G class by class: its elements and
    class table against the closure oracle and the oracle classes."""

    @pytest.mark.parametrize("gens", ALL_GEN_SETS,
                             ids=lambda gens: f"deg{len(gens[0])}")
    def test_elements_and_class_table(self, gens):
        G = g.generate_group([tuple(x) for x in gens])
        want = sorted(oracle_closure_bytes(gens, 10_000))
        assert G.elements == tuple(map(tuple, want))
        oracle = _oracle_classes(G)
        # with every element as a generator, |G|^2 conjugations unthinned
        every = g.generate_group(G.elements)
        assert every.generators == G.elements
        partitions = []
        for H in (G, every):
            class_of, classes = H._class_of, H._classes
            assert sorted(class_of) == want
            labels = [class_of[bytes(x)] for x in H.elements]
            assert [class_of[x] for cls in classes for x in cls] == [
                k for k, cls in enumerate(classes) for _ in cls]
            members = [tuple(map(tuple, sorted(cls))) for cls in classes]
            assert [members[k] for k in labels] == [oracle[x] for x in H.elements]
            assert class_of[bytes(H.identity)] == 0
            partitions.append({frozenset(cls) for cls in classes})
        assert partitions[0] == partitions[1]

    @pytest.mark.parametrize("gens", [
        gens for gens in ALL_GEN_SETS
        if len(oracle_closure_bytes(gens, 10_000)) > 1],
        ids=lambda gens: f"deg{len(gens[0])}")
    def test_cap_counts_every_element(self, gens, monkeypatch):
        order = len(oracle_closure_bytes(gens, 10_000))
        perms = [tuple(x) for x in gens]
        monkeypatch.setattr(g, "CLOSURE_CAP", order)
        assert g.generate_group(perms).order == order
        monkeypatch.setattr(g, "CLOSURE_CAP", order - 1)
        with pytest.raises(ClosureTooLarge):
            g.generate_group(perms)

    def test_s12_fails_fast_within_memory(self):
        # S12 has 479001600 elements: the cap stops the orbit walk that
        # passes it, long before the class of 12-cycles is complete.  The
        # child reports its own peak (VmHWM): on Linux its ru_maxrss starts
        # from the peak of the process that spawned it, here the test run.
        code = (
            "import resource, time\n"
            "from rotnorm import groups as g\n"
            "from rotnorm.errors import ClosureTooLarge\n"
            "def peak_kb():\n"
            "    try:\n"
            "        with open('/proc/self/status') as f:\n"
            "            for line in f:\n"
            "                if line.startswith('VmHWM:'):\n"
            "                    return int(line.split()[1])\n"
            "    except OSError:\n"
            "        pass\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "gens = [(1, 0, *range(2, 12)), (*range(1, 12), 0)]\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    g.generate_group(gens)\n"
            "except ClosureTooLarge:\n"
            "    print(time.perf_counter() - start, peak_kb())\n"
        )
        out = subprocess.run([sys.executable, "-c", code], text=True,
                             capture_output=True, check=True).stdout
        seconds, peak_kb = out.split()
        assert float(seconds) < 10
        assert int(peak_kb) <= 200 * 1024


@pytest.fixture
def walks(monkeypatch):
    """The generator list of each ``_walk`` call, in call order."""
    calls = []
    walk = g._walk

    def counted(gens, degree):
        calls.append(list(gens))
        return walk(gens, degree)

    monkeypatch.setattr(g, "_walk", counted)
    return calls


class TestThinning:
    """``generate_group`` drops each generator that lies in the group of
    those kept before it, so padding a generator set changes nothing."""

    @pytest.mark.parametrize("index", range(len(ALL_GEN_SETS)),
                             ids=lambda i: f"deg{len(ALL_GEN_SETS[i][0])}_{i}")
    def test_padded_set_gives_the_same_group(self, index, walks):
        rng = random.Random(index)
        bare = [tuple(x) for x in ALL_GEN_SETS[index]]
        G = g.generate_group(bare)
        padded = (bare + rng.choices(G.elements, k=rng.randint(0, 40))
                  + rng.choices(bare, k=rng.randint(1, 3)) + [G.identity])
        rng.shuffle(padded)
        walks.clear()
        H = g.generate_group(padded)
        assert H.generators == tuple(padded)
        assert H.elements == G.elements
        assert ({frozenset(c) for c in H._classes}
                == {frozenset(c) for c in G._classes})
        assert (g.commutator_length(H).values
                == g.commutator_length(G).values)
        if G.order > 1:
            x = rng.choice(G.elements[1:])
            assert g.zeta_norm(H, x).values == g.zeta_norm(G, x).values
        # every generator kept but the last at least doubles the order
        assert len(walks) <= math.log2(G.order) + 1
        assert max(map(len, walks)) <= math.log2(G.order) + 1

    @pytest.mark.parametrize("gens", [
        gens for gens in ALL_GEN_SETS if len(gens) == 2],
        ids=lambda gens: f"deg{len(gens[0])}")
    def test_two_generators_walk_once(self, gens, walks):
        first, last = map(tuple, gens)
        g.generate_group([first, last])
        identity = first == g.identity_perm(len(first))
        assert walks == [[last] if identity else [first, last]]

    def test_every_element_of_s8_within_budget(self, tmp_path):
        # 40,320 generators: the unthinned walk made |G|^2 conjugations and
        # took minutes; the document is the one of the two generators.
        pair = [(1, 0, *range(2, 8)), (*range(1, 8), 0)]
        every = tmp_path / "s8-all.json"
        every.write_text(json.dumps(g.generate_group(pair).elements))
        two = tmp_path / "s8.json"
        two.write_text(json.dumps(pair))
        cmd = [sys.executable, "-m", "rotnorm.cli", "group", "--in"]
        start = time.perf_counter()
        got = subprocess.run([*cmd, str(every)], capture_output=True,
                             text=True, check=True).stdout
        assert time.perf_counter() - start < 10
        want = subprocess.run([*cmd, str(two)], capture_output=True,
                              text=True, check=True).stdout
        assert got == want and '"order":40320' in want


# The answers of a tuple-keyed dict lookup: images equal to ints count as
# those ints, anything else is not a member, and an unhashable input raises.
MEMBERSHIP = [
    ((1, 0, 2), True),
    ((1, 0), False),
    ((1, 0, 2, 3), False),
    ((0, 1, 3), False),
    ((0, 1, 256), False),
    ((0, 1, 10**30), False),
    ((-1, 0, 1), False),
    ((True, False, 2), True),
    ((1.0, 0.0, 2.0), True),
    ((Fraction(1), 0, 2), True),
    ((1.5, 0, 2), False),
    ((float("nan"), 0, 1), False),
    ((float("inf"), 0, 1), False),
    (("1", "0", "2"), False),
    ((None, 0, 1), False),
    ((), False),
    ("102", False),
    (3, False),
    (None, False),
    ([1, 0, 2], TypeError),
    (([1], 0, 2), TypeError),
]


class TestMembership:
    @pytest.mark.parametrize("probe,answer", MEMBERSHIP, ids=repr)
    def test_in_and_require_member(self, probe, answer):
        G = S3()
        if answer is TypeError:
            with pytest.raises(TypeError):
                probe in G
            with pytest.raises(TypeError):
                G.require_member(probe)
        elif answer:
            assert probe in G
            got = G.require_member(probe)
            assert got == probe and all(type(i) is int for i in got)
            if all(type(i) is int for i in probe):
                assert got is probe
        else:
            assert probe not in G
            with pytest.raises(NotAMember):
                G.require_member(probe)

    def test_float_images_read_as_their_ints(self):
        # members whose images equal ints give what the int members give
        G = S4()
        floats = [tuple(map(float, x)) for x in G.elements]
        with_ints = g.word_norm(G, G.elements)
        with_floats = g.word_norm(G, floats)
        assert with_floats.values == with_ints.values
        for x, fx in zip(G.elements, floats):
            if x != G.identity:
                assert g.zeta_norm(G, fx).values == g.zeta_norm(G, x).values
            assert (g.quotient_norm(with_ints, floats[:5], fx)
                    == g.quotient_norm(with_ints, G.elements[:5], x))
            assert (g.normal_closure(G, fx).elements
                    == g.normal_closure(G, x).elements)

    @pytest.mark.parametrize("probe,answer", MEMBERSHIP, ids=repr)
    def test_norm_table_values(self, probe, answer):
        # values[g], g in values and values.get(g) answer as the dict keyed
        # by the element tuples does
        G = S3()
        values = g.zeta_norm(G, (1, 0, 2)).values
        as_dict = dict(zip(G.elements, [values[x] for x in G.elements]))
        assert sorted(as_dict.values()) == [0, 1, 1, 1, 2, 2]
        if answer is TypeError:
            for read in (values.__getitem__, values.__contains__, values.get,
                         as_dict.__getitem__, as_dict.__contains__,
                         as_dict.get):
                with pytest.raises(TypeError):
                    read(probe)
        elif answer:
            assert probe in values and probe in as_dict
            assert values[probe] == values.get(probe) == as_dict[probe]
        else:
            assert probe not in values and probe not in as_dict
            for mapping in (values, as_dict):
                with pytest.raises(KeyError):
                    mapping[probe]
                assert mapping.get(probe) is None
                assert mapping.get(probe, "absent") == "absent"


def _s(n):
    """S_n from a transposition and an n-cycle."""
    return g.generate_group([(1, 0, *range(2, n)), (*range(1, n), 0)])


class TestPackedTable:
    """A group keeps only its class walk, and its norm tables one value
    per class; tuples are built only when ``elements`` is read, and the
    whole group is sorted only when a caller reads it in element order."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_engines_read_no_element_tuples(self, n):
        G = _s(n)
        tables = [g.zeta_norm(G, (1, 0, *range(2, n))),
                  g.commutator_length(G)]
        s_g, _ = g.weakly_simple_set(G)
        assert len(s_g) == G.order // 2
        for table in tables:
            assert len(table.to_json()) == G.order
        assert G._elements is None
        assert G.elements is G.elements  # built once, then kept
        assert G.elements == tuple(sorted(G.elements))

    def test_check_axioms_reads_no_element_tuples(self):
        G = _s(5)
        g.zeta_norm(G, (1, 0, 2, 3, 4)).check_axioms()
        g.commutator_set(G)
        assert G._elements is None

    def test_s7_with_a_zeta_table_stays_small(self):
        # 1,080 KB while the group kept a tuple per element and the table
        # a dict entry per element
        tracemalloc.start()
        try:
            G = _s(7)
            table = g.zeta_norm(G, (1, 0, 2, 3, 4, 5, 6))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.group is G
        assert held < 600 * 1024

    @pytest.mark.parametrize("make", [S3, S4, A5, Z4], ids=["S3", "S4", "A5",
                                                           "Z4"])
    def test_values_read_as_the_dict_they_replace(self, make):
        G = make()
        values = g.commutator_length(G).values
        as_dict = {x: values[x] for x in G.elements}
        assert values == as_dict and as_dict == values
        assert list(values) == list(G.elements)
        assert len(values) == G.order
        assert list(values.items()) == list(as_dict.items())
        assert list(values.values()) == list(as_dict.values())
        assert values.keys() == as_dict.keys()
        assert values != {**as_dict, G.identity: 1}
        with pytest.raises(TypeError):
            values[G.identity] = 1

    def test_building_a_group_sorts_no_element_list(self, monkeypatch):
        # S7 and a zeta table: the only sorts left are of one permutation's
        # images (validate_perm) and of the generators' class labels
        lengths = []

        def recorded(iterable, **kwargs):
            out = sorted(iterable, **kwargs)
            lengths.append(len(out))
            return out

        monkeypatch.setattr(g, "sorted", recorded, raising=False)
        G = _s(7)
        g.zeta_norm(G, (1, 0, 2, 3, 4, 5, 6))
        assert lengths and max(lengths) <= max(G.degree, len(G.generators))

    def test_degree_zero(self):
        G = g.generate_group([()])
        assert G.order == 1 and G.elements == ((),)
        assert g.commutator_length(G).to_json() == {"()": 0}


@pytest.fixture
def walk_events(monkeypatch):
    """The walk's steps in call order: the size of ``class_of`` after each
    ``_orbit``, and None for each ``_class_products`` call."""
    events = []
    orbit, products = g._orbit, g._class_products

    def counted_orbit(x, conjugators, class_of, k):
        out = orbit(x, conjugators, class_of, k)
        events.append(len(class_of))
        return out

    def counted_products(K, C):
        events.append(None)
        return products(K, C)

    monkeypatch.setattr(g, "_orbit", counted_orbit)
    monkeypatch.setattr(g, "_class_products", counted_products)
    return events


class TestWalkStop:
    """The walk stops once it holds all of Sym(degree), and only then: on
    A7 and S4×S4 it forms the class products of a full walk."""

    @pytest.mark.parametrize("n", range(4, 9))
    def test_no_class_products_once_sym_n_is_whole(self, n, walk_events):
        whole = math.factorial(n)
        assert _s(n).order == whole
        assert None not in walk_events[walk_events.index(whole):]

    @pytest.mark.parametrize("gens, order, calls", [
        ([(1, 2, 0, 3, 4, 5, 6), (0, 1, 3, 4, 5, 6, 2)], 2520, 18),
        ([(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 0, 4, 5, 6, 7),
          (0, 1, 2, 3, 5, 4, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)], 576, 112),
    ], ids=["A7", "S4xS4"])
    def test_other_groups_walk_on(self, gens, order, calls, walk_events):
        assert g.generate_group(gens).order == order
        assert walk_events.count(None) == calls


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

    @pytest.mark.parametrize("name", LARGE_GENS)
    def test_conjugacy_class_past_degree_6(self, name):
        G = g.generate_group(LARGE_GENS[name])
        assert list(G.elements) == sorted(G.elements)
        classes = _oracle_classes(G)
        for x in G.elements:
            assert g.conjugacy_class(G, x) == classes[x]

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

    @pytest.mark.parametrize("kind,G", GROUPS)
    def test_weakly_simple_set(self, kind, G):
        classes = _oracle_classes(G)
        s_g = []
        for x in G.elements:
            s = set(classes[x]) | set(classes[g.inverse(x)])
            closure = _oracle_norm(G, s)
            if sum(1 for v in closure.values() if v != INF) < G.order:
                s_g.append(x)
        label = ("simple" if len(s_g) == 1 else
                 "weakly simple" if len(s_g) < G.order else "not weakly simple")
        assert g.weakly_simple_set(G) == (tuple(s_g), label)

    @pytest.mark.parametrize("kind,G", GROUPS + [
        ("S4", S4()), ("A4", A4()), ("A5", A5())])
    def test_quotient_norm_is_word_norm_of_quotient(self, kind, G):
        # Modulo a normal N, the word norm over S is the word norm of G/N
        # over the image of S.
        rng = random.Random(G.order)
        closures = {}  # G/N acts on at most MAX_DEGREE cosets
        for x in G.elements:
            N = g.normal_closure(G, x)
            if G.order <= g.MAX_DEGREE * N.order:
                closures.setdefault(N.elements, N)
        for N in rng.sample(sorted(closures.values(), key=lambda N: N.elements),
                            min(3, len(closures))):
            Q, proj = quotient_group(G, N)
            for s in _random_invariant_subsets(G, rng, 2):
                q_G = g.word_norm(G, s)
                q_Q = g.word_norm(Q, {proj[x] for x in s})
                for f in G.elements:
                    assert g.quotient_norm(q_G, N.elements, f) == q_Q[proj[f]]


def _seeded_subsets(G, rng):
    """Seeded subsets of G that word_norm must accept or refuse: a union of
    classes and their inverses' classes, that union less one member or plus
    one element, an element and its inverse, one element, and the union
    plus a permutation outside G."""
    classes = _oracle_classes(G)
    picks = rng.sample(G.elements, min(G.order, rng.randint(1, 3)))
    valid = set()
    for x in picks:
        valid |= set(classes[x]) | set(classes[g.inverse(x)])
    x, y = rng.choice(G.elements), rng.choice(sorted(valid))
    members = set(G.elements)
    shuffles = (tuple(_shuffled(rng, range(G.degree))) for _ in range(20))
    outside = next((p for p in shuffles if p not in members),
                   tuple(range(G.degree + 1)))  # one point too many
    return [sorted(valid), sorted(valid - {y}), sorted(valid | {x}),
            [x, g.inverse(x)], [x], sorted(valid | {outside})]


class TestInvariantSetCheck:
    def test_same_verdict_as_element_rule(self):
        # word_norm's class-table check against the element-level rule, on
        # every group of ALL_GEN_SETS; each verdict occurs.
        verdicts = Counter()
        for i, gens in enumerate(ALL_GEN_SETS):
            G = g.generate_group([tuple(x) for x in gens])
            rng = random.Random(i)
            for s in _seeded_subsets(G, rng):
                try:
                    want = oracle_invariant_set(G, s)
                except ValidationError as e:
                    verdicts[type(e)] += 1
                    with pytest.raises(type(e)):
                        g.word_norm(G, iter(s))
                    continue
                verdicts[None] += 1
                q = g.word_norm(G, iter(s))
                if G.order <= 120:
                    assert q.values == _oracle_norm(G, want), (i, s)
        assert set(verdicts) == {None, NotAMember, NotSymmetric,
                                 NotConjInvariant}, verdicts
