"""Acceptance gate.

Eight criteria, one test each, each printing a single PASS/FAIL line.  The
final test asserts the cumulative budget of the preceding seven stayed under
two minutes; it first times any of them that did not run before it.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from rotnorm import circle, groups
from rotnorm._rat import Q
from rotnorm.catalog import check_fixture, load_fixture
from rotnorm.coset import AffineCoset, theta
from rotnorm.lattice import normalize, quotient_info
from rotnorm.bounds import (
    ManifoldContext,
    diameter_ledger,
    lower_cl,
    relation_close,
    upper_clb_modG,
)

from oracles import oracle_theta, oracle_theta_cost, s4_mod_v4_to_s3

_DURATIONS = {}


def _report(name, ok, budget, elapsed):
    _DURATIONS[name] = elapsed
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {elapsed:.2f}s (budget {budget}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_catalog_reference_family():
    t0 = time.monotonic()
    ok = True
    expectations = {
        "hopf-1": (1, [[1]], "Bounded"),
        "hopf-2": (2, [[1, 0], [0, 1]], "Bounded"),
        "hopf-3": (1, [[1, 1, 1]], "Unbounded"),
    }
    for name, (rank, basis, status) in expectations.items():
        report = check_fixture(name)
        ok &= report["ok"]
        fx = load_fixture(name)
        ok &= fx.lattice.rank == rank
        ok &= [list(r) for r in fx.lattice.hnf_basis] == basis
        ok &= fx.expected["verdict"] == status
    _report("criterion 1: reference link family catalog", ok, 1.0,
            time.monotonic() - t0)


def test_criterion_2_cvp_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260823)
    mismatches = 0
    checked = 0
    while checked < 1000:
        m = rng.randint(1, 4)
        gens = [
            [rng.randint(-6, 6) for _ in range(m)]
            for _ in range(rng.randint(0, m + 1))
        ]
        A = normalize(gens, ambient_dim=m)
        offset = [
            Q(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(m)
        ]
        frac_offset = [
            Fraction(int(Q(o).numerator), int(Q(o).denominator))
            for o in offset
        ]
        # seeded rejection: skip instances whose brute-force box is too big
        # for the independent oracle to finish inside the time budget
        if oracle_theta_cost(
            [list(r) for r in A.hnf_basis], list(A.pivots), frac_offset
        ) > 60_000:
            continue
        checked += 1
        got = theta(AffineCoset.build(A, offset)).theta
        want, _ = oracle_theta(
            [list(r) for r in A.hnf_basis], list(A.pivots), frac_offset
        )
        if Fraction(int(got.numerator), int(got.denominator)) != want:
            mismatches += 1
    _report("criterion 2: 1000-instance nearest-point oracle equivalence",
            mismatches == 0, 30.0, time.monotonic() - t0)


def test_criterion_3_defect_inequalities_100k():
    t0 = time.monotonic()
    report = circle.defect_experiment(seed=20260823, trials=100_000)
    ok = report["violations"] == 0
    for name, lim in report["limits"].items():
        ok &= report["max_observed"][name] < lim
    _report("criterion 3: 100000-trial strict defect inequality suite", ok,
            60.0, time.monotonic() - t0)


def test_criterion_4_based_loop_homomorphism():
    t0 = time.monotonic()
    rng = random.Random(4)
    violations = 0
    for _ in range(1000):
        F = circle.refine(circle.random_based_loop(rng), Q(1, 8))
        G = circle.refine(circle.random_based_loop(rng), Q(1, 8))
        p = Q(rng.randint(0, 63), 64)
        mf, mg = circle.mu(F, p), circle.mu(G, p)
        total = circle.mu(circle.compose(F, G), p)
        if total != mf + mg:
            violations += 1
        if Q(mf).denominator != 1 or Q(mg).denominator != 1:
            violations += 1
    _report("criterion 4: loop rotation numbers add and are integers",
            violations == 0, 30.0, time.monotonic() - t0)


def test_criterion_5_finite_group_oracle():
    t0 = time.monotonic()
    ok = True
    S3 = groups.generate_group([(1, 0, 2), (1, 2, 0)])
    S4 = groups.generate_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    A5 = groups.generate_group([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    V4 = groups.generate_group([(1, 0, 3, 2), (2, 3, 0, 1)])
    # commutator length is identically 1 away from the identity on A5
    cl_A5 = groups.commutator_length(A5)
    ok &= all(cl_A5[e] == 1 for e in A5.elements if e != A5.identity)
    # minimal weakly-simple sets
    s_s3, label_s3 = groups.weakly_simple_set(S3)
    ok &= set(s_s3) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}  # A3
    s_a5, label_a5 = groups.weakly_simple_set(A5)
    ok &= s_a5 == (A5.identity,) and label_a5 == "simple"
    # norm axioms, exhaustively
    for G in (S3, S4, A5):
        try:
            groups.commutator_length(G).check_axioms()
        except Exception:
            ok = False
    # quotient law: cl on S4 modulo V4 equals cl on S3 for all 24 elements
    cl_S4 = groups.commutator_length(S4)
    cl_S3 = groups.commutator_length(S3)
    for x in S4.elements:
        lhs = groups.quotient_norm(cl_S4, V4.elements, x)
        ok &= lhs == cl_S3.values[s4_mod_v4_to_s3(x)]
    _report("criterion 5: finite permutation-group norm oracle", ok, 20.0,
            time.monotonic() - t0)


def test_criterion_6_formula_battery():
    t0 = time.monotonic()
    ok = True
    # k_hat sequence
    got = [quotient_info(normalize([(k,)])).k_hat for k in range(1, 7)]
    ok &= got == [3, 5, 5, 7, 7, 9]
    # lower bound never crosses the upper bound on a theta grid
    for i in range(0, 101):
        th = Q(i, 10)
        ok &= lower_cl(th, 1, 3) <= upper_clb_modG(th)
    # worked ledger: n = 3, m = 1, k = 1
    ctx = ManifoldContext(n=3, m=1)
    led = relation_close(diameter_ledger(ctx, quotient_info(normalize([(1,)]))))
    ok &= led.get("cld").upper == 7
    ok &= led.get("clbd").upper == 13
    ok &= led.get("cld").lower == Q(3, 8)
    _report("criterion 6: closed-form bound battery", ok, 1.0,
            time.monotonic() - t0)


def test_criterion_7_cli_determinism(tmp_path):
    t0 = time.monotonic()
    lat = tmp_path / "A.json"
    lat.write_text(json.dumps({"m": 2, "generators": [[2, 0], [4, 3]]}))
    ctx = tmp_path / "ctx.json"
    ctx.write_text(json.dumps({"n": 3, "m": 2}))
    suite = [
        ["lattice", "--in", str(lat)],
        ["coset", "--lattice", str(lat), "--offset", "6/5,1/2"],
        ["defect", "--trials", "200", "--seed", "11"],
        ["bounds", "--theta", "3/2", "--context", str(ctx),
         "--lattice", str(lat)],
        ["verdict", "--context", str(ctx), "--lattice", str(lat)],
        ["catalog", "list"],
        ["catalog", "check", "hopf-2"],
    ]
    ok = True
    for args in suite:
        outs = []
        for _ in range(2):
            r = subprocess.run(
                [sys.executable, "-m", "rotnorm.cli", *args],
                capture_output=True, env=dict(os.environ),
            )
            ok &= r.returncode == 0
            outs.append(r.stdout)
        ok &= outs[0] == outs[1]
        ok &= bool(json.loads(outs[0]))
    _report("criterion 7: byte-identical CLI reruns", ok, 30.0,
            time.monotonic() - t0)


def test_criterion_8_total_budget(tmp_path):
    # Run alone or under -k, criteria 1-7 have not all reported; time the
    # missing ones here.  A full run in order re-runs none of them.
    criteria = (
        test_criterion_1_catalog_reference_family,
        test_criterion_2_cvp_oracle_equivalence,
        test_criterion_3_defect_inequalities_100k,
        test_criterion_4_based_loop_homomorphism,
        test_criterion_5_finite_group_oracle,
        test_criterion_6_formula_battery,
        lambda: test_criterion_7_cli_determinism(tmp_path),
    )
    failed = []
    for number, criterion in enumerate(criteria, 1):
        if not any(name.startswith(f"criterion {number}:") for name in _DURATIONS):
            try:
                criterion()
            except AssertionError:
                failed.append(number)
    total = sum(_DURATIONS.values())
    _report("criterion 8: acceptance suite total runtime",
            len(_DURATIONS) == 7 and not failed, 120.0, total)
