import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from rotnorm._rat import more_digits
from rotnorm.errors import ValidationError


def run_cli(args, env_extra=None, input_text=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rotnorm.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        input=input_text,
    )


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def rotation_isotopy_json(angle_num, angle_den, samples):
    times = [f"{j}/{samples - 1}" if j not in (0, samples - 1) else str(j // (samples - 1))
             for j in range(samples)]
    times[0], times[-1] = "0", "1"
    frames = []
    for j in range(samples):
        frames.append({
            "x": ["0"],
            "y": [f"{angle_num * j}/{angle_den * (samples - 1)}"],
        })
    return {"times": times, "frames": frames}


class TestGroupCommand:
    def test_summary(self, tmp_path):
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        r = run_cli(["group", "--in", path])
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["order"] == 6
        assert data["classification"] == "weakly simple"

    def test_cl_table(self, tmp_path):
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        r = run_cli(["group", "--in", path, "--norm", "cl"])
        data = json.loads(r.stdout)
        assert data["(0 1 2)"] == 1
        assert data["(0 1)"] == "inf"

    def test_zeta_requires_element(self, tmp_path):
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        r = run_cli(["group", "--in", path, "--norm", "zeta"])
        assert r.returncode == 1
        err = json.loads(r.stderr)
        assert err["error"]["kind"] == "validation"

    @pytest.mark.parametrize("norm", [["--norm", "cl"], []],
                             ids=["cl", "summary"])
    def test_element_without_zeta_rejected(self, tmp_path, norm):
        # The cl table and the summary never read --element: a bad one
        # (or any one) used to pass silently with exit 0.
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        element = "not json" if norm else "[1,0,2]"
        r = run_cli(["group", "--in", path, *norm, "--element", element])
        assert_validation_error(r)
        assert "--element" in json.loads(r.stderr)["error"]["message"]

    def test_s8_summary_and_cl(self, tmp_path):
        # S8 has 40320 elements; cl is 1 on A8 minus the identity (every
        # element of A_n, n >= 5, is a commutator) and inf off A8.
        gens = [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]
        path = write_json(tmp_path, "s8.json", gens)
        r = run_cli(["group", "--in", path])
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["classification"] == "weakly simple"
        assert data["weakly_simple_set_size"] == 20160
        t0 = time.monotonic()
        r = run_cli(["group", "--in", path, "--norm", "cl"])
        assert time.monotonic() - t0 < 30.0
        assert r.returncode == 0
        table = json.loads(r.stdout)
        assert len(table) == 40320
        for key, value in table.items():
            # a cycle of length L is L - 1 transpositions
            moved = sum(len(c.split()) - 1 for c in key.strip("()").split(")(")
                        if c)
            if key == "()":
                assert value == 0
            elif moved % 2 == 0:
                assert value == 1, key
            else:
                assert value == "inf", key

    def test_bad_file_exits_1(self):
        r = run_cli(["group", "--in", "/no/such/file.json"])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "validation"

    @pytest.mark.parametrize("doc", [[], {}], ids=["empty_list", "object"])
    def test_needs_a_non_empty_list(self, tmp_path, capsys, doc):
        from rotnorm import cli

        path = write_json(tmp_path, "g.json", doc)
        assert cli.main(["group", "--in", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert "non-empty JSON list" in error["message"]


class TestLatticeCommand:
    def test_invariants(self, tmp_path):
        path = write_json(tmp_path, "A.json",
                          {"m": 2, "generators": [[2, 0], [4, 3], [2, 3]]})
        r = run_cli(["lattice", "--in", path])
        data = json.loads(r.stdout)
        assert data["rank"] == 2
        assert data["k"] == [2, 3]
        assert data["k_max"] == 3
        assert data["k_hat"] == 5
        assert data["invariant_factors"] == [1, 6]
        assert data["extension"] is False

    def test_stdin(self, tmp_path):
        r = run_cli(["lattice", "--in", "-"],
                    input_text=json.dumps({"m": 1, "generators": [[4]]}))
        assert json.loads(r.stdout)["k_scalar"] == 4


class TestCosetCommand:
    def test_theta(self, tmp_path):
        path = write_json(tmp_path, "A.json",
                          {"m": 2, "generators": [[2, 0], [0, 3]]})
        r = run_cli(["coset", "--lattice", path, "--offset", "6/5,1/2"])
        data = json.loads(r.stdout)
        assert data["theta"] == "4/5"
        assert data["points"] == [["-4/5", "1/2"]]

    def test_scalar_points(self, tmp_path):
        path = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["coset", "--lattice", path, "--offset", "1"])
        data = json.loads(r.stdout)
        assert data["theta"] == "1"
        assert data["points"] == ["-1", "1"]

    def test_bad_offset(self, tmp_path):
        path = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["coset", "--lattice", path, "--offset", "0.5"])
        assert r.returncode == 1

    def test_text_points_of_two_coordinates(self, tmp_path, capsys):
        # each point is a list of scalars in the list of points: it is
        # written on one line
        from rotnorm import cli

        path = write_json(tmp_path, "A.json",
                          {"m": 2, "generators": [[2, 0], [0, 3]]})
        assert cli.main(["coset", "--lattice", path, "--offset", "1,1/2",
                         "--format", "text"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == "points:\n  - [-1, 1/2]\n  - [1, 1/2]\ntheta: 1\n"


class TestMuNuCommands:
    def test_mu_rotation(self, tmp_path):
        iso = rotation_isotopy_json(3, 2, 7)
        path = write_json(tmp_path, "iso.json", iso)
        r = run_cli(["mu", "--in", path, "--basepoint", "1/4"])
        assert json.loads(r.stdout) == {"mu": "3/2"}

    def test_nu_with_lattice(self, tmp_path):
        multi = {
            "components": [rotation_isotopy_json(3, 2, 7),
                           rotation_isotopy_json(1, 2, 3)],
            "basepoints": ["0", "1/4"],
        }
        mp = write_json(tmp_path, "multi.json", multi)
        ap = write_json(tmp_path, "A.json",
                        {"m": 2, "generators": [[2, 0], [0, 3]]})
        r = run_cli(["nu", "--in", mp, "--lattice", ap])
        data = json.loads(r.stdout)
        assert data["nu"] == ["3/2", "1/2"]
        assert "theta" in data

    def test_nu_lattice_of_another_dimension(self, tmp_path):
        multi = {"components": [rotation_isotopy_json(3, 2, 7),
                                rotation_isotopy_json(1, 2, 3)],
                 "basepoints": ["0", "1/4"]}
        mp = write_json(tmp_path, "multi.json", multi)
        ap = write_json(tmp_path, "A.json",
                        {"m": 3, "generators": [[2, 0, 0], [0, 3, 0]]})
        r = run_cli(["nu", "--in", mp, "--lattice", ap])
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.count("\n") == 1
        err = json.loads(r.stderr)["error"]
        assert (err["kind"], err["type"]) == ("validation", "DimensionMismatch")

    def test_nu_needs_a_basepoint_per_component(self, tmp_path, capsys):
        from rotnorm import cli

        multi = {"components": [rotation_isotopy_json(3, 2, 7),
                                rotation_isotopy_json(1, 2, 3)],
                 "basepoints": ["0"]}
        path = write_json(tmp_path, "multi.json", multi)
        assert cli.main(["nu", "--in", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert "components and basepoints must match" in error["message"]

    def test_ambiguous_isotopy_rejected(self, tmp_path):
        iso = rotation_isotopy_json(3, 2, 4)  # exactly 1/2 per step
        path = write_json(tmp_path, "iso.json", iso)
        r = run_cli(["mu", "--in", path])
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["type"] == "AmbiguousLift"


class TestDefectCommand:
    def test_small_run(self):
        r = run_cli(["defect", "--trials", "50", "--seed", "9"])
        data = json.loads(r.stdout)
        assert data["violations"] == 0
        assert data["trials"] == 50

    def test_env_seed_overrides(self):
        a = run_cli(["defect", "--trials", "30", "--seed", "1"],
                    env_extra={"ROTNORM_SEED": "2"})
        b = run_cli(["defect", "--trials", "30", "--seed", "2"])
        assert a.stdout == b.stdout

    def test_bad_env_seed(self):
        r = run_cli(["defect", "--trials", "10"],
                    env_extra={"ROTNORM_SEED": "not-a-number"})
        assert r.returncode == 1

    def test_trials_over_the_cap_exit_1(self):
        start = time.perf_counter()
        r = run_cli(["defect", "--trials", "2000000000"])
        assert time.perf_counter() - start < 30  # refused, not run
        assert r.returncode == 1
        assert r.stdout == ""
        err = json.loads(r.stderr)["error"]
        assert err["kind"] == "validation"
        assert "MAX_DEFECT_TRIALS = 1000000" in err["message"]


class TestBoundsVerdictCommands:
    def test_bounds_plain(self):
        r = run_cli(["bounds", "--theta", "5/2"])
        data = json.loads(r.stdout)
        assert data["lower_cl"] == "7/8"
        assert data["upper_clb_modG"] == 7

    def test_bounds_at_theta_zero(self, tmp_path):
        # theta = 0 holds the identity, whose cl, clb and eta are 0; the
        # ledger printed lower bounds 1/4, 1/4 and 1/8 for them.
        r = run_cli(["bounds", "--theta", "0"])
        assert json.loads(r.stdout)["lower_cl"] == "0"
        cp = write_json(tmp_path, "ctx.json", {"n": 3, "m": 2})
        ap = write_json(tmp_path, "A.json",
                        {"m": 2, "generators": [[1, 0], [0, 1]]})
        r = run_cli(["bounds", "--theta", "0", "--context", cp,
                     "--lattice", ap])
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["lower_cl"] == "0"
        led = data["ledger"]
        assert led["cl_f"]["lower"] == led["clb_f"]["lower"] == "0"
        assert led.get("eta", {"lower": "0"})["lower"] == "0"

    def test_bounds_with_ledger(self, tmp_path):
        cp = write_json(tmp_path, "ctx.json", {"n": 3, "m": 1})
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[3]]})
        r = run_cli(["bounds", "--theta", "1/2", "--context", cp,
                     "--lattice", ap])
        data = json.loads(r.stdout)
        led = data["ledger"]
        assert led["clb_modG_f"]["upper"] == "3"
        assert led["cld"]["upper"] == "9"
        assert led["cl_f"]["lower"] == "3/8"

    @pytest.mark.parametrize("n", [3, 2])
    def test_bounds_theta_above_half_k(self, tmp_path, n):
        # k = 2, so no coset has theta above 1.  At theta = 40 the ledger
        # was inconsistent for n = 3 (exit 2) and claimed cld_G >= 21/4
        # for n = 2 (exit 0).
        cp = write_json(tmp_path, "ctx.json", {"n": n, "m": 1})
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["bounds", "--theta", "40", "--context", cp,
                     "--lattice", ap])
        assert_validation_error(r)
        assert "k/2 = 1" in json.loads(r.stderr)["error"]["message"]
        r = run_cli(["bounds", "--theta", "1", "--context", cp,
                     "--lattice", ap])
        assert r.returncode == 0
        assert json.loads(r.stdout)["ledger"]["cl_f"]["lower"] == "1/2"

    def test_verdict(self, tmp_path):
        cp = write_json(tmp_path, "ctx.json", {"n": 3, "m": 2})
        ap = write_json(tmp_path, "A.json", {"m": 2, "generators": [[1, 1]]})
        r = run_cli(["verdict", "--context", cp, "--lattice", ap])
        data = json.loads(r.stdout)
        assert data["status"] == "Unbounded"

    def test_context_mismatch(self, tmp_path):
        cp = write_json(tmp_path, "ctx.json", {"n": 3, "m": 2})
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["verdict", "--context", cp, "--lattice", ap])
        assert r.returncode == 1

    def test_bounds_context_mismatch(self, tmp_path):
        cp = write_json(tmp_path, "ctx.json", {"n": 3, "m": 1})
        ap = write_json(tmp_path, "A.json",
                        {"m": 2, "generators": [[1, 0], [0, 1]]})
        assert_validation_error(run_cli(
            ["bounds", "--theta", "1/2", "--context", cp, "--lattice", ap]))

    @pytest.mark.parametrize("given, missing", [
        ("--lattice", "--context"), ("--context", "--lattice")])
    def test_bounds_lone_flag(self, tmp_path, given, missing):
        cp = write_json(tmp_path, "ctx.json", {"n": 3, "m": 1})
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        path = ap if given == "--lattice" else cp
        r = run_cli(["bounds", "--theta", "1/2", given, path])
        assert_validation_error(r)
        assert missing in json.loads(r.stderr)["error"]["message"]

    @pytest.mark.parametrize("ctx", [
        {"n": 3, "m": 1, "connected": False},
        {"n": 3, "m": 1, "regularity": "finite_r"},
    ], ids=["disconnected", "finite_r_without_P"])
    def test_unknown_verdict_certifies_no_diameter(self, tmp_path, ctx):
        cp = write_json(tmp_path, "ctx.json", ctx)
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["verdict", "--context", cp, "--lattice", ap])
        assert json.loads(r.stdout)["status"] == "Unknown"
        r = run_cli(["bounds", "--theta", "1/2", "--context", cp,
                     "--lattice", ap])
        led = json.loads(r.stdout)["ledger"]
        for name in ("cld", "clbd", "cld_G", "clbd_G"):
            assert led.get(name, {"upper": "inf"})["upper"] == "inf"

    def test_open_manifold(self, tmp_path):
        cp = write_json(tmp_path, "ctx.json",
                        {"n": 3, "m": 1, "closed_or_open": "open"})
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["verdict", "--context", cp, "--lattice", ap])
        assert json.loads(r.stdout) == {
            "status": "Unknown",
            "justification": ["rank_eq_m", "open_manifold_excluded"]}
        r = run_cli(["bounds", "--theta", "1/2", "--context", cp,
                     "--lattice", ap])
        led = json.loads(r.stdout)["ledger"]
        for name in ("cld", "clbd", "cld_G", "clbd_G"):
            assert led.get(name, {"upper": "inf"})["upper"] == "inf"


class TestCatalogCommand:
    def test_list(self):
        r = run_cli(["catalog", "list"])
        data = json.loads(r.stdout)
        assert "hopf-1" in data["fixtures"]

    def test_list_takes_no_name(self):
        r = run_cli(["catalog", "list", "hopf-1"])
        assert_validation_error(r)
        assert "hopf-1" in json.loads(r.stderr)["error"]["message"]

    def test_check_ok(self):
        r = run_cli(["catalog", "check", "hopf-1"])
        assert r.returncode == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_check_unknown(self):
        r = run_cli(["catalog", "check", "nope"])
        assert r.returncode == 1

    @pytest.mark.parametrize("name", ["../fixtures/hopf-1",
                                      "../../../BENCHMARK"],
                             ids=["fixture_path", "outside_file"])
    def test_check_path_is_unknown(self, name):
        # Names were joined onto the fixture directory: the first was
        # accepted, the second died with a KeyError traceback.
        r = run_cli(["catalog", "check", name])
        assert_validation_error(r)
        assert "unknown fixture" in r.stderr


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = write_json(tmp_path, "A.json",
                          {"m": 2, "generators": [[2, 0], [4, 3]]})
        cmds = [
            ["lattice", "--in", path],
            ["coset", "--lattice", path, "--offset", "6/5,1/2"],
            ["defect", "--trials", "40", "--seed", "3"],
            ["bounds", "--theta", "5/2"],
            ["catalog", "list"],
        ]
        for cmd in cmds:
            a = run_cli(cmd)
            b = run_cli(cmd)
            assert a.returncode == b.returncode == 0
            assert a.stdout == b.stdout

    def test_json_is_compact_and_sorted(self, tmp_path):
        path = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["lattice", "--in", path])
        out = r.stdout.strip()
        assert ": " not in out and ", " not in out
        data = json.loads(out)
        assert list(data) == sorted(data)

    def test_text_format(self, tmp_path):
        path = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["lattice", "--in", path, "--format", "text"])
        assert "k_max: 2" in r.stdout


def _text_tree(text):
    """The tree that ``--format text`` lines write, every scalar as the
    string they print."""
    lines = text.splitlines()
    pos = 0

    def block(indent):
        nonlocal pos
        tree = None
        while pos < len(lines) and lines[pos].startswith(" " * indent):
            body = lines[pos][indent:]
            assert not body.startswith(" "), lines[pos]
            pos += 1
            if body == "-" or body.startswith("- "):
                tree = [] if tree is None else tree
                item = body[2:]
                if body == "-":
                    tree.append(block(indent + 2))
                elif item.startswith("[") and item.endswith("]"):
                    tree.append(item[1:-1].split(", ") if item != "[]" else [])
                else:
                    tree.append(item)
            else:
                tree = {} if tree is None else tree
                key, _, value = body.partition(":")
                tree[key] = value[1:] if value else block(indent + 2)
        return tree

    tree = block(0)
    assert pos == len(lines)
    return tree


def _printed(obj):
    """A JSON tree with every scalar as the string the text form prints:
    as JSON spells it, a string unquoted."""
    if isinstance(obj, dict):
        return {key: _printed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_printed(value) for value in obj]
    return obj if isinstance(obj, str) else json.dumps(obj)


class TestTextFormat:
    """``--format text`` keeps the shape of the JSON it renders: reading
    its lines back gives the JSON tree."""

    @staticmethod
    def _suite(tmp_path):
        from rotnorm.catalog import list_fixtures

        lat = write_json(tmp_path, "A.json",
                         {"m": 2, "generators": [[2, 0], [4, 3]]})
        line = write_json(tmp_path, "L.json", {"m": 2, "generators": [[1, 0]]})
        ctx = write_json(tmp_path, "ctx.json", {"n": 3, "m": 2})
        return [
            ["lattice", "--in", lat],
            ["lattice", "--in", line],
            ["coset", "--lattice", lat, "--offset", "6/5,1/2"],
            ["defect", "--trials", "200", "--seed", "11"],
            ["bounds", "--theta", "3/2", "--context", ctx, "--lattice", lat],
            ["verdict", "--context", ctx, "--lattice", lat],
            ["catalog", "list"],
            *(["catalog", "check", name] for name in list_fixtures()),
        ]

    def test_text_reads_back_as_the_json_tree(self, tmp_path, capsys):
        from rotnorm import cli

        suite = self._suite(tmp_path)
        assert ["catalog", "check", "hopf-2"] in suite  # criterion 7's
        for args in suite:
            assert cli.main(args) == 0
            tree = json.loads(capsys.readouterr().out)
            assert cli.main([*args, "--format", "text"]) == 0
            assert _text_tree(capsys.readouterr().out) == _printed(tree), args

    def test_booleans_and_nulls_print_as_json_spells_them(self, tmp_path,
                                                         capsys):
        from rotnorm import cli

        assert cli.main(["catalog", "check", "hopf-2", "--format", "text"]) == 0
        assert capsys.readouterr().out.endswith("name: hopf-2\nok: true\n")
        line = write_json(tmp_path, "L.json", {"m": 2, "generators": [[1, 0]]})
        assert cli.main(["lattice", "--in", line, "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "extension: true" in lines and "k_hat: null" in lines
        assert list(cli._text_lines({"a": [False, None, "x"], "b": [[True]]},
                                    "")) == ["a:", "  - false", "  - null",
                                             "  - x", "b:", "  - [true]"]

    def test_each_nesting_depth_keeps_one_rule(self, capsys):
        from rotnorm import cli

        obj = {"a": [[["1", "2"], ["3"]], [], "4", {"b": ["5"]}], "c": []}
        lines = list(cli._text_lines(obj, ""))
        assert lines == ["a:", "  -", "    - [1, 2]", "    - [3]", "  - []",
                         "  - 4", "  -", "    b:", "      - 5", "c:"]
        assert _text_tree("\n".join(lines))["a"] == _printed(obj)["a"]


class TestClosedStdout:
    """A command whose stdout has no reader exits 1 with nothing on stderr,
    whether its output fits the stdout buffer or not."""

    @pytest.mark.parametrize("args", [
        ["catalog", "list"],
        ["coset", "--offset", "0,3000"],  # 6,001 points, about 60 kB
    ], ids=["small", "large"])
    def test_exits_1_with_empty_stderr(self, args, tmp_path):
        if args[0] == "coset":
            args = [*args, "--lattice", write_json(
                tmp_path, "L.json", {"m": 2, "generators": [[1, 0]]})]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run([sys.executable, "-m", "rotnorm.cli", *args],
                               stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (r.returncode, r.stderr) == (1, b"")


def assert_validation_error(r):
    assert r.returncode == 1
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"]["kind"] == "validation"


# Each array field of the mu and nu inputs, as a string and as an object.
_ARRAY_FIELDS = [
    ("times", "01"), ("times", {"0": 5, "1": 7}),
    ("frames", "ab"), ("frames", {"0": 1}),
    ("x", "0"), ("x", {"0": 1}),
    ("y", "0"), ("y", {"0": 1}),
    ("components", "ab"), ("components", {"0": 1}),
    ("basepoints", "0"), ("basepoints", {"1/3": True}),
]


class TestMalformedInput:
    """Malformed rationals and non-integer lattice or context fields are
    validation errors (exit 1, one JSON line on stderr), not tracebacks."""

    def test_coset_zero_denominator(self, tmp_path):
        path = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        assert_validation_error(
            run_cli(["coset", "--lattice", path, "--offset", "1/0"]))

    def test_bounds_zero_denominator(self):
        assert_validation_error(run_cli(["bounds", "--theta", "1/0"]))

    def test_mu_bad_basepoint(self, tmp_path):
        path = write_json(tmp_path, "iso.json", rotation_isotopy_json(1, 2, 3))
        assert_validation_error(
            run_cli(["mu", "--in", path, "--basepoint", "abc"]))

    def test_nu_bad_basepoint(self, tmp_path):
        multi = {"components": [rotation_isotopy_json(1, 2, 3)],
                 "basepoints": ["abc"]}
        path = write_json(tmp_path, "multi.json", multi)
        assert_validation_error(run_cli(["nu", "--in", path]))

    def test_mu_boolean_times(self, tmp_path):
        # false and true used to parse as 0 and 1, printing {"mu":"1/4"}.
        iso = {"times": [False, True],
               "frames": [{"x": [False], "y": [False]},
                          {"x": [0], "y": ["1/4"]}]}
        path = write_json(tmp_path, "iso.json", iso)
        assert_validation_error(run_cli(["mu", "--in", path]))

    def test_nu_boolean_basepoint(self, tmp_path):
        multi = {"components": [rotation_isotopy_json(1, 2, 3)],
                 "basepoints": [True]}
        path = write_json(tmp_path, "multi.json", multi)
        assert_validation_error(run_cli(["nu", "--in", path]))

    @pytest.mark.parametrize("field, value", _ARRAY_FIELDS, ids=[
        f"{field}-{type(value).__name__}" for field, value in _ARRAY_FIELDS])
    def test_array_field_of_another_type(self, tmp_path, field, value):
        # A string was read character by character and an object by its
        # keys: "times": "01" read as the times "0" and "1", printing
        # {"mu":"1/4"}.
        iso = {"times": ["0", "1"],
               "frames": [{"x": ["0"], "y": ["0"]}, {"x": ["0"], "y": ["1/4"]}]}
        multi = {"components": [iso], "basepoints": ["0"]}
        if field in iso:
            iso[field] = value
        elif field in multi:
            multi[field] = value
        else:
            iso["frames"][0][field] = value
        runs = [run_cli(["nu", "--in", write_json(tmp_path, "multi.json", multi)])]
        if field not in multi:
            runs.append(
                run_cli(["mu", "--in", write_json(tmp_path, "iso.json", iso)]))
        for r in runs:
            assert_validation_error(r)
            assert (f"{field} must be an array"
                    in json.loads(r.stderr)["error"]["message"])

    def test_lattice_non_integer_fields(self, tmp_path):
        for i, data in enumerate(({"m": 2, "generators": [[1, "a"]]},
                                  {"m": "x", "generators": []})):
            path = write_json(tmp_path, f"A{i}.json", data)
            assert_validation_error(run_cli(["lattice", "--in", path]))

    def test_verdict_non_integer_context(self, tmp_path):
        cp = write_json(tmp_path, "ctx.json", {"n": "3", "m": 1})
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        assert_validation_error(
            run_cli(["verdict", "--context", cp, "--lattice", ap]))

    @pytest.mark.parametrize("ctx", [
        {"n": 3, "m": 1, "connected": "false"},
        {"n": 3, "m": 1, "regularity": "finite_r", "assumption_P": "no"},
    ], ids=["connected", "assumption_P"])
    def test_verdict_string_flag(self, tmp_path, ctx):
        # "false" and "no" are truthy strings: both printed Bounded.
        cp = write_json(tmp_path, "ctx.json", ctx)
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        assert_validation_error(
            run_cli(["verdict", "--context", cp, "--lattice", ap]))

    def test_group_float_images(self, tmp_path):
        # int(1.7) == 1 used to build S3 from a truncated generator.
        path = write_json(tmp_path, "g.json", [[1.7, 0, 2], [1, 2, 0]])
        assert_validation_error(run_cli(["group", "--in", path]))

    def test_input_not_utf8(self, tmp_path):
        # json raises UnicodeDecodeError, a ValueError, not a JSONDecodeError
        path = tmp_path / "A.json"
        path.write_bytes(b"\xff\xfe[1]")
        assert_validation_error(run_cli(["lattice", "--in", str(path)]))

    def test_group_string_image(self, tmp_path):
        path = write_json(tmp_path, "g.json", [[1, 0, "x"]])
        assert_validation_error(run_cli(["group", "--in", path]))

    @pytest.mark.parametrize("element", ["[1,0", '"ab"'],
                             ids=["unclosed", "string"])
    def test_group_bad_element(self, tmp_path, element):
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        assert_validation_error(run_cli(
            ["group", "--in", path, "--norm", "zeta", "--element", element]))


#: An integer of 5,000 digits: past the CLI's cap ``MAX_INT_DIGITS`` and
#: the interpreter's default cap of 4,300 digits for converting a decimal
#: string to an int.
HUGE = "7" * 5000


def assert_one_error_line(r):
    """A validation error on one stderr line that does not echo HUGE."""
    assert_validation_error(r)
    assert r.stderr.count("\n") == 1
    assert "7" * 100 not in r.stderr


class TestOversizedIntegers:
    def test_lattice_entry(self, tmp_path):
        path = tmp_path / "A.json"
        path.write_text(f'{{"m": 2, "generators": [[1, {HUGE}]]}}')
        assert_one_error_line(run_cli(["lattice", "--in", str(path)]))

    def test_group_image(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(f"[[1, 0, {HUGE}]]")
        assert_one_error_line(run_cli(["group", "--in", str(path)]))

    def test_zeta_element(self, tmp_path):
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        assert_one_error_line(run_cli(["group", "--in", path, "--norm", "zeta",
                                       "--element", f"[1, 0, {HUGE}]"]))


def assert_digit_cap(r):
    """A validation error on one stderr line naming MAX_INT_DIGITS."""
    assert_validation_error(r)
    assert r.stderr.count("\n") == 1
    assert "MAX_INT_DIGITS = 1000" in r.stderr


@contextmanager
def _no_digit_cap():
    """Lift the interpreter's int <-> str digit cap in this process."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _two_frame_isotopy(x, start, end):
    """From the frame through (0, start[0]) and (x, start[1]) to the one
    through (0, end[0]) and (x, end[1])."""
    return {"times": ["0", "1"],
            "frames": [{"x": ["0", x], "y": list(start)},
                       {"x": ["0", x], "y": list(end)}]}


class TestDigitCap:
    """Each input integer has at most MAX_INT_DIGITS digits, checked at
    parse; within that cap, outputs past the interpreter's 4,300-digit
    conversion cap are written."""

    def test_lattice_with_a_determinant_past_the_conversion_cap(self, tmp_path):
        # 10^2500 - 1 and 10^2500 + 1: valid JSON integers, but the
        # determinant would have 5,000 digits
        path = tmp_path / "A.json"
        path.write_text('{"m": 2, "generators": [[%s, 0], [0, %s]]}'
                        % ("9" * 2500, "1" + "0" * 2499 + "1"))
        assert_digit_cap(run_cli(["lattice", "--in", str(path)]))

    def test_mu_past_the_conversion_cap(self, tmp_path):
        # a two-breakpoint frame with a 3,000-digit value, and a basepoint
        # with a 3,000-digit denominator
        value = "5" + "0" * 2998 + "1"  # over 10^3000: just over 1/2
        path = write_json(tmp_path, "iso.json", _two_frame_isotopy(
            "1/2", ("0", "1/2"), ("0", f"{value}/1{'0' * 3000}")))
        assert_digit_cap(run_cli(["mu", "--in", path, "--basepoint",
                                  "1/" + "9" * 3000]))

    def test_each_integer_input_is_capped(self, tmp_path):
        over = "1" + "0" * 1000  # 1,001 digits
        assert_digit_cap(run_cli(["bounds", "--theta", f"1/{over}"]))
        assert_digit_cap(run_cli(["defect", "--trials", "1", "--seed", over]))
        assert_digit_cap(run_cli(["defect", "--trials", "1"],
                                 env_extra={"ROTNORM_SEED": over}))
        path = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        assert_digit_cap(run_cli(["coset", "--lattice", path, "--offset", over]))

    @pytest.mark.parametrize("args", [
        ["defect", "--trials", "1", "--seed", "1" * 5000],
        ["defect", "--trials", "1" * 2000],
    ], ids=["seed", "trials"])
    def test_integer_option_is_capped_before_int(self, args):
        # the seed used to reach argparse's int(), past Python's own
        # 4,300-digit cap: a 5,104-byte usage error; --trials had no cap
        r = run_cli(args)
        assert_digit_cap(r)
        assert len(r.stderr.encode()) <= ERROR_LINE_BYTES

    def test_outputs_within_the_cap_are_written(self, tmp_path):
        # 1,000-digit diagonal entries: an 8,000-digit determinant
        d = [10 ** 1000 - 1 - i for i in range(8)]
        path = write_json(tmp_path, "A.json", {"m": 8, "generators": [
            [v if i == j else 0 for j in range(8)] for i, v in enumerate(d)]})
        r = run_cli(["lattice", "--in", path])
        assert r.returncode == 0, r.stderr
        with _no_digit_cap():
            data = json.loads(r.stdout)
        assert data["k"] == d and data["k_max"] == d[0] and data["rank"] == 8
        det = prod = 1
        for v, f in zip(d, data["invariant_factors"]):
            det, prod = det * v, prod * f
        assert det == prod > 10 ** 7990
        # mu at a basepoint on the wrapped segment, from (x, y1) to
        # (1, y0 + 1) in each frame: 4,999 and 5,998 digits
        u = 10 ** 999
        p, x = Fraction(5 * u + 3, 9 * u + 1), Fraction(3 * u + 7, 6 * u + 15)
        start = Fraction(1, 8 * u + 3), Fraction(3 * u + 7, 6 * u + 11)
        end = Fraction(1, 7 * u + 9), Fraction(3 * u + 7, 6 * u + 13)

        def lift(y0, y1):
            return y1 + (p - x) * (y0 + 1 - y1) / (1 - x)

        path = write_json(tmp_path, "iso.json", _two_frame_isotopy(
            str(x), map(str, start), map(str, end)))
        with _no_digit_cap():
            want = str(lift(*end) - lift(*start))
        r = run_cli(["mu", "--in", path, "--basepoint", str(p)])
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == {"mu": want}
        assert max(map(len, want.split("/"))) > 4300


#: Most bytes of the one JSON error line for an input of any size: each
#: message quotes at most errors.QUOTE_BYTES bytes of each input value.
ERROR_LINE_BYTES = 400

_DIGITS = "1" + "0" * 1000  # 1,001 digits: over MAX_INT_DIGITS
_ZERO_DEN = "9" * 999 + "/0"  # within the cap, but not a rational


class TestBoundedEcho:
    """A validation message quotes a bounded prefix of each input value,
    so inputs of any size give one short JSON error line; each case used
    to echo its whole input (1 to 100 KB).  The prefix is bounded in the
    bytes the ASCII JSON line spends on it: 20,000 "é" in an offset,
    cut to 40 characters, gave a 637-byte line."""

    @pytest.mark.parametrize("case", [
        ("coset", f"1/2,{_DIGITS}", "MAX_INT_DIGITS = 1000"),
        ("coset", f"1/2,{_ZERO_DEN}", "not a rational"),
        ("coset", "é" * 20000, "not a rational"),
        ("bounds", _ZERO_DEN, "not a rational"),
        ("group", ["x"] * 20000, "a permutation is a list of integers"),
        ("lattice", {"m": 2, "generators": [[1] * 20000]}, "does not have length 2"),
        ("verdict", {"n": 3, "m": 1, "k" * 20000: 1}, "unknown context keys"),
        ("defect", "9" * 1000, "MAX_DEFECT_TRIALS = 1000000"),
    ], ids=["coset_offset_digits", "coset_offset_zero_denominator",
            "coset_offset_non_ascii", "bounds_theta_zero_denominator", "group_strings",
            "lattice_long_generator", "verdict_long_context_key",
            "defect_trials_over_the_cap"])
    def test_one_short_error_line(self, tmp_path, case):
        command, value, words = case
        lattice = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        if command == "coset":
            args = ["coset", "--lattice", lattice, "--offset", value]
        elif command == "bounds":
            args = ["bounds", "--theta", value]
        elif command == "defect":
            args = ["defect", "--trials", value]
        elif command == "verdict":
            args = ["verdict", "--context", write_json(tmp_path, "ctx.json", value),
                    "--lattice", lattice]
        else:
            args = [command, "--in", write_json(tmp_path, "in.json", [value]
                                                if command == "group" else value)]
        r = run_cli(args)
        assert_validation_error(r)
        assert r.stderr.count("\n") == 1
        assert len(r.stderr.encode()) <= ERROR_LINE_BYTES, len(r.stderr.encode())
        assert words in json.loads(r.stderr)["error"]["message"]

    def test_bad_offset_quoted_once(self, tmp_path):
        # The message quoted the whole offset, then rat's quote of the part.
        from rotnorm.errors import quoted

        value = "abcdefghijklmnopqrstuvwxyz0123456789abcdefghij"
        lattice = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["coset", "--lattice", lattice, "--offset", value])
        assert_validation_error(r)
        message = json.loads(r.stderr)["error"]["message"]
        assert message.count(quoted(value)) == 1, message
        assert "part 1" in message

    @pytest.mark.parametrize("args, words", [
        (["defect", "--trials", "x" * 20000], "argument --trials: invalid int"),
        (["c" * 20000], "argument COMMAND: invalid choice: 'ccc"),
        (["group", "--in", "g.json", "--norm", "n" * 20000],
         "argument --norm: invalid choice: 'nnn"),
        (["lattice", "--in", "A.json", "--bogus", "b" * 20000],
         "unrecognized arguments: --bogus bbb"),
        (["lattice", "--in", "A.json", *["a"] * 10000],
         "unrecognized arguments: a a a"),
        (["lattice", "--in", "x", *["é"] * 2000],
         "unrecognized arguments: é é é"),
    ], ids=["bad_int", "command", "choice", "unknown_option", "many_tokens",
            "many_non_ascii_tokens"])
    def test_one_short_usage_line(self, args, words):
        # argparse echoed each token whole: 20,089 to 20,198 bytes; cut by
        # characters, 2,000 "é" tokens still gave 902 bytes once escaped
        r = run_cli(args)
        assert_usage_error(r)
        assert r.stderr.count("\n") == 1
        assert len(r.stderr.encode()) <= ERROR_LINE_BYTES, len(r.stderr.encode())
        assert words in json.loads(r.stderr)["error"]["message"]


class TestThetaCap:
    """theta lists every attaining point; past coset.MAX_CVP_NODES search
    nodes it stops with a validation error instead of running for minutes."""

    def test_coset_fails_fast(self, tmp_path):
        for i, (gens, offset) in enumerate((([[1, 0], [0, 2000000]], "0,1000000"),
                                            ([[1, 0]], "0,300000"))):
            path = write_json(tmp_path, f"A{i}.json", {"m": 2, "generators": gens})
            start = time.perf_counter()
            r = run_cli(["coset", "--lattice", path, "--offset", offset])
            assert time.perf_counter() - start < 5
            assert_validation_error(r)
            assert "MAX_CVP_NODES" in r.stderr


def _wide_denominator_isotopy(k):
    """Two frames, each with k breakpoints i/k + 1/(k d_i) and values of
    the same form, every d_i a fresh odd 300-digit integer: each frame's
    shared denominator has about 2 * 300k digits."""
    rng = random.Random(5)

    def points():
        dens = [rng.randrange(10 ** 299, 10 ** 300) | 1 for _ in range(k)]
        return [f"{i * d + 1}/{k * d}" for i, d in enumerate(dens)]

    return {"times": ["0", "1"],
            "frames": [{"x": points(), "y": points()} for _ in range(2)]}


class TestFrameDigitCap:
    """An input frame whose shared denominator passes
    circle.MAX_FRAME_DIGITS fails before any step check runs; at k = 20 the
    instance below ran for 2.7 s, and at k = 100 for 220 s."""

    @pytest.mark.parametrize("cap", [None, 1000])
    def test_mu_fails_fast_naming_the_cap(self, tmp_path, monkeypatch,
                                          capsys, cap):
        from rotnorm import circle, cli

        if cap is not None:
            monkeypatch.setattr(circle, "MAX_FRAME_DIGITS", cap)

        def step_check(self, other):
            raise AssertionError("a step was checked")

        monkeypatch.setattr(circle.PLCircleDiffeo, "_gaps", step_check)
        path = write_json(tmp_path, "iso.json", _wide_denominator_isotopy(20))
        start = time.perf_counter()
        code = cli.main(["mu", "--in", path])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert (f"the cap circle.MAX_FRAME_DIGITS = {circle.MAX_FRAME_DIGITS}"
                in error["message"])

    def test_a_frame_at_the_cap_is_read(self, monkeypatch):
        from rotnorm import circle

        monkeypatch.setattr(circle, "MAX_FRAME_DIGITS", 5)
        assert circle.PLCircleDiffeo([Fraction(1, 99999)], [0]).den == 99999
        with pytest.raises(ValidationError, match="MAX_FRAME_DIGITS = 5"):
            circle.PLCircleDiffeo([Fraction(1, 100000)], [0])
        # derived maps keep the denominators their operations give
        f, g = (circle.PLCircleDiffeo([0, Fraction(1, d)], [0, Fraction(2, d)])
                for d in (99991, 99989))
        assert more_digits(f.compose(g).den, 5)


def _wide_time_grid_isotopy(k):
    """Identity frames at the times 0, i/k + 1/(k d_i) for 0 < i < k, and 1,
    every d_i a distinct odd 995-digit integer: the time grid's shared
    denominator has about 995k digits."""
    rng = random.Random(5)
    dens = set()
    while len(dens) < k - 1:
        dens.add(rng.randrange(10 ** 994, 10 ** 995) | 1)
    times = ["0", *(f"{i * d + 1}/{k * d}"
                    for i, d in zip(range(1, k), sorted(dens))), "1"]
    return {"times": times, "frames": [{"x": ["0"], "y": ["0"]}] * (k + 1)}


class TestTimeGridDigitCap:
    """An isotopy whose time grid's shared denominator passes
    circle.MAX_FRAME_DIGITS fails before any step check runs; without the
    cap the instance below ran for 2.5 s at k = 200 and 39 s at k = 800."""

    @pytest.mark.parametrize("command", ["mu", "nu"])
    @pytest.mark.parametrize("steps", ["checked", "failing"])
    def test_fails_fast_naming_the_cap(self, tmp_path, monkeypatch, capsys,
                                       command, steps):
        from rotnorm import circle, cli

        if steps == "failing":
            def check_step(num, den):
                raise AssertionError("a step was checked")

            monkeypatch.setattr(circle, "_check_step", check_step)
        iso = _wide_time_grid_isotopy(20)
        doc = iso if command == "mu" else {"components": [iso],
                                           "basepoints": ["0"]}
        path = write_json(tmp_path, "iso.json", doc)
        start = time.perf_counter()
        code = cli.main([command, "--in", path])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert (f"the cap circle.MAX_FRAME_DIGITS = {circle.MAX_FRAME_DIGITS}"
                in error["message"])

    def test_a_time_grid_at_the_cap_is_read(self, monkeypatch):
        from rotnorm import circle

        monkeypatch.setattr(circle, "MAX_FRAME_DIGITS", 5)
        e = circle.PLCircleDiffeo.identity()
        assert circle.PLIsotopy([0, Fraction(1, 99999), 1], [e] * 3).tden == 99999
        with pytest.raises(ValidationError, match="MAX_FRAME_DIGITS = 5"):
            circle.PLIsotopy([0, Fraction(1, 100000), 1], [e] * 3)


class TestExitCodes:
    def test_usage_error_is_1(self):
        r = run_cli(["lattice"])  # missing required --in
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "usage"

    def test_unknown_command_is_1(self):
        r = run_cli(["frobnicate"])
        assert r.returncode == 1

    def test_inconsistency_is_2(self, tmp_path, monkeypatch, capsys):
        from rotnorm import bounds, cli
        from rotnorm.errors import InconsistentLedger

        def inconsistent(ledger):
            raise InconsistentLedger("cl_f: lower 100 exceeds upper 7")

        monkeypatch.setattr(bounds, "relation_close", inconsistent)
        cp = write_json(tmp_path, "ctx.json", {"n": 3, "m": 1})
        ap = write_json(tmp_path, "A.json", {"m": 1, "generators": [[3]]})
        code = cli.main(["bounds", "--theta", "1/2", "--context", cp,
                         "--lattice", ap])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "inconsistency"

    def test_failed_fixture_check_is_2(self, monkeypatch, capsys):
        # the report is printed, then the failure is raised
        from rotnorm import catalog, cli

        report = {"name": "hopf-1", "ok": False, "checks": {"rank": {
            "expected": 2, "actual": 1, "ok": False}}}
        monkeypatch.setattr(catalog, "check_fixture", lambda name: report)
        code = cli.main(["catalog", "check", "hopf-1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert json.loads(out) == report
        error = json.loads(err)["error"]
        assert error["kind"] == "inconsistency"
        assert error["message"] == "fixture hopf-1 failed its self-check"


def assert_usage_error(r):
    assert r.returncode == 1
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"]["kind"] == "usage"


class TestOptionParsing:
    """Each option takes the next token as its value, verbatim, even one
    that starts with '-'; option names match only in full; a command line
    that does not parse is a usage error with exit code 1."""

    @pytest.mark.parametrize("offset, stdout", [
        ("-1/2,1/3", '{"points":[["-1/2","1/3"]],"theta":"1/2"}\n'),
        ("-1,1", '{"points":[["-1","1"],["1","1"]],"theta":"1"}\n'),
    ], ids=["fraction", "integer"])
    def test_offset_starting_with_minus(self, tmp_path, offset, stdout):
        path = write_json(tmp_path, "A.json",
                          {"m": 2, "generators": [[2, 0], [4, 3]]})
        r = run_cli(["coset", "--lattice", path, "--offset", offset])
        assert r.returncode == 0
        assert r.stdout == stdout

    def test_basepoint_starting_with_minus(self, tmp_path):
        path = write_json(tmp_path, "iso.json", rotation_isotopy_json(1, 2, 3))
        r = run_cli(["mu", "--in", path, "--basepoint", "-1/4"])
        assert r.returncode == 0
        assert r.stdout == '{"mu":"1/2"}\n'

    def test_negative_theta_is_a_validation_error(self):
        r = run_cli(["bounds", "--theta", "-5/2"])
        assert_validation_error(r)
        assert "non-negative" in json.loads(r.stderr)["error"]["message"]

    def test_option_name_taken_as_a_value(self, tmp_path):
        path = write_json(tmp_path, "A.json", {"m": 1, "generators": [[2]]})
        r = run_cli(["coset", "--lattice", path, "--offset", "--format"])
        assert_validation_error(r)
        assert "--format" in json.loads(r.stderr)["error"]["message"]

    @pytest.mark.parametrize("args", [
        ["defect", "--tri", "5"],
        [],
        ["defect", "--format", "xml"],
        ["defect", "--trials", "x"],
    ], ids=["abbreviation", "no_arguments", "bad_choice", "bad_int"])
    def test_usage_error(self, args):
        assert_usage_error(run_cli(args))

    def test_help_exits_0(self):
        r = run_cli(["catalog", "--help"])
        assert r.returncode == 0
        assert r.stderr == ""
        assert "list" in r.stdout and "check" in r.stdout


class TestColdStart:
    """``import rotnorm.cli`` loads no engine; each command loads the
    engines it runs."""

    def _modules(self, script, *args):
        r = subprocess.run(
            [sys.executable, "-c",
             script + "\nprint(' '.join(sorted(sys.modules)))", *args],
            capture_output=True, text=True, check=True)
        *output, modules = r.stdout.splitlines()
        return output, set(modules.split())

    def test_import_loads_no_engine(self):
        _, loaded = self._modules("import sys\nimport rotnorm.cli")
        engines = {"click", "rotnorm.groups", "rotnorm.circle",
                   "rotnorm.coset", "rotnorm.lattice", "rotnorm.bounds",
                   "rotnorm.catalog", "rotnorm._kernels"}
        assert not loaded & engines

    def test_group_loads_no_circle(self, tmp_path):
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        output, loaded = self._modules(
            "import sys\nfrom rotnorm.cli import main\nmain(sys.argv[1:])",
            "group", "--in", path)
        assert json.loads(output[0])["order"] == 6
        assert "rotnorm.groups" in loaded
        assert "rotnorm.circle" not in loaded

    def test_group_loads_no_dataclasses(self, tmp_path):
        # dataclasses pulls in inspect; the group engine's classes are
        # plain slotted classes.
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        output, loaded = self._modules(
            "import sys\nfrom rotnorm.cli import main\nmain(sys.argv[1:])",
            "group", "--in", path, "--norm", "cl")
        assert json.loads(output[0])["()"] == 0
        assert "rotnorm.groups" in loaded
        assert not loaded & {"dataclasses", "inspect"}


# The CLI contract as one property: every command line ends in exit 0 with
# one JSON document on stdout, or in exit 1 or 2 with one JSON error line
# of at most ERROR_LINE_BYTES bytes on stderr, within CALL_SECONDS.  The
# inputs follow docs/schemas/inputs.md: valid, near-valid (a field
# dropped, mistyped or out of range) and oversized, non-ASCII among them.

#: Longest one in-process call may take.  The calls drawn here take
#: milliseconds; the bound leaves room for a loaded host.
CALL_SECONDS = 5


@dataclass(frozen=True)
class File:
    """A command-line token that is the path of a file holding ``text``."""

    text: str


_SMALL = st.integers(-9, 9)
_RAT = st.builds(lambda p, q: f"{p}/{q}" if q > 1 else str(p),
                 st.integers(-20, 20), st.integers(1, 6))
_NON_ASCII = st.text(st.characters(min_codepoint=0x80,
                                   blacklist_categories=("Cs",)),
                     min_size=1, max_size=3)
_UNIT = st.one_of(st.sampled_from(["7", "é", "🙂", "a ", "\\", '"', "\x01"]),
                  _NON_ASCII)
#: 1,001 to 20,000 copies of a short unit: past MAX_INT_DIGITS when digits.
_OVERSIZED = st.builds(lambda unit, n: unit * n, _UNIT,
                       st.sampled_from([1001, 20000]))
_JUNK = st.one_of(st.sampled_from(["", "x", "1/0", "0.5", "-1", "1e3", "-",
                                   "--format", "[1,0", "{}"]),
                  _NON_ASCII, st.text(max_size=4))
#: JSON leaves: within the caps, mistyped, and past the digit cap (10^1000
#: has 1,001 digits; 10^1000 - 1, within the cap, is a valid entry).
_LEAF = st.one_of(_SMALL, _RAT, _NON_ASCII, st.none(), st.booleans(),
                  st.sampled_from([1.5, 2.0, 10 ** 1000 - 1, 10 ** 1000,
                                   -10 ** 4000]))
_JSON_JUNK = st.recursive(_LEAF, lambda kids: st.one_of(
    st.lists(kids, max_size=3),
    st.dictionaries(st.sampled_from(["m", "generators", "times", "frames",
                                     "x", "y", "components", "basepoints",
                                     "n", "connected"]), kids, max_size=3)),
    max_leaves=8)


def _token(valid):
    """A valid token (half the draws), a near-valid one, or an oversized
    one."""
    return st.one_of(valid, valid, _JUNK, _OVERSIZED)


def _near(valid):
    """valid, a dict or a non-empty list, with one key or item dropped or
    set to a junk value."""
    @st.composite
    def mutated(draw):
        obj = draw(valid)
        obj = dict(obj) if isinstance(obj, dict) else list(obj)
        key = draw(st.sampled_from(sorted(obj) if isinstance(obj, dict)
                                   else range(len(obj))))
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_JSON_JUNK)
        return obj
    return mutated()


def _file(valid, oversized):
    """A File holding valid JSON (about half the draws), a near-valid
    mutation of it, junk JSON, an oversized document, or text that is not
    JSON."""
    docs = st.one_of(valid, valid, _near(valid), _JSON_JUNK, st.just(oversized))
    return st.one_of(
        docs.map(lambda doc: File(json.dumps(doc, ensure_ascii=False))),
        valid.map(lambda doc: File(json.dumps(doc))), _JUNK.map(File))


@st.composite
def _lattice(draw, m=None):
    m = draw(st.integers(1, 3)) if m is None else m
    return {"m": m, "generators": draw(st.lists(
        st.lists(_SMALL, min_size=m, max_size=m), max_size=m + 1))}


@st.composite
def _isotopy(draw):
    """Rotations, or maps with a second breakpoint at 1/2, moved by up to
    1/2 a step: a step of 1/2 is the near-valid case."""
    samples = draw(st.integers(2, 4))
    rise = draw(st.sampled_from([None, "1/4", "1/2", "3/4"]))
    c, frames = 0, []
    for _ in range(samples):
        y = Fraction(c, 8)
        frames.append({"x": ["0"], "y": [str(y)]} if rise is None else
                      {"x": ["0", "1/2"], "y": [str(y), str(y + Fraction(rise))]})
        c += draw(st.integers(-4, 4))
    times = [str(Fraction(j, samples - 1)) for j in range(samples)]
    return {"times": times, "frames": frames}


@st.composite
def _multi(draw):
    m = draw(st.integers(1, 3))
    return {"components": draw(st.lists(_isotopy(), min_size=m, max_size=m)),
            "basepoints": draw(st.lists(_RAT, min_size=m, max_size=m))}


def _context(m):
    return st.fixed_dictionaries({
        "n": st.integers(2, 6), "m": st.just(m),
        "connected": st.booleans(), "assumption_P": st.booleans(),
        "closed_or_open": st.sampled_from(["closed", "open"]),
        "regularity": st.sampled_from(["smooth", "finite_r"])})


@st.composite
def _perms(draw):
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))


_LONG_LATTICE = {"m": 2, "generators": [[1] * 20000]}
_LATTICE_FILE = _file(_lattice(), _LONG_LATTICE)


@st.composite
def _context_and_lattice(draw):
    """--context and --lattice Files; when both are valid, of one m."""
    m = draw(st.integers(1, 3))
    return (draw(_file(_context(m), {"n": 3, "m": 1, "k" * 20000: 1})),
            draw(_file(_lattice(m), _LONG_LATTICE)))


@st.composite
def _command_line(draw):
    """One command line for one of the nine commands; a fifth of them get
    a stray token (an unknown option, or --format without a value)."""
    command = draw(st.sampled_from(["group", "lattice", "coset", "mu", "nu",
                                    "defect", "bounds", "verdict", "catalog"]))
    args = [command]
    if command == "group":
        args += ["--in", draw(_file(_perms(), [["x"] * 20000]))]
        norm = draw(st.sampled_from([None, "cl", "zeta", "max"]))
        if norm:
            args += ["--norm", norm]
        if draw(st.booleans()):
            args += ["--element", draw(_token(
                _perms().map(lambda gens: json.dumps(gens[0]))))]
    elif command == "lattice":
        args += ["--in", draw(_LATTICE_FILE)]
    elif command == "coset":
        lattice = draw(_lattice())
        offset = ",".join(draw(st.lists(_RAT, min_size=lattice["m"],
                                        max_size=lattice["m"])))
        args += ["--lattice", draw(st.one_of(
            st.just(File(json.dumps(lattice))), _LATTICE_FILE)),
                 "--offset", draw(_token(st.just(offset)))]
    elif command == "mu":
        args += ["--in", draw(_file(_isotopy(), {"times": ["0"] * 20000}))]
        if draw(st.booleans()):
            args += ["--basepoint", draw(_token(_RAT))]
    elif command == "nu":
        args += ["--in", draw(_file(_multi(), {"basepoints": ["é"] * 20000}))]
        if draw(st.booleans()):
            args += ["--lattice", draw(_LATTICE_FILE)]
    elif command == "defect":
        # no near-valid count may be large: 10^6 trials take 100 s
        trials = st.one_of(st.integers(1, 20).map(str), _OVERSIZED,
                           st.sampled_from(["0", "-3", "x", "1.5", "1000001"]))
        args += ["--trials", draw(trials), "--seed", draw(_token(
            st.integers(-10 ** 6, 10 ** 6).map(str)))]
    elif command == "bounds":
        args += ["--theta", draw(_token(_RAT))]
        context, lattice = draw(_context_and_lattice())
        if draw(st.booleans()):
            args += ["--context", context]
        if draw(st.booleans()):
            args += ["--lattice", lattice]
    elif command == "verdict":
        context, lattice = draw(_context_and_lattice())
        args += ["--context", context, "--lattice", lattice]
    else:
        args.append(draw(st.sampled_from(["list", "check", "check", "show"])))
        if draw(st.booleans()):
            args.append(draw(_token(st.sampled_from(["hopf-1", "torus-knot"]))))
    if draw(st.integers(0, 4)) == 3:  # 0 and 4 are drawn more often
        args.append(draw(_token(st.sampled_from(["--format", "--bogus"]))))
    return args


def _main(tmp_path, tokens):
    """(exit code, stdout, stderr, seconds) of ``cli.main`` in this process,
    each File token written to its own file."""
    from rotnorm import cli

    argv = []
    for i, token in enumerate(tokens):
        if isinstance(token, File):
            path = tmp_path / f"input{i}.json"
            path.write_text(token.text, encoding="utf-8")
            token = str(path)
        argv.append(token)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


_EXAMPLES = [
    # a 5,000-digit determinant, and a mu output past Python's 4,300-digit
    # conversion cap: both ended in a traceback
    ["lattice", "--in", File('{"m": 2, "generators": [[%s, 0], [0, %s]]}'
                             % ("9" * 2500, "1" + "0" * 2499 + "1"))],
    ["mu", "--in", File(json.dumps(_two_frame_isotopy(
        "1/2", ("0", "1/2"), ("0", f"5{'0' * 2998}1/1{'0' * 3000}")))),
     "--basepoint", "1/" + "9" * 3000],
    # non-ASCII echoes: 637- and 902-byte error lines
    ["coset", "--lattice", File('{"m": 1, "generators": [[2]]}'),
     "--offset", "é" * 20000],
    ["lattice", "--in", "x", *["é"] * 2000],
]


class TestContract:
    @seed(20261019)
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(_command_line())
    @example(_EXAMPLES[0])
    @example(_EXAMPLES[1])
    @example(_EXAMPLES[2])
    @example(_EXAMPLES[3])
    def test_every_call_ends_in_one_document_or_one_error_line(
            self, tmp_path, tokens):
        code, out, err, seconds = _main(tmp_path, tokens)
        assert seconds < CALL_SECONDS
        if code == 0:
            assert err == "" and out.count("\n") == 1
            with _no_digit_cap():
                json.loads(out)
            return
        assert code in (1, 2)
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) <= ERROR_LINE_BYTES, len(err.encode())
        kind = json.loads(err)["error"]["kind"]
        if code == 1:
            assert kind in ("validation", "usage") and out == ""
        else:  # a failed catalog self-check prints its document first
            assert kind == "inconsistency" and out.count("\n") <= 1
