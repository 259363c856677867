import json
import os
import subprocess
import sys
import time

import pytest


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


def assert_validation_error(r):
    assert r.returncode == 1
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"]["kind"] == "validation"


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

    def test_group_string_image(self, tmp_path):
        path = write_json(tmp_path, "g.json", [[1, 0, "x"]])
        assert_validation_error(run_cli(["group", "--in", path]))

    @pytest.mark.parametrize("element", ["[1,0", '"ab"'],
                             ids=["unclosed", "string"])
    def test_group_bad_element(self, tmp_path, element):
        path = write_json(tmp_path, "g.json", [[1, 0, 2], [1, 2, 0]])
        assert_validation_error(run_cli(
            ["group", "--in", path, "--norm", "zeta", "--element", element]))


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
