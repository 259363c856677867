import json
import os
import subprocess
import sys
import time


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


class TestCatalogCommand:
    def test_list(self):
        r = run_cli(["catalog", "list"])
        data = json.loads(r.stdout)
        assert "hopf-1" in data["fixtures"]

    def test_check_ok(self):
        r = run_cli(["catalog", "check", "hopf-1"])
        assert r.returncode == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_check_unknown(self):
        r = run_cli(["catalog", "check", "nope"])
        assert r.returncode == 1


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


class TestExitCodes:
    def test_usage_error_is_1(self):
        r = run_cli(["lattice"])  # missing required --in
        assert r.returncode == 1
        assert json.loads(r.stderr)["error"]["kind"] == "usage"

    def test_unknown_command_is_1(self):
        r = run_cli(["frobnicate"])
        assert r.returncode == 1

    def test_inconsistency_is_2(self, tmp_path):
        # a fixture that fails its self-check must exit 2: fabricate one by
        # pointing the catalog at a bad expectations file via monkeypatched
        # package data is heavy; instead drive the ledger path.
        script = (
            "from rotnorm.bounds import BoundLedger, relation_close\n"
            "from rotnorm._rat import Q\n"
            "from rotnorm.errors import InconsistentLedger\n"
            "led = BoundLedger().with_lower('cl_f', Q(100), 'a')\n"
            "led = led.with_upper('clb_modG_f', Q(3), 'b')\n"
            "led = led.with_upper('clbd_G', Q(4), 'b')\n"
            "import sys\n"
            "try:\n"
            "    relation_close(led)\n"
            "except InconsistentLedger:\n"
            "    sys.exit(2)\n"
        )
        r = subprocess.run([sys.executable, "-c", script])
        assert r.returncode == 2
