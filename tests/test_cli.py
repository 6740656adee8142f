"""End-to-end command-line behavior: JSON documents, exit codes,
determinism, and file output."""

import json

import pytest

from genvar import cli
from genvar.errors import ConsistencyError
from genvar.quiver import kronecker


@pytest.fixture()
def quiver_file(tmp_path):
    path = tmp_path / "kron.json"
    path.write_text(json.dumps(kronecker().to_json()), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_generic_var_document(quiver_file, capsys):
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "generic-var", "--d", "2,1"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "generic-var"
    assert doc["inputs"]["d"] == [2, 1]
    assert doc["results"]["den"] == [2, 1]
    assert doc["results"]["rigid"] is True
    cert = doc["certificates"]["generic"]
    assert cert["summands"] == [
        {"vector": [2, 1], "multiplicity": 1, "kind": "real_schur"}]


def test_unparsable_vector_exits_2(quiver_file, capsys):
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "generic-var", "--d", "2,x"])
    assert rc == 2
    assert "input error" in err
    assert out == ""


def test_missing_quiver_exits_2(capsys):
    rc, _out, err = run_cli(capsys, ["generic-var", "--d", "1,1"])
    assert rc == 2 and "--quiver" in err


def test_wrong_vector_length_exits_2(quiver_file, capsys):
    rc, _out, err = run_cli(
        capsys, ["--quiver", quiver_file, "generic-var", "--d", "1,2,3"])
    assert rc == 2 and "input error" in err


def test_bad_prime_pool_exits_2(quiver_file, capsys):
    rc, _out, err = run_cli(
        capsys, ["--quiver", quiver_file, "--primes", "1,5",
                 "generic-var", "--d", "1,0"])
    assert rc == 2 and "input error" in err


def test_composite_prime_pool_exits_2(quiver_file, capsys):
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "--primes", "4,6,8,9,10,12",
                 "generic-var", "--d", "1,1"])
    assert rc == 2 and "input error" in err and out == ""


@pytest.mark.parametrize("primes", ["5,7,11,11", "5,5,7,7,11,11,13,13,17,17,19,19"])
def test_repeated_prime_pool_exits_2(quiver_file, capsys, primes):
    # the first would re-check at 11 and never fail, the second divided by zero
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "--primes", primes, "generic-var", "--d", "2,1"])
    assert rc == 2 and "input error" in err and out == ""


def test_negative_budget_exits_2_and_zero_budget_exits_3(quiver_file, capsys):
    argv = ["--quiver", quiver_file, "--budget", "-5", "generic-var", "--d", "2,1"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and "input error" in err and out == ""
    argv[3] = "0"
    rc, out, err = run_cli(capsys, argv)
    assert rc == 3 and "budget exceeded" in err and out == ""


def test_zero_budget_affine_generic_exits_3(quiver_file, capsys):
    # the mutation walk to a real summand is charged to --budget
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "--budget", "0", "affine-generic", "--d", "3,2"])
    assert rc == 3 and "budget exceeded" in err and out == ""


def test_negative_sweeps_exits_2(quiver_file, capsys):
    rc, out, err = run_cli(capsys, ["--quiver", quiver_file, "mutate-enumerate",
                                    "--depth", "2", "--sweeps", "-4"])
    assert rc == 2 and "input error" in err and out == ""


@pytest.mark.parametrize("entries", [(1.7, 2.9), (True, 2)])
def test_non_integer_matrix_entries_exit_2(quiver_file, tmp_path, capsys, entries):
    rep = {"dim": [1, 1], "matrices": [[[entries[0]]], [[entries[1]]]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep), encoding="utf-8")
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "cc-map", "--rep", str(path)])
    assert rc == 2 and "input error" in err and out == ""


def test_bool_vertex_count_exits_2(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text('{"vertices": true, "arrows": []}', encoding="utf-8")
    rc, out, err = run_cli(
        capsys, ["--quiver", str(path), "generic-var", "--d", "1"])
    assert rc == 2 and "input error" in err and out == ""


def test_tiny_budget_exits_3(quiver_file, tmp_path, capsys):
    rep = {"dim": [2, 2], "matrices": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep), encoding="utf-8")
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "--budget", "1",
                 "cc-map", "--rep", str(path)])
    assert rc == 3
    assert "budget exceeded" in err
    assert out == ""


def test_consistency_failure_exits_4(capsys, monkeypatch):
    def boom(*_a, **_k):
        raise ConsistencyError("forced for the exit-code test")
    monkeypatch.setattr(cli.kronecker, "base_change", boom)
    rc, _out, err = run_cli(
        capsys, ["base-change", "--source", "G", "--target", "SZ",
                 "--size", "3"])
    assert rc == 4 and "consistency failure" in err


def test_unexpected_exception_exits_4_without_traceback(capsys, monkeypatch):
    def boom(_args):
        raise RuntimeError("forced for the exit-code test")
    monkeypatch.setattr(cli, "_run", boom)
    rc, out, err = run_cli(
        capsys, ["base-change", "--source", "G", "--target", "SZ",
                 "--size", "3"])
    assert rc == 4 and out == ""
    assert err == "internal error: RuntimeError: forced for the exit-code test\n"
    assert "Traceback" not in err


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "doc.json"
    rc, out, err = run_cli(
        capsys, ["--out", str(target), "base-change", "--source", "G",
                 "--target", "SZ", "--size", "2"])
    assert rc == 2 and out == ""
    assert err.startswith("input error: cannot write output file")
    assert "Traceback" not in err


def test_selftest_single_criterion(capsys):
    rc, out, err = run_cli(capsys, ["selftest", "--criteria", "9"])
    assert rc == 0
    assert any(line.startswith("criterion 09 PASS") for line in err.splitlines())
    doc = json.loads(out)  # stdout is the document alone
    assert doc["results"]["passed"] is True
    assert [r["criterion"] for r in doc["results"]["reports"]] == [9]
    assert all("seconds" not in r for r in doc["results"]["reports"])


@pytest.mark.parametrize("criteria", ["99", "9,99"])
def test_selftest_unknown_criterion_exits_2(capsys, monkeypatch, criteria):
    ran = []
    monkeypatch.setattr(cli.acceptance, "run_criterion", ran.append)
    rc, out, err = run_cli(capsys, ["selftest", "--criteria", criteria])
    assert (rc, out, ran) == (2, "", [])  # refused before any criterion runs
    assert "no criterion 99" in err


def test_selftest_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.acceptance, "run_all",
        lambda selected=None, echo=print: (False, [{"criterion": 1,
                                                    "passed": False}]))
    rc, _out, _err = run_cli(capsys, ["selftest", "--criteria", "1"])
    assert rc == 1


def test_determinism_and_out_file(quiver_file, tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for target in (first, second):
        rc, out, _err = run_cli(
            capsys, ["--quiver", quiver_file, "--out", str(target),
                     "generic-var", "--d", "2,2"])
        assert rc == 0
        assert out == ""          # document goes to the file, not stdout
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text(encoding="utf-8"))
    assert doc["results"]["den"] == [2, 2]
    assert doc["results"]["rigid"] is False


def test_mutation_table_document(quiver_file, capsys):
    rc, out, _err = run_cli(
        capsys, ["--quiver", quiver_file, "mutate-enumerate",
                 "--depth", "3", "--sweeps", "2"])
    assert rc == 0
    doc = json.loads(out)
    dens = [v["den"] for v in doc["results"]["variables"]]
    assert [-1, 0] in dens and [2, 1] in dens
    assert doc["results"]["laurent_check"]["all_coefficients_positive"] is True


def test_cc_map_with_shifts(quiver_file, tmp_path, capsys):
    rep = {"dim": [0, 0], "matrices": [[], []]}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(rep), encoding="utf-8")
    rc, out, _err = run_cli(
        capsys, ["--quiver", quiver_file, "cc-map", "--rep", str(path),
                 "--shifts", "1,0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["poly"]["terms"] == [{"exp": [1, 0], "coef": 1}]
    assert doc["results"]["den"] == [-1, 0]


def _cc_map(tmp_path, capsys, quiver, rep, *extra):
    qpath, rpath = tmp_path / "q.json", tmp_path / "rep.json"
    qpath.write_text(json.dumps(quiver), encoding="utf-8")
    rpath.write_text(json.dumps(rep), encoding="utf-8")
    return run_cli(capsys, ["--quiver", str(qpath), *extra, "cc-map", "--rep", str(rpath)])


# the (1,1,1) count is 1 at p = 11 and 2 at every other pool prime
_JUMPING_QUIVER = {"vertices": 3, "arrows": [[2, 1], [3, 1], [2, 3]]}
_JUMPING_REP = {"dim": [2, 2, 2], "matrices": [[[0, 0], [3, 2]], [[-2, 1], [0, 1]],
                                               [[1, 3], [3, 3]]]}


def test_cc_map_survives_a_count_that_jumps_at_a_good_prime(tmp_path, capsys):
    rc, out, err = _cc_map(tmp_path, capsys, _JUMPING_QUIVER, _JUMPING_REP)
    assert rc == 0 and err == ""
    assert json.loads(out)["results"]["den"] == [2, 2, 2]


def test_cc_map_exits_3_when_the_budget_stops_the_second_sweep(tmp_path, capsys):
    # 100 visits pay for every count of the first sweep, not of the second
    rc, out, err = _cc_map(tmp_path, capsys, _JUMPING_QUIVER, _JUMPING_REP,
                           "--budget", "100")
    assert rc == 3 and out == ""
    assert "budget" in err


def test_cc_map_refuses_a_count_that_follows_a_splitting(tmp_path, capsys):
    # the (1,1) count is 1 + (33/p): 0, 0, 0, 2, 0 on this pool, whose
    # majority value 0 is wrong (the value over C is 2)
    rc, out, err = _cc_map(
        tmp_path, capsys, {"vertices": 2, "arrows": [[1, 2], [1, 2]]},
        {"dim": [2, 2], "matrices": [[[1, -3], [1, 1]], [[0, -3], [-2, -3]]]},
        "--primes", "5,7,13,17,19")
    assert rc == 4 and out == ""
    assert "counting polynomial" in err


def test_canonical_decomposition_document(quiver_file, capsys):
    rc, out, _err = run_cli(
        capsys, ["--quiver", quiver_file, "canonical-decomp",
                 "--d", "3,1", "--method", "search"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["summands"] == [
        {"vector": [1, 0], "multiplicity": 1, "kind": "real_schur"},
        {"vector": [2, 1], "multiplicity": 1, "kind": "real_schur"}]
    assert doc["certificates"]["witnesses"]


def test_affine_generic_document(quiver_file, capsys):
    rc, out, _err = run_cli(
        capsys, ["--quiver", quiver_file, "affine-generic", "--d", "1,1"])
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["vector"] == [1, 1]
    assert res["tag"] == "delta_layer"
    assert res["delta_power"] == 1


def test_base_change_document(capsys):
    rc, out, _err = run_cli(
        capsys, ["base-change", "--source", "G", "--target", "SZ",
                 "--size", "3"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["results"]["base_change"]["matrix"] == [
        [1, 0, 2], [0, 1, 0], [0, 0, 1]]
    assert doc["results"]["positivity"]["nonnegative"] is True


def test_base_change_over_budget_exits_3(capsys):
    # size 60 needs 2 * 60^3 + 60 * 121 = 439,260 units, charged up front
    argv = ["--budget", "1", "base-change", "--source", "G", "--target", "SZ",
            "--size", "60"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 3 and "budget exceeded" in err and out == ""
    argv[1] = "439259"
    assert run_cli(capsys, argv)[0] == 3
    argv[1] = "439260"
    assert run_cli(capsys, argv)[0] == 0


def test_family_window_document(capsys):
    rc, out, _err = run_cli(
        capsys, ["kronecker-bases", "--kind", "CZ", "--n-max", "2",
                 "--bound", "1,1"])
    assert rc == 0
    names = [e[0] for e in
             json.loads(out)["results"]["family"]["elements"]]
    assert "imag:2" in names
    assert len(names) == len(set(names))


def test_independence_document(capsys):
    rc, out, _err = run_cli(
        capsys, ["independence", "--kind", "G", "--n-max", "3",
                 "--bound", "2,2"])
    assert rc == 0
    rep = json.loads(out)["results"]["independence"]
    assert rep["independent"] is True and rep["rank"] == rep["elements"]


def test_wild_enumeration_over_budget_exits_3(tmp_path, capsys):
    path = tmp_path / "wild.json"
    path.write_text(json.dumps({"vertices": 3, "arrows": [[1, 2], [1, 2], [1, 2], [2, 3]]}),
                    encoding="utf-8")
    rc, out, err = run_cli(
        capsys, ["--quiver", str(path), "--budget", "1000",
                 "mutate-enumerate", "--depth", "7"])
    assert rc == 3 and "budget exceeded" in err and out == ""


def test_generic_var_answers_ten_delta_where_the_witness_draw_gives_up(quiver_file, capsys):
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "generic-var", "--d", "10,10"])
    assert rc == 0 and err == ""
    assert json.loads(out)["results"]["den"] == [10, 10]
    rc, out, err = run_cli(
        capsys, ["--quiver", quiver_file, "canonical-decomp", "--d", "10,10"])
    assert rc == 3 and out == ""
