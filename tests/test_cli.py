import argparse
import json

import numpy as np
import pytest

from superrmatrix import QContext, SuperRank, r_operator, verify
from superrmatrix.cli import build_parser, main, parse_complex

from conftest import load_matrix, maxabs, run_fresh


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("1.5+0.25j") == 1.5 + 0.25j
    assert parse_complex("1.5,-0.25") == 1.5 - 0.25j


def test_rmatrix_json_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    code = main(["rmatrix", "--m", "2", "--n", "1", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rows"] == payload["cols"] == 9
    matrix = load_matrix(payload)
    ctx = QContext(q=complex(*payload["q"]))
    direct = r_operator(SuperRank(2, 1), ctx, complex(*payload["zeta1"]),
                        complex(*payload["zeta2"]))
    # bitwise round trip through the decimal serialization
    assert np.array_equal(matrix, direct)
    assert payload["metadata"]["cross_mode_residual"] < 1e-8
    # the depths the cross-mode build used
    assert payload["metadata"]["n_max_product"] == 60
    assert payload["metadata"]["n_max_sim"] == 40


def test_rmatrix_sparsity_pattern(tmp_path):
    out = tmp_path / "r.json"
    assert main(["rmatrix", "--output", str(out)]) == 0
    matrix = load_matrix(json.loads(out.read_text())).reshape(3, 3, 3, 3)
    for i in range(3):
        for k in range(3):
            for j in range(3):
                for l in range(3):
                    if not ((i == j and k == l) or (i == l and k == j)):
                        assert matrix[i, k, j, l] == 0


def test_rmatrix_pipeline_mode_agrees(tmp_path):
    out_c = tmp_path / "c.json"
    out_p = tmp_path / "p.json"
    base = ["rmatrix", "--m", "2", "--n", "1", "--zeta1", "0.5", "--zeta2", "1.1"]
    assert main(base + ["--output", str(out_c)]) == 0
    assert main(base + ["--mode", "pipeline", "--output", str(out_p)]) == 0
    mc = load_matrix(json.loads(out_c.read_text()))
    mp = load_matrix(json.loads(out_p.read_text()))
    assert maxabs(mc - mp) < 1e-8


def test_rmatrix_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["rmatrix", "--format", "csv", "--output", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 9
    cells = rows[0].split(",")
    assert len(cells) == 18  # re,im pairs
    assert float(cells[0]) == 1.0


def test_equal_m_n_rejected(capsys):
    code = main(["rmatrix", "--m", "2", "--n", "2"])
    assert code == 2
    assert "M and N must differ" in capsys.readouterr().err


def test_pole_reported_as_config_error(tmp_path):
    # z**s right on the q**-2 pole
    code = main(["rmatrix", "--m", "2", "--n", "1", "--q-re", "1.2", "--q-im", "0",
                 "--zeta1", str(round(1.2 ** (-2 / 3), 12)), "--zeta2", "1"])
    assert code == 2


def test_verify_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    assert main(["verify", "--m", "2", "--n", "1", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    monkeypatch.setitem(verify.DEFAULT_TOLERANCES, "scalars", 1e-30)
    assert main(["verify", "--m", "2", "--n", "1", "--checks", "scalars"]) == 1


def test_verify_check_subset(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--checks", "ybe,intertwining",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {c["name"] for c in payload["checks"]} == {"ybe", "intertwining"}


def test_roots_listing(tmp_path):
    out = tmp_path / "roots.json"
    assert main(["roots", "--m", "2", "--n", "1", "--nmax", "1",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    roots = payload["roots"]
    assert roots[0]["label"] == "alpha[1,2]"
    kinds = [r["kind"] for r in roots]
    # every imaginary entry sits between the last plus-root and the first wrap
    assert kinds.index("imaginary") > max(i for i, k in enumerate(kinds)
                                          if k == "real_plus")
    assert max(i for i, k in enumerate(kinds) if k == "imaginary") < \
        kinds.index("real_wrap")
    for r in roots:
        assert r["parity"] in (0, 1)
        if r["kind"] == "real_plus":
            i, j = r["e"]["unit"]
            assert r["f"]["unit"] == [j, i]
            assert r["e"]["zeta_power"] == -r["f"]["zeta_power"]


def test_roots_parity_column_consistent(tmp_path):
    from superrmatrix.rootdata import parity, positive_roots

    out = tmp_path / "roots.json"
    assert main(["roots", "--m", "3", "--n", "2", "--nmax", "1",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    rank = SuperRank(3, 2)
    for item, root in zip(payload["roots"], positive_roots(rank, 1)):
        assert item["parity"] == parity(rank, root)


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERRMATRIX_OUTDIR", str(tmp_path))
    assert main(["roots", "--nmax", "0"]) == 0
    assert (tmp_path / "roots.json").exists()


@pytest.mark.parametrize("argv", [["rmatrix"], ["verify", "--checks", "scalars"],
                                  ["roots", "--nmax", "0"]])
def test_output_naming_a_directory_is_a_config_error(tmp_path, capsys, argv):
    assert main([*argv, "--output", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def _refuse(*args, **kwargs):
    raise AssertionError("work ran before the configuration error")


@pytest.mark.parametrize("argv", [["rmatrix", "--m", "3", "--n", "2"],
                                  ["verify", "--m", "3", "--n", "2"], ["roots"]])
def test_unwritable_output_fails_before_any_work(tmp_path, monkeypatch, argv):
    # each command imports its own modules, so the work is refused where it lives
    for target in ("superrmatrix.rfactors.build_rfactors", "superrmatrix.rfactors.r_operator",
                   "superrmatrix.verify.run_suite", "superrmatrix.cli.positive_roots"):
        monkeypatch.setattr(target, _refuse)
    assert main([*argv, "--output", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [["verify", "--checks", "level_pairing", "--nmax", "0"],
                                  ["verify", "--nmax", "0"]])
def test_level_pairing_at_no_level_exits_2(monkeypatch, capsys, argv):
    monkeypatch.setattr(verify, "_check_scalars", _refuse)
    monkeypatch.setattr(verify, "_check_level_pairing", _refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: level_pairing needs n_max >= 1")


def test_failed_run_keeps_an_existing_output_file(tmp_path):
    out = tmp_path / "r.json"
    out.write_bytes(b"kept\r\n\x00")
    assert main(["rmatrix", "--mode", "pipeline", "--zeta1", "1.4", "--output", str(out)]) == 2
    assert out.read_bytes() == b"kept\r\n\x00"


@pytest.mark.parametrize("argv", [["rmatrix", "--mode", "pipeline", "--zeta1", "1.4"],
                                  ["verify", "--nmax", "-1"], ["roots", "--nmax", "-1"]])
def test_failed_run_removes_the_output_file_it_created(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output", "fresh.json"]) == 2
    assert list(tmp_path.iterdir()) == []


def test_negative_nmax_fails_before_any_check(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_check_scalars", _refuse)
    monkeypatch.setattr(verify, "check_defining_relations", _refuse)
    assert main(["verify", "--nmax", "-1"]) == 2
    assert "n_max must be nonnegative" in capsys.readouterr().err


def test_negative_seed_fails_before_any_check(monkeypatch, capsys):
    # refused by name before any check runs, although only the randomized
    # checks read the seed and each seeds its generator only when it runs
    monkeypatch.setattr(verify, "_check_scalars", _refuse)
    monkeypatch.setattr(verify, "check_defining_relations", _refuse)
    assert main(["verify", "--seed", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "seed must be nonnegative, got -1" in err[0]


def test_randomized_checks_do_not_depend_on_the_hash_seed(tmp_path):
    # a str seed is hashed with SHA-512, not with the per-process str hash
    residuals = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"verify{hash_seed}.json"
        argv = ["verify", "--checks", "scalars,r_homogeneity", "--seed", "5",
                "--output", str(out)]
        run_fresh(f"from superrmatrix import cli; assert cli.main({argv!r}) == 0",
                  PYTHONHASHSEED=hash_seed)
        residuals.append([c["residual"] for c in json.loads(out.read_text())["checks"]])
    assert residuals[0] == residuals[1]
    assert len(residuals[0]) == 2


@pytest.mark.parametrize("checks", [[], ["--checks", "relations"], ["--checks", "ybe"]])
def test_zero_zeta3_fails_before_any_check(tmp_path, monkeypatch, capsys, checks):
    # only the ybe check reads zeta3, but a zero one is refused whatever the
    # selection, before the first check runs and before any output is kept
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "_check_scalars", _refuse)
    monkeypatch.setattr(verify, "check_defining_relations", _refuse)
    monkeypatch.setattr(verify, "verify_ybe", _refuse)
    assert main(["verify", "--zeta3", "0", *checks, "--output", "fresh.json"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "spectral parameters must be nonzero" in err[0]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("checks", [[], ["--checks", "factor_convergence"],
                                    ["--checks", "ybe,r_two_path"]])
def test_outside_series_domain_fails_before_any_check(monkeypatch, capsys, checks):
    # |z**s| = 1.4**3 is outside the disc the series checks need: the suite
    # refuses the configuration before its first check runs
    for name in ("_check_scalars", "_check_factor_convergence", "build_rfactors", "verify_ybe"):
        monkeypatch.setattr(verify, name, _refuse)
    assert main(["verify", "--zeta1", "1.4", *checks]) == 2
    assert "the series factors need" in capsys.readouterr().err


def test_closed_checks_run_outside_series_domain():
    assert main(["verify", "--zeta1", "1.4", "--checks", "ybe,intertwining"]) == 0


def test_wrong_grading_length_is_config_error(capsys):
    assert main(["roots", "--m", "2", "--n", "1", "--grading", "1,1,1,1"]) == 2
    assert "grading length must be M+N = 3, got 4" in capsys.readouterr().err


def test_verify_unknown_check_is_config_error(capsys):
    assert main(["verify", "--checks", "nonsense"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_empty_check_selection_is_config_error(capsys):
    assert main(["verify", "--checks", ""]) == 2
    assert "empty check selection" in capsys.readouterr().err


def test_rmatrix_closed_mode_outside_series_disc(tmp_path):
    # |z**s| > 1: the closed form is still valid; the residual is omitted
    out = tmp_path / "r.json"
    assert main(["rmatrix", "--zeta1", "1.4", "--zeta2", "1.0",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"] == {"cross_mode_residual": None, "n_max_product": None,
                                   "n_max_sim": None}


@pytest.mark.parametrize("argv", [
    ["rmatrix", "--zeta1", "1e200"],
    ["rmatrix", "--q-re", "1e200", "--q-im", "0"],
    ["rmatrix", "--q-re", "1e150", "--q-im", "0", "--mode", "pipeline"],
    ["verify", "--nmax", "1000"],
], ids=["rmatrix-zeta", "rmatrix-q", "rmatrix-q-pipeline", "verify-nmax"])
def test_overflow_is_a_config_error(capsys, argv):
    # refused where the value forms, with one line and no numpy warning (a
    # RuntimeWarning fails the test)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: overflow: ") and err.count("\n") == 1


def test_spectral_ratio_past_the_float_range_is_a_config_error(capsys):
    # each zeta is finite, their ratio is not: one line, exit 2, nothing
    # written and no numpy warning (a RuntimeWarning fails the test)
    argv = ["rmatrix", "--m", "2", "--n", "1", "--zeta1", "1e200", "--zeta2", "1e-200"]
    for mode in ("closed", "pipeline"):
        assert main(argv + ["--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: overflow: the spectral ratio zeta1/zeta2 is not finite")


_TINY_ZETA = ["--m", "2", "--n", "1", "--zeta1", "1e-200", "--zeta2", "1.1e-200"]


@pytest.mark.parametrize("argv", [
    ["rmatrix", *_TINY_ZETA, "--grading", "1,2,1", "--mode", "pipeline"],
    ["rmatrix", *_TINY_ZETA, "--grading", "2,1,1", "--mode", "pipeline"],
    ["rmatrix", "--m", "3", "--n", "2", "--zeta1", "1e-170", "--zeta2", "1.05e-170",
     "--grading", "2,1,1,1,1", "--mode", "pipeline"],
    ["verify", *_TINY_ZETA, "--grading", "1,2,1"],
], ids=["rmatrix-2-1", "rmatrix-2-1-s0=2", "rmatrix-3-2", "verify-2-1"])
def test_spectral_power_past_the_float_range_is_refused(tmp_path, capsys, argv):
    # a zeta**s_i that underflows to 0 would give a zero generator image: the
    # representation refuses it where it forms, and closed mode writes the
    # closed form alone
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: overflow: zeta**") and err.count("\n") == 1
    if argv[0] == "rmatrix":
        out = tmp_path / "r.json"
        assert main(argv[:-2] + ["--output", str(out)]) == 0
        payload = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert set(payload["metadata"].values()) == {None}


def test_rmatrix_refuses_a_pipeline_build_that_overflows(tmp_path, capsys):
    # at q = 1000 the unprimed closed form overflows at level 40: closed mode
    # reports no cross-mode metadata, pipeline mode exits 2, neither writes NaN
    out = tmp_path / "r.json"
    argv = ["rmatrix", "--q-re", "1000", "--q-im", "0", "--output", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert payload["metadata"] == dict.fromkeys(["cross_mode_residual", "n_max_product",
                                                 "n_max_sim"])
    assert np.isfinite(load_matrix(payload)).all()
    assert main(argv + ["--mode", "pipeline"]) == 2
    err = capsys.readouterr().err
    assert "not finite" in err and err.count("\n") == 1


def test_rmatrix_closed_mode_past_an_overflowing_level_one_bracket(tmp_path, capsys):
    # at q = 1e150 the level-one primed brackets of a table pass the float
    # range: the build is refused there, the closed form alone is written
    out = tmp_path / "r.json"
    assert main(["rmatrix", "--q-re", "1e150", "--q-im", "0", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert set(payload["metadata"].values()) == {None}
    matrix = load_matrix(payload)
    assert np.isfinite(matrix).all()
    assert np.max(np.abs(matrix)) == pytest.approx(4.63, abs=0.01)


def test_roots_configuration_errors_exit_2(capsys):
    assert main(["roots", "--nmax", "-1"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # roots reads no spectral parameter
        main(["roots", "--zeta1", "0"])
    assert exc.value.code == 2


def test_unparsable_complex_option_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["rmatrix", "--zeta1", "abc"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--format", "csv"],
    ["roots", "--format", "csv"],
    ["rmatrix", "--seed", "3"],
    ["rmatrix", "--tol", "1e-12"],
    ["rmatrix", "--nmax", "80"],
    ["rmatrix", "--q-mod", "1.2"],
    ["verify", "--q-arg", "0.5"],
    ["roots", "--q-re", "0.7"],
    ["roots", "--order", "20"],
    ["rmatrix", "--order", "20"],
    ["verify", "--order", "20"],
])
def test_options_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["rmatrix", "--zeta1", "nan"],
    ["rmatrix", "--q-re", "nan"],
    ["verify", "--zeta1", "inf", "--checks", "ybe"],
])
def test_non_finite_options_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_each_subcommand_declares_only_the_options_it_reads():
    # roots reads only the rank, the grading and the depth of the listing;
    # rmatrix and verify build at fixed depths, so neither has --order and
    # rmatrix has no --nmax
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {name: {opt for action in parser._actions for opt in action.option_strings
                      if opt not in ("-h", "--help")}
               for name, parser in sub.choices.items()}
    shared = {"--m", "--n", "--grading", "--output"}
    point = shared | {"--q-re", "--q-im", "--zeta1", "--zeta2"}
    assert options == {
        "rmatrix": point | {"--format", "--mode"},
        "verify": point | {"--nmax", "--zeta3", "--seed", "--checks"},
        "roots": shared | {"--nmax"},
    }
    assert sum(len(opts) for opts in options.values()) == 27
