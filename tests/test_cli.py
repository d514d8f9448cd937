"""Command-line behavior: payload shape, exit codes, determinism."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from reecurve.cli import main
from reecurve.commands import build_parser
from reecurve.identities import CheckResult
from reecurve.params import ree_params
from reecurve.support import order_values

D_ORDERS_S1 = ["0", "1", "3", "6", "9", "27", "30", "54", "81", "84", "108", "162", "243", "729"]


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_params_json(capsys):
    code, doc = run_json(capsys, ["params", "--s", "1"])
    assert code == 0
    assert doc["schema"] == 1
    assert doc["q"] == "27" and doc["genus"] == "3627" and doc["m"] == "1036"


def test_params_s2(capsys):
    code, doc = run_json(capsys, ["params", "--s", "2"])
    assert code == 0 and doc["m"] == "66124"


def test_s_zero_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["params", "--s", "0"])
    assert exc.value.code == 2


def test_params_past_the_int_string_limit_is_usage_error(capsys):
    # the report writes n_rational = q^3 + 1, its longest number, in
    # decimal; the named bound is the last level whose report Python writes
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        main(["params", "--s", "3000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    bound = int(re.search(r"the largest s whose report fits is (\d+)", err)[1])
    assert len(str(ree_params(bound).n_rational)) <= limit
    assert ree_params(bound + 1).n_rational >= 10**limit
    code, doc = run_json(capsys, ["params", "--s", str(bound)])
    assert code == 0 and doc["s"] == str(bound)
    with pytest.raises(SystemExit) as exc:
        main(["params", "--s", str(bound + 1)])
    assert exc.value.code == 2
    assert f"is {bound}" in capsys.readouterr().err


@pytest.fixture
def default_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.usefixtures("default_digit_limit")
def test_profiles_and_orders_past_the_int_string_limit_are_usage_errors(
    capsys, monkeypatch, tmp_path
):
    # weierstrass writes the audit's degree and orders writes q^2, each
    # its report's longest number; a level past the bound is refused
    # before any route runs or --out is tried
    import reecurve.orders
    import reecurve.series

    def never(*args, **kwargs):
        raise AssertionError("the route ran")

    out = tmp_path / "never.json"
    cases = (
        (["weierstrass", "--s", "1001", "--point", "origin"], 1000),
        (["weierstrass", "--s", "1001", "--point", "generic", "--series", "E"], 1000),
        (["orders", "--s", "2253", "--series", "E"], 2252),
        (["orders", "--s", "10000", "--backend", "series", "--seed", "0"], 2252),
    )
    with monkeypatch.context() as patch:
        patch.setattr(reecurve.series, "origin_point", never)
        patch.setattr(reecurve.series, "random_point", never)
        patch.setattr(reecurve.orders, "order_sequence", never)
        for argv, bound in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"{argv[2]} gives numbers longer than 4300 digits" in err
            assert err.rstrip().endswith(f"the largest s whose report fits is {bound}")
    assert not out.exists()
    code, doc = run_json(capsys, ["weierstrass", "--s", "1000", "--point", "origin"])
    assert code == 0 and len(doc["audit"]["degree"]) <= 4300
    assert ree_params(2252).q ** 2 < 10**4300 <= ree_params(2253).q ** 2


def test_symbolic_backend_runs_above_s1(capsys):
    code, doc = run_json(capsys, ["orders", "--s", "2", "--series", "E"])
    assert code == 0
    assert doc["orders"] == [str(v) for v in order_values(ree_params(2), "E")]
    assert doc["config"]["backend"] == "symbolic"


# the sampled route runs one fixed configuration: no command takes an
# extension degree or a series window, on any route or point
_REMOVED_OPTIONS = [
    [command, *route, flag, "6"]
    for command, route in (
        ("verify", ("--backend", "series", "--seed", "0")),
        ("orders", ("--backend", "series", "--seed", "0")),
        ("weierstrass", ("--point", "generic", "--seed", "0")),
    )
    for flag in ("--k", "--precision")
]


@pytest.mark.parametrize("argv", [
    ["weierstrass", "--backend", "symbolic"],
    ["weierstrass", "--trials", "2"],
    # read by the sampled route only
    ["orders", "--seed", "0"],
    ["orders", "--backend", "symbolic", "--trials", "3"],
    # the origin is one fixed rational point
    ["weierstrass", "--point", "origin", "--seed", "0"],
    # the exact catalog is one fixed computation
    ["verify", "--seed", "5"],
    ["verify", "--s", "1", "--trials", "2", "--identity", "A9"],
    # no route at all
    ["params", "--seed", "0"],
    ["support", "--backend", "series"],
] + _REMOVED_OPTIONS)
def test_unread_flag_is_usage_error(argv):
    # a flag the command would ignore is refused rather than echoed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_series_backend_requires_seed():
    with pytest.raises(SystemExit) as exc:
        main(["orders", "--s", "1", "--backend", "series"])
    assert exc.value.code == 2


# the invocations a chosen extension or window used to refuse stay refused,
# now because no command takes either option

@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_extension_without_points_is_usage_error(k):
    with pytest.raises(SystemExit) as exc:
        main(["orders", "--s", "1", "--backend", "series", "--seed", "0", "--k", str(k)])
    assert exc.value.code == 2


def test_generic_point_refuses_rational_extension():
    with pytest.raises(SystemExit) as exc:
        main(["weierstrass", "--s", "1", "--point", "generic", "--seed", "0", "--k", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("s,window", [(1, 55), (2, 1), (2, 487)])
def test_short_series_window_is_usage_error(s, window):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--s", str(s), "--backend", "series", "--seed", "0",
              "--precision", str(window)])
    assert exc.value.code == 2


def test_unknown_identity_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "ZZZ"])
    assert exc.value.code == 2


def test_verify_single_identity(capsys):
    code, doc = run_json(capsys, ["verify", "--s", "1", "--identity", "A9"])
    assert code == 0
    assert len(doc["results"]) == 14
    assert all(r["ok"] for r in doc["results"])
    assert doc["summary"]["failed"] == "0"


def test_verify_failure_writes_witness(tmp_path, capsys, monkeypatch):
    bad = CheckResult(
        identity="A9",
        instance="f=x",
        backend="symbolic",
        ok=False,
        points=0,
        witness="forced failure",
        skipped=False,
    )
    monkeypatch.setattr("reecurve.identities.verify_catalog", lambda *a, **k: [bad])
    out = tmp_path / "report.json"
    code = main(["verify", "--s", "1", "--identity", "A9", "--out", str(out)])
    assert code == 1
    witness = tmp_path / "report.json.witness.json"
    assert witness.exists()
    doc = json.loads(witness.read_text())
    assert doc["failures"][0]["witness"] == "forced failure"


def test_orders_symbolic_d(capsys):
    code, doc = run_json(capsys, ["orders", "--s", "1", "--series", "D"])
    assert code == 0
    assert doc["orders"] == D_ORDERS_S1
    assert doc["labels"][-1] == "q2"


def test_orders_series_backend(capsys):
    code, doc = run_json(
        capsys,
        ["orders", "--s", "1", "--series", "E", "--backend", "series",
         "--seed", "1", "--trials", "2"],
    )
    assert code == 0
    assert doc["orders"] == ["0", "1", "9", "27", "54", "243", "729"]
    assert doc["config"]["backend"] == "series"


def test_orders_csv(capsys):
    code = main(["orders", "--s", "1", "--series", "E", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "position,order,label"
    assert len(lines) == 8
    assert lines[-1] == "6,729,q2"


def test_orders_deterministic_bytes(tmp_path):
    # identical config must give byte-identical reports
    argv = ["orders", "--s", "1", "--series", "D", "--backend", "series",
            "--seed", "7", "--trials", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_support_writes_tables(tmp_path, capsys):
    code = main(["support", "--s", "1", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["files"]["appendix_plain.csv"]["rows"] == "36"
    assert doc["files"]["appendix_mixed.csv"]["rows"] == "56"
    assert any("collides" in w for w in doc["warnings"])
    assert err == "".join(f"warning: {w}\n" for w in doc["warnings"])
    golden = __file__.rsplit("/", 1)[0] + "/golden"
    # the report, its collision warning included, is pinned byte for byte
    with open(f"{golden}/support_s1.json") as fh:
        assert out == fh.read()
    for name in ("appendix_plain.csv", "appendix_mixed.csv"):
        emitted = (tmp_path / name).read_text()
        with open(f"{golden}/{name}") as fh:
            assert emitted == fh.read()


@pytest.mark.parametrize("argv", [
    ["params", "--s", "1"],
    ["verify", "--s", "1", "--identity", "nu1"],
], ids=["params", "verify"])
def test_out_in_a_missing_directory_is_an_error_line(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "missing" / "report.json")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing" in err


def test_support_out_on_a_file_is_an_error_line(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("")
    code = main(["support", "--s", "1", "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err


@pytest.mark.parametrize("argv,route", [
    (["verify", "--s", "1"], "reecurve.identities.verify_catalog"),
    (["orders", "--s", "1"], "reecurve.orders.order_sequence"),
    (["weierstrass", "--s", "1", "--point", "generic"],
     "reecurve.weierstrass.vanishing_orders"),
], ids=["verify", "orders", "weierstrass"])
def test_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch, argv, route):
    def run(*args, **kwargs):
        raise AssertionError("the route ran before --out was checked")

    monkeypatch.setattr(route, run)
    code = main(argv + ["--out", str(tmp_path / "missing" / "x.json")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing" in err


def test_a_failed_run_leaves_the_out_path_as_it_was(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ArithmeticError("forced failure")

    monkeypatch.setattr("reecurve.identities.verify_catalog", fail)
    report = tmp_path / "report.json"
    argv = ["verify", "--s", "1", "--out", str(report)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: forced failure\n"
    assert not report.exists()
    report.write_text("an earlier report\n")
    assert main(argv) == 1
    assert report.read_text() == "an earlier report\n"


def test_weierstrass_origin(capsys):
    code, doc = run_json(capsys, ["weierstrass", "--s", "1", "--series", "D"])
    assert code == 0
    assert doc["weight"] == "567"
    assert doc["is_weierstrass"] is True
    assert doc["matches_rational_profile"] is True
    assert doc["jorders"][-1] == "1036"
    assert doc["audit"]["degree"] == "11160828"


def test_weierstrass_generic(capsys):
    code, doc = run_json(
        capsys, ["weierstrass", "--s", "1", "--point", "generic", "--seed", "5"]
    )
    assert code == 0
    assert doc["weight"] == "0"
    assert doc["is_weierstrass"] is False
    assert doc["jorders"] == doc["epsilons"]


def test_weierstrass_deterministic(tmp_path):
    argv = ["weierstrass", "--s", "1", "--point", "rational", "--seed", "3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reecurve", "params", "--s", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q0"] == "3"


GOLDEN_REPORTS = [
    # m = 18 and extension-6 sampling
    ("weierstrass_s1_generic_seed5.json",
     ["weierstrass", "--s", "1", "--point", "generic", "--seed", "5"]),
    # m = 5
    ("verify_s2_series_seed0_trials3.json",
     ["verify", "--s", "2", "--backend", "series", "--seed", "0", "--trials", "3"]),
    # m = 7
    ("verify_s3_series_seed0_trials3.json",
     ["verify", "--s", "3", "--backend", "series", "--seed", "0", "--trials", "3"]),
    ("weierstrass_s3_origin_E.json",
     ["weierstrass", "--s", "3", "--point", "origin", "--series", "E"]),
    ("orders_s1_D_series_seed0_trials2.json",
     ["orders", "--s", "1", "--series", "D", "--backend", "series", "--seed", "0",
      "--trials", "2"]),
    # m = 42: points over GF(q^6) at s = 3
    ("orders_s3_E_series_seed0_trials2.json",
     ["orders", "--s", "3", "--series", "E", "--backend", "series", "--seed", "0",
      "--trials", "2"]),
    ("weierstrass_s3_generic_seed5_E.json",
     ["weierstrass", "--s", "3", "--point", "generic", "--seed", "5", "--series", "E"]),
    # the exact route
    ("verify_s1_symbolic.json", ["verify", "--s", "1"]),
    # the point virtual together with the lowest level's collision skips
    ("verify_s1_series_seed0.json",
     ["verify", "--s", "1", "--backend", "series", "--seed", "0"]),
    ("orders_s1_E_symbolic.json", ["orders", "--s", "1", "--series", "E"]),
    # the D scan: the exact ring's product kernel at its largest entries
    ("orders_s1_D_symbolic.json", ["orders", "--s", "1", "--series", "D"]),
    # the pivot witnesses at s = 2, where the echelon's entries are largest
    ("orders_s2_D_symbolic.json", ["orders", "--s", "2", "--series", "D"]),
    # the pivot witnesses at s = 4, the first stable level
    ("orders_s4_D_symbolic.json", ["orders", "--s", "4", "--series", "D"]),
    ("orders_s4_E_symbolic.json", ["orders", "--s", "4", "--series", "E"]),
    # the sampled scan through the merge at s = 4 (m = 54)
    ("orders_s4_D_series_seed0_trials2.json",
     ["orders", "--s", "4", "--series", "D", "--backend", "series", "--seed", "0",
      "--trials", "2"]),
    # the catalog read through the default window at s = 4 (m = 9)
    ("verify_s4_series_seed0_trials1.json",
     ["verify", "--s", "4", "--backend", "series", "--seed", "0", "--trials", "1"]),
    # a profile scanned on the point's rows, its last order m above q^2
    ("weierstrass_s2_rational_seed0_D.json",
     ["weierstrass", "--s", "2", "--point", "rational", "--seed", "0", "--series", "D"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_REPORTS, ids=[g[0] for g in GOLDEN_REPORTS])
def test_report_matches_golden(capsys, name, argv):
    # pinned byte for byte: field-arithmetic changes must not move a report
    assert main(argv) == 0
    golden = __file__.rsplit("/", 1)[0] + "/golden"
    with open(f"{golden}/{name}") as fh:
        assert capsys.readouterr().out == fh.read()


def _readme_commands() -> list[str]:
    """The `reecurve ...` lines of the README's CLI block, comments stripped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("reecurve ")]


def test_readme_commands_parse():
    # the documented commands name only options the parser has
    lines = _readme_commands()
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
