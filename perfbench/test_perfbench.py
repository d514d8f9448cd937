"""Tests of the benchmark itself: the checks reject tampered reports, the
tracer's self times add up, and BENCHMARK.json lists what run.py reports.

    python3 -m pytest perfbench
"""

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402
from reecurve.cli import main as cli_main  # noqa: E402


def _report(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(argv) == 0
    return buf.getvalue()


def _tampered(text, edit):
    body = json.loads(text)
    edit(body)
    return json.dumps(body)


def test_cli_checks_accept_and_reject():
    cases = [
        (["orders", "--s", "1", "--series", "E"],
         lambda b: b["orders"].__setitem__(2, str(int(b["orders"][2]) + 1))),
        (["verify", "--s", "1", "--identity", "A1"],
         lambda b: b["summary"].__setitem__("failed", "1")),
        (["weierstrass", "--s", "1", "--point", "rational", "--seed", "3"],
         lambda b: b.__setitem__("weight", str(int(b["weight"]) - 1))),
        (["weierstrass", "--s", "1", "--point", "origin", "--series", "E"],
         lambda b: b.__setitem__("matches_rational_profile", False)),
        (["weierstrass", "--s", "1", "--point", "origin"],
         lambda b: b["audit"].__setitem__("degree", str(int(b["audit"]["degree"]) + 1))),
        (["params", "--s", "1"], lambda b: b.__setitem__("q", "9")),
    ]
    for argv, edit in cases:
        text = _report(argv)
        problems = checks.check_cli(argv, text)
        if argv[0] == "verify":
            # a one-identity run is short of the full catalog on purpose
            assert problems == [f"verify: {json.loads(text)['summary']['total']} "
                                f"instances, not {checks.CATALOG_INSTANCES}"]
            problems = checks.check_cli(argv, _tampered(text, lambda b: b["summary"]
                                                        .__setitem__("total", "452")))
        assert problems == [], (argv, problems)
        assert checks.check_cli(argv, _tampered(text, edit)), argv
    assert checks.check_cli(["orders"], "not json") == ["report is not JSON"]


def test_generic_weight_must_be_zero():
    argv = ["weierstrass", "--s", "1", "--point", "generic", "--seed", "0"]
    body = {"command": "weierstrass", "weight": "0", "matches_rational_profile": False,
            "audit": {"degree": "6", "weight_per_rational_point": "3", "n_rational": "2"}}
    assert checks.check_cli(argv, json.dumps(body)) == []
    body["weight"] = "2"
    assert checks.check_cli(argv, json.dumps(body))


def test_session_check_rejects_tampered_results():
    results, times = session.run(seed=1)
    assert set(times) == {"verify_s", "orders_s", "weierstrass_s"}
    assert checks.check_session(results) == []
    edits = [
        lambda r: r[0]["orders"].__setitem__(1, 2),
        lambda r: r[1].__setitem__("omitted", 0),
        lambda r: next(x for x in r if x.get("point") == "generic").__setitem__("weight", 1),
        lambda r: r[-1].__setitem__("failed", 1),
        lambda r: r.pop(),
    ]
    for edit in edits:
        bad = copy.deepcopy(results)
        edit(bad)
        assert checks.check_session(bad)


def test_self_time_is_span_minus_children(tmp_path):
    tr = tracer.Tracer()
    leaf = tr.wrap("leaf", lambda: sum(range(20000)))

    def body():
        leaf()
        leaf()
        return sum(range(20000))

    top = tr.wrap("top", body)
    top()
    top()
    prefix = str(tmp_path / "t")
    tr.dump(prefix, {})
    header, arrays = tracer.load(prefix)
    agg = tracer.aggregate(header, arrays)
    assert agg["top"]["calls"] == 2 and agg["leaf"]["calls"] == 4
    parent = arrays[0]
    assert [parent[i] for i in range(6)] == [-1, 0, 0, -1, 3, 3]
    top_s, leaf_s = agg["top"], agg["leaf"]
    assert abs(top_s["incl_s"] - top_s["self_s"] - leaf_s["incl_s"]) < 1e-9
    assert leaf_s["self_s"] == leaf_s["incl_s"]


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for kind, rows in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[kind]] == [(n, u) for n, u, _ in rows]
    assert all(m["bound"] <= spec["end_to_end"][1]["bound"] for m in spec["end_to_end"])
    assert spec["end_to_end"][1]["name"] == "setup_s"


def test_list_prints_every_metric():
    buf = io.StringIO()
    argv = sys.argv
    sys.argv = ["run.py", "--list"]
    try:
        with redirect_stdout(buf):
            assert run.main() == 0
    finally:
        sys.argv = argv
    lines = buf.getvalue().splitlines()
    for name, unit, _ in run.END_TO_END + tuple(run.PER_LAYER):
        assert any(line.split()[:2] == [name, unit] for line in lines), name


def test_traced_op_report_is_byte_identical(tmp_path):
    import os
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    op = ["weierstrass", "--s", "1", "--point", "rational", "--seed", "2"]
    plain = subprocess.run([sys.executable, "-m", "reecurve", *op], env=env,
                           capture_output=True, timeout=60, check=True).stdout
    prefix = str(tmp_path / "t")
    traced = subprocess.run([sys.executable, str(HERE / "traced.py"), prefix, "--", *op],
                            env=env, capture_output=True, timeout=60, check=True).stdout
    assert traced == plain
    agg = tracer.aggregate(*tracer.load(prefix))
    assert agg["cli.main"]["calls"] == 1
    assert agg["weierstrass.vanishing_orders"]["calls"] == 1
    assert agg["gf.mul"]["calls"] > 0
