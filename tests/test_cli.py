"""Command-line behaviour: subcommands, exit codes, JSON output."""

import json

import numpy as np
import pytest

from mixbounds import load_chain, save_chain, selftest
from mixbounds.cli import run_cli

from _families import tiny_mass_chain


def test_gen_and_mix(tmp_path, capsys):
    chain_path = str(tmp_path / "m.json")
    assert run_cli(["gen", "two_state", "--delta", "0.1", "-o", chain_path]) == 0
    capsys.readouterr()
    assert run_cli(["mix", chain_path, "--from", "a", "--eps", "0.25", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["time"] == 4
    assert out["achieved_tv"] <= 0.25
    assert run_cli(["mix", chain_path, "--from", "all", "--eps", "0.25"]) == 0
    assert "t = 4" in capsys.readouterr().out


def test_gen_records_seed_meta(tmp_path):
    chain_path = tmp_path / "r.json"
    assert run_cli(["gen", "random_reversible", "--N", "5", "--seed", "7", "-o", str(chain_path)]) == 0
    data = json.loads(chain_path.read_text())
    assert data["meta"]["seed"] == 7
    assert data["meta"]["generator"] == "random_reversible"


def test_gen_round_trip_matches_library(tmp_path):
    chain_path = tmp_path / "d.json"
    assert run_cli(["gen", "dhn", "--n", "4", "-o", str(chain_path)]) == 0
    from mixbounds import dhn

    np.testing.assert_array_equal(load_chain(chain_path).P, dhn(4).P)


def test_analyze_text_and_json(tmp_path, capsys):
    chain_path = str(tmp_path / "c3.json")
    run_cli(["gen", "directed_cycle", "--k", "3", "-o", chain_path])
    capsys.readouterr()
    assert run_cli(["analyze", chain_path]) == 0
    text = capsys.readouterr().out
    assert "period: 3" in text
    assert "continuized quantities only" in text
    assert run_cli(["analyze", chain_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["period"] == 3
    assert data["conductance"] == pytest.approx(1.5, abs=1e-12)


def test_compare_flow_file_and_auto(tmp_path, capsys):
    base_path = str(tmp_path / "m.json")
    target_path = str(tmp_path / "u.json")
    run_cli(["gen", "two_state", "--delta", "0.25", "-o", base_path])
    run_cli(["gen", "uniform_walk", "--N", "2", "-o", target_path])
    capsys.readouterr()
    rc = run_cli(
        ["compare", base_path, target_path, "--auto-flow", "--odd",
         "--from", "a", "--eps", "0.25", "--json"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    t8 = next(e for e in report["entries"] if e["theorem"] == "T8")
    assert t8["applicable"] and t8["holds"]
    # non-odd auto flow gates the odd-flow bound off but keeps the report passing
    rc = run_cli(
        ["compare", base_path, target_path, "--auto-flow",
         "--from", "a", "--eps", "0.25", "--json"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    t8 = next(e for e in report["entries"] if e["theorem"] == "T8")
    assert not t8["applicable"] and "odd" in t8["reason"]


def test_compare_product_flow(tmp_path, capsys):
    base_path = str(tmp_path / "d.json")
    target_path = str(tmp_path / "u.json")
    run_cli(["gen", "dhn", "--n", "2", "-o", base_path])
    run_cli(["gen", "uniform_walk", "--N", "4", "-o", target_path])
    capsys.readouterr()
    rc = run_cli(
        ["compare", base_path, target_path, "--auto-flow", "--product",
         "--from", "0", "--eps", "0.25", "--json"]
    )
    # the reversal product of this walk is reducible, so routing over it fails
    assert rc == 2
    err = capsys.readouterr().err
    assert "irreducible" in err


def test_compare_with_saved_flow(tmp_path, capsys):
    from mixbounds import build_canonical_flow, save_flow, two_state, uniform_walk

    base = two_state(0.25)
    target = uniform_walk(2, labels=["a", "b"])
    base_path, target_path, flow_path = (
        str(tmp_path / "m.json"),
        str(tmp_path / "u.json"),
        str(tmp_path / "f.json"),
    )
    from mixbounds import save_chain

    save_chain(base, base_path)
    save_chain(target, target_path)
    save_flow(build_canonical_flow(base, target, odd=True), flow_path)
    rc = run_cli(
        ["compare", base_path, target_path, "--flow", flow_path,
         "--from", "a", "--eps", "0.25"]
    )
    assert rc == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "two_state", "--delta", "0.1"])  # missing -o
    assert exc.value.code == 2
    assert "-o" in capsys.readouterr().err
    # bad generator parameters are input errors, also exit 2
    assert run_cli(["gen", "two_state", "--delta", "7", "-o", str(tmp_path / "x.json")]) == 2
    assert "delta" in capsys.readouterr().err
    # unreadable chain file
    assert run_cli(["analyze", str(tmp_path / "missing.json")]) == 2


def test_analyze_ill_conditioned_exits_two(tmp_path, capsys):
    chain_path = tmp_path / "tiny.json"
    save_chain(tiny_mass_chain(), chain_path)
    assert run_cli(["analyze", str(chain_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_truncated_json_exits_two(tmp_path, capsys):
    chain_path = tmp_path / "cut.json"
    for content in (
        b'{"states": ["a", "b"], "P": [[0.5, 0.5], [0.5',
        b'{"states": ["a", "b"], "P": ' + b"1" * 4301 + b"}",  # past Python's integer digit limit
        b'{"states": ["\xe9", "b"], "P": [[0.5, 0.5], [0.5, 0.5]]}',  # not UTF-8
    ):
        chain_path.write_bytes(content)
        assert run_cli(["analyze", str(chain_path)]) == 2, content[:40]
        assert capsys.readouterr().err.startswith("error:")


def test_compare_malformed_flow_exits_two(tmp_path, capsys):
    from mixbounds import two_state, uniform_walk

    base_path, target_path, flow_path = (tmp_path / "m.json", tmp_path / "u.json", tmp_path / "f.json")
    save_chain(two_state(0.25), base_path)
    save_chain(uniform_walk(2, labels=["a", "b"]), target_path)
    malformed = [
        {"paths": [{"path": [0, 1]}]},  # no mass
        {"paths": [{"path": [0, 1], "mass": "lots"}]},
        {"paths": [{"mass": 0.25}]},  # no path
        {"paths": [{"path": 1, "mass": 0.25}]},
        {"paths": 5},
        [],
        {"paths": [{"path": [], "mass": 0.25}]},  # empty path
        {"paths": [{"path": [0, 1.7], "mass": 0.25}]},
        {"paths": [{"path": [True, 1], "mass": 0.25}]},
        {"paths": [{"path": ["0", 1], "mass": 0.25}]},
        {"paths": [{"path": [0, 1], "mass": "0.25"}]},
        {"paths": [{"path": [0, 1], "mass": True}]},
        {"paths": [{"path": [0, 1], "mass": 10**400}]},  # too large for a float
    ]
    for data in malformed:
        flow_path.write_text(json.dumps(data))
        rc = run_cli(["compare", str(base_path), str(target_path), "--flow", str(flow_path),
                      "--from", "a", "--eps", "0.25"])
        assert rc == 2, data
        assert capsys.readouterr().err.startswith("error:")
    flow_path.write_text('{"paths": [')
    assert run_cli(["compare", str(base_path), str(target_path), "--flow", str(flow_path),
                    "--from", "a", "--eps", "0.25"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_compare_size_mismatch_exits_two(tmp_path, capsys):
    from mixbounds import dhn, uniform_walk

    base_path, target_path, flow_path = (tmp_path / "b.json", tmp_path / "t.json", tmp_path / "f.json")
    save_chain(dhn(2), base_path)
    save_chain(uniform_walk(3), target_path)
    flow_path.write_text(json.dumps({"paths": []}))
    assert run_cli(["compare", str(base_path), str(target_path), "--flow", str(flow_path),
                    "--from", "0", "--eps", "0.25"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_duplicate_labels_exits_two(tmp_path, capsys):
    chain_path = tmp_path / "dup.json"
    for states in (["a", "a"], 5, None):  # repeated labels, or no list of labels
        chain_path.write_text(json.dumps({"states": states, "P": [[0.5, 0.5], [0.5, 0.5]]}))
        assert run_cli(["analyze", str(chain_path)]) == 2, states
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("P", [
    "xy",
    [[0.5, "q"], [0.5, 0.5]],
    [[0.5, 0.5], [1.0]],
    [[10**400, 0.5], [0.5, 0.5]],
], ids=["string", "non-numeric-entry", "ragged", "too-large-for-a-float"])
def test_analyze_malformed_matrix_exits_two(tmp_path, capsys, P):
    chain_path = tmp_path / "bad.json"
    chain_path.write_text(json.dumps({"states": ["a", "b"], "P": P}))
    assert run_cli(["analyze", str(chain_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_mix_continuous_past_the_cap_exits_two(tmp_path, capsys):
    chain_path = tmp_path / "slow.json"
    chain_path.write_text(json.dumps({"states": ["a", "b"], "P": [[1 - 1e-8, 1e-8], [1e-8, 1 - 1e-8]]}))
    assert run_cli(["mix", str(chain_path), "--from", "a", "--eps", "0.25", "--continuous"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_selftest_json_reports_no_failures(capsys):
    assert run_cli(["selftest", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["failed"] == 0 and out["checks"]
    assert all(check["passed"] for check in out["checks"])


def test_selftest_passes(capsys):
    assert run_cli(["selftest", "--quiet"]) == 0
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_selftest_prints_each_check_and_counts_failures(monkeypatch, capsys):
    checks = [("one", True, "unused"), ("two", False, "why"), ("three", False, "")]
    monkeypatch.setattr(selftest, "_checks", lambda: iter(checks))
    assert run_cli(["selftest"]) == 1
    out = capsys.readouterr().out
    assert out == "[PASS] one\n[FAIL] two  (why)\n[FAIL] three\nselftest: 2 check(s) failed\n"
    assert run_cli(["selftest", "--quiet"]) == 1
    assert capsys.readouterr().out == ""
