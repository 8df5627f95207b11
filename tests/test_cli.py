"""Command-line behaviour: subcommands, exit codes, JSON output."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixbounds import (build_canonical_flow, classify, cli, conductance, dhn, directed_cycle, lambda_constants, lazy,
                       load_chain, matrix_exponential, mixing, random_reversible, save_chain, selftest, spectral,
                       two_state)
from mixbounds.cli import run_cli
from mixbounds.generators import _MOST_STATES

from _families import tiny_mass_chain, two_blocks


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
    # a reversible chain also prints its eigenvalues
    chain_path = str(tmp_path / "m.json")
    run_cli(["gen", "two_state", "--delta", "0.1", "-o", chain_path])
    capsys.readouterr()
    assert run_cli(["analyze", chain_path]) == 0
    assert "eigenvalues: 1, -0.8   beta_max: 0.8" in capsys.readouterr().out


def _hexed(value):
    """``value`` with every float as its hex string, so equal means bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


@pytest.mark.parametrize("make", [lambda: random_reversible(8, 1), lambda: dhn(4), lambda: directed_cycle(5)],
                         ids=["reversible", "nonreversible", "periodic"])
def test_analyze_json_is_the_librarys_own_values(tmp_path, capsys, make):
    """Every key of ``analyze --json`` is the library's value for the chain
    it loads: its classification, lambda_constants, the eigenvalues of a
    reversible chain and the conductance, floats equal bit for bit."""
    path = tmp_path / "chain.json"
    save_chain(make(), path)
    chain = load_chain(path)
    cls = classify(chain)
    want = {"chain": chain.name, "states": chain.n, "irreducible": cls.irreducible, "period": cls.period,
            "aperiodic": cls.aperiodic, "reversible": cls.reversible, "min_self_loop": cls.min_self_loop}
    want["lambda_1"], want["lambda_bottom"] = lambda_constants(chain)
    if cls.reversible:
        betas, want["beta_max"] = spectral._eigenvalues(chain)
        want["betas"] = [float(b) for b in betas]
    want["conductance"], want["conductance_asym"], argmin = conductance(chain)
    want["argmin_cut"] = [chain.labels[i] for i in argmin]
    assert run_cli(["analyze", str(path), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert {k: _hexed(v) for k, v in got.items()} == {k: _hexed(v) for k, v in want.items()}


def test_gen_json_and_lazy_of(tmp_path, capsys):
    chain_path = tmp_path / "l.json"
    assert run_cli(["gen", "lazy_of", "--of", "two_state", "--delta", "0.1", "-o", str(chain_path), "--json"]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed == json.loads(chain_path.read_text())
    assert echoed["name"] == "lazy_of(two_state(delta=0.1))"
    assert echoed["meta"] == {"generator": "lazy_of", "delta": 0.1, "of": "two_state"}
    np.testing.assert_allclose(echoed["P"], [[0.55, 0.45], [0.45, 0.55]], rtol=0, atol=1e-15)


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


def test_one_parser_serves_every_call(tmp_path, capsys):
    """run_cli builds its parser once per process.  Each call still exits and
    prints as a fresh parser would, whatever flags the calls before it set,
    and --version still exits 0 on a second call."""
    base, target = str(tmp_path / "b.json"), str(tmp_path / "t.json")
    run_cli(["gen", "random_reversible", "--N", "6", "--seed", "3", "-o", base])
    run_cli(["gen", "lazy_of", "--of", "random_reversible", "--N", "6", "--seed", "3", "-o", target])
    capsys.readouterr()
    outputs = []
    for argv in (["compare", base, target, "--auto-flow", "--odd", "--from", "s1", "--eps", "0.25", "--json"],
                 ["compare", base, target, "--auto-flow", "--from", "s1", "--eps", "0.25", "--json"],
                 ["analyze", base, "--json"],
                 ["mix", base, "--from", "s1", "--eps", "0.25"]):
        code = run_cli(argv)
        outputs.append((code, capsys.readouterr()))
        args = cli._build_parser.__wrapped__().parse_args(argv)
        assert (args.handler(args), capsys.readouterr()) == outputs[-1]
    assert outputs[0] != outputs[1]  # --odd gates T8 on, and does not outlive its call
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            run_cli(["--version"])
        assert stop.value.code == 0 and capsys.readouterr().out.startswith("mixbounds ")


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


def test_compare_routing_flags_need_auto_flow(tmp_path, capsys):
    from mixbounds import build_canonical_flow, lazy, random_reversible, save_flow

    base = random_reversible(5, 1)
    target = lazy(base)
    base_path, target_path, flow_path = (str(tmp_path / name) for name in ("b.json", "t.json", "f.json"))
    save_chain(base, base_path)
    save_chain(target, target_path)
    save_flow(build_canonical_flow(base, target), flow_path)
    for flags in (["--odd"], ["--product"], ["--odd", "--product"]):
        rc = run_cli(["compare", base_path, target_path, "--flow", flow_path, *flags,
                      "--from", "s0", "--eps", "0.25"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--auto-flow" in captured.err
    for flags in (["--odd"], ["--product"]):  # without --flow either
        assert run_cli(["compare", base_path, target_path, *flags, "--from", "s0", "--eps", "0.25"]) == 2
        assert "--auto-flow" in capsys.readouterr().err
    # with neither --flow nor --auto-flow
    assert run_cli(["compare", base_path, target_path, "--from", "s0", "--eps", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "compare needs --flow FILE or --auto-flow" in captured.err


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


def test_compare_with_a_zero_product_gap_exits_zero(tmp_path, capsys):
    """The reversal product's lambda_1 is 0.0 in floats: T23 is not applicable."""
    from mixbounds import build_chain

    chain_path = str(tmp_path / "c.json")
    save_chain(build_chain(["a", "b", "c"], [[0.0, 1.0, 1e-16], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]), chain_path)
    assert run_cli(["compare", chain_path, chain_path, "--auto-flow", "--from", "a", "--eps", "0.25"]) == 0
    captured = capsys.readouterr()
    assert "T23   not applicable: reversal-product lambda_1 is 0.0 in floats" in captured.out
    assert "verdict: pass" in captured.out and captured.err == ""


def test_entry_point_exit_codes():
    """``python -m mixbounds.cli`` runs ``main``, which exits with ``run_cli``'s code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mixbounds.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    version = run("--version")
    assert version.returncode == 0 and version.stdout.startswith("mixbounds ")
    selftest_run = run("selftest", "--quiet")
    assert selftest_run.returncode == 0 and selftest_run.stderr == ""
    unknown = run("frobnicate")
    assert unknown.returncode == 2 and "invalid choice" in unknown.stderr


#: run in a fresh interpreter with scipy made unimportable: loads a chain,
#: analyzes it, mixes it on the continuized clock, compares it with its lazy
#: chain over an odd canonical flow and builds that flow, then prints the
#: flow's arrays and an expm as JSON
_FRESH_CHILD = """
import json, sys
sys.modules["scipy"] = None
import numpy as np
import mixbounds, mixbounds.cli
path, lazy_path, start = sys.argv[1:]
chain = mixbounds.load_chain(path)
assert mixbounds.cli.run_cli(["analyze", path, "--json"]) == 0
assert mixbounds.cli.run_cli(["mix", path, "--from", start, "--eps", "0.25", "--continuous"]) == 0
assert mixbounds.cli.run_cli(["compare", path, lazy_path, "--auto-flow", "--odd", "--from", start,
                              "--eps", "0.25", "--json"]) in (0, 1)
flow = mixbounds.build_canonical_flow(chain, mixbounds.lazy(chain), odd=True)
E = mixbounds.matrix_exponential(chain.P - np.eye(chain.n), 0.7)
print(json.dumps([flow._states.tolist(), flow._sizes.tolist(), flow._mass.tolist(), E.tolist()]))
"""


def test_a_fresh_process_loads_analyzes_and_mixes_without_scipy(tmp_path):
    """``import mixbounds``, ``load_chain``, ``analyze``, ``mix
    --continuous``, ``compare --auto-flow --odd``, the canonical router and
    ``matrix_exponential`` need numpy alone, and the flow and the
    exponential in that process equal this one's."""
    chain_path, lazy_path = tmp_path / "r.json", tmp_path / "lazy.json"
    save_chain(random_reversible(7, 2), chain_path)
    chain = load_chain(chain_path)
    save_chain(lazy(chain), lazy_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-c", _FRESH_CHILD, str(chain_path), str(lazy_path), chain.labels[0]],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    flow = build_canonical_flow(chain, lazy(chain), odd=True)
    E = matrix_exponential(chain.P - np.eye(chain.n), 0.7)
    assert json.loads(child.stdout.splitlines()[-1]) == [flow._states.tolist(), flow._sizes.tolist(),
                                                         flow._mass.tolist(), E.tolist()]


def test_gen_size_numpy_cannot_index_exits_two(tmp_path, capsys):
    """Rejected as bad input before anything is allocated."""
    out = tmp_path / "u.json"
    assert run_cli(["gen", "uniform_walk", "--N", "10000000000", "-o", str(out)]) == 2
    assert "uniform_walk's N" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["uniform_walk", "--N", "51"], "uniform_walk's N must be an integer in [2, 50]"),
    (["dhn", "--n", "26"], "dhn's n must be an integer in [2, 25]"),
], ids=["uniform_walk", "dhn"])
def test_gen_size_memory_cannot_hold_exits_two(monkeypatch, tmp_path, capsys, argv, message):
    """A size past the physical-memory bound (here lowered to 50 states) is
    refused before anything is allocated: exit 2, one stderr line naming the
    range, and no file.  The bound itself is a valid size."""
    monkeypatch.setattr("mixbounds.generators._MOST_STATES", 50)
    out = tmp_path / "c.json"
    assert run_cli(["gen", *argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and not out.exists()
    assert run_cli(["gen", argv[0], argv[1], str(int(argv[2]) - 1), "-o", str(out)]) == 0 and out.exists()


def test_the_generator_size_bound_fits_64_n_squared_bytes_in_physical_memory():
    """Building a chain peaks at about 8 dense n x n float arrays, so a
    generator takes at most the largest n with 64 n^2 bytes within physical
    memory; where the platform does not report its memory, the largest n
    numpy can index."""
    if "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", ()):
        assert _MOST_STATES == math.isqrt(sys.maxsize // 8)
        return
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 64 * _MOST_STATES**2 <= physical < 64 * (_MOST_STATES + 1) ** 2


@pytest.mark.parametrize("argv, message", [
    (["mix", "{chain}", "--from", "a", "--eps", "1"], "epsilon must be a number in (0, 1), got 1.0"),
    (["compare", "{chain}", "{chain}", "--auto-flow", "--from", "a", "--eps", "0.25", "--delta", "0.5"],
     "delta must be a number in (0, 0.5), got 0.5"),
    (["gen", "two_state", "--delta", "1", "-o", "{out}"], "two_state's delta must be a number in (0, 1), got 1.0"),
], ids=["mix-eps", "compare-delta", "gen-two_state-delta"])
def test_a_real_outside_its_interval_exits_two_naming_it(tmp_path, capsys, argv, message):
    """One stderr line, naming the open interval, and exit 2."""
    chain = tmp_path / "c.json"
    save_chain(two_state(0.25), chain)
    out = tmp_path / "o.json"
    assert run_cli([arg.format(chain=chain, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and not out.exists()


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


def test_analyze_json_nested_too_deep_exits_two(tmp_path, capsys):
    chain_path = tmp_path / "deep.json"
    chain_path.write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli(["analyze", str(chain_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid JSON" in err and err.count("\n") == 1


def test_compare_names_a_huge_mass_in_a_short_line(tmp_path, capsys):
    from mixbounds import two_state, uniform_walk

    base_path, target_path, flow_path = (tmp_path / "m.json", tmp_path / "u.json", tmp_path / "f.json")
    save_chain(two_state(0.25), base_path)
    save_chain(uniform_walk(2, labels=["a", "b"]), target_path)
    flow_path.write_text(json.dumps({"paths": [{"path": [0, 1], "mass": 10**400}]}))
    assert run_cli(["compare", str(base_path), str(target_path), "--flow", str(flow_path),
                    "--from", "a", "--eps", "0.25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: path a->b: mass 1000") and len(err) < 200


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


def test_mix_continuous_on_a_chain_too_ill_conditioned_for_the_ladder_exits_two(tmp_path, capsys):
    # E(2^20) of this chain drifts past the row-sum check below the cap
    chain_path = tmp_path / "blocks.json"
    save_chain(two_blocks(70, math.log(5) / (3 * 2**19.2)), chain_path)
    assert run_cli(["mix", str(chain_path), "--from", "0", "--eps", "0.1", "--continuous"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lost stochasticity" in err


def test_a_failed_self_check_exits_three_not_one(tmp_path, capsys, monkeypatch):
    """A self-check that fires is no verdict: one stderr line, no traceback,
    and exit code 3."""
    chain_path = tmp_path / "chain.json"
    save_chain(two_blocks(5, 0.01), chain_path)

    def rise(*args, **kwargs):
        raise AssertionError("TV to stationarity increased at step 2 (from step 1): 0.1 -> 0.2")

    monkeypatch.setattr(mixing, "_check_rise", rise)
    for args in (["mix", str(chain_path), "--from", "0", "--eps", "0.25"],
                 ["compare", str(chain_path), str(chain_path), "--auto-flow", "--from", "0", "--eps", "0.25"]):
        assert run_cli(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal check failed: TV to stationarity increased at step 2 (from step 1): 0.1 -> 0.2\n"


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
