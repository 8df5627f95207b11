"""The probe counter in ``tools/walk_probes.py``."""

import importlib.util
from pathlib import Path

from mixbounds import mixing

TOOL = Path(__file__).resolve().parents[1] / "tools" / "walk_probes.py"
CHAINS = ["random_reversible:N=6,seed=1", "dhn:n=3"]


def _tool():
    spec = importlib.util.spec_from_file_location("walk_probes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_walk_probes_counts_each_clock_on_two_small_chains(capsys):
    """Twelve queries per chain and clock; the discrete clock sums no
    series, the ITP phase is a part of the continuized probes, and the walk's
    own functions are back in place afterwards."""
    tool, check_rise, rung = _tool(), mixing._check_rise, mixing._Ladder.rung
    assert tool.main(CHAINS) == 0
    assert mixing._check_rise is check_rise and mixing._Ladder.rung is rung
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["clock", "queries", "full", "probes", "row", "probes", "series", "rungs"]
    table = {line[:12].strip(): [int(v) for v in line[12:].split()] for line in lines[1:]}
    assert list(table) == ["discrete", "continuized", "ITP phase"]
    discrete, continuized, itp = table.values()
    assert discrete[0] == continuized[0] == itp[0] == 24
    assert discrete[1] > 0 and discrete[3] == 0
    assert 0 < itp[1] + itp[2] < continuized[1] + continuized[2] and itp[3] == continuized[3]


def test_walk_probes_prints_each_querys_result_with_times(capsys):
    assert _tool().main(["--times", CHAINS[0]]) == 0
    results = [line for line in capsys.readouterr().out.splitlines() if "eps=" in line]
    assert len(results) == 24 and all("MixingResult(" in line for line in results)
