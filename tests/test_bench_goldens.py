"""Golden JSON reports of the benchmark's own commands.

Every ``sampling`` and ``oracle`` command of bench/workloads.py at seed 1
must reproduce its stored report in tests/golden/bench/, byte for byte
after dropping ``wall_time_s``, ``problem.path`` and the CSV path.  Each
golden also stores its command, the problem paths reduced to their file
names, so a change to the workloads shows up here too.

Regenerate after an intended report or workload change with

    PYTHONPATH=src python tests/test_bench_goldens.py

and name every changed file in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from einvex.cli import run

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
GOLDEN = HERE / "golden" / "bench"
SEED = 1
WORKLOADS = ("sampling", "oracle")


def _commands(workloads, workdir):
    """{golden name: argv} of every command of the benchmarked workloads."""
    out = {}
    for name in WORKLOADS:
        for i, cmd in enumerate(workloads.WORKLOADS[name](SEED, REPO, workdir).commands):
            csv = str(Path(workdir) / "out.csv")
            out[f"{name}-{i}"] = [csv if a == workloads.CSV_PATH else a for a in cmd.argv]
    return out


def _report(argv):
    """The command, exit code and JSON report, minus the machine-dependent fields, as text."""
    code, text = run(argv)
    rep = json.loads(text)
    rep.pop("wall_time_s")
    rep["problem"].pop("path")
    if "csv" in rep:
        rep["csv"].pop("path")
    shown = [Path(a).name if a.endswith((".json", ".csv")) else a for a in argv]
    return json.dumps({"argv": shown, "exit_code": code, "report": rep},
                      indent=2, sort_keys=True) + "\n"


@pytest.fixture()
def commands(workloads, tmp_path):
    return _commands(workloads, tmp_path)


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_benchmark_command_matches_golden(commands, name):
    assert _report(commands[name]) == (GOLDEN / f"{name}.json").read_text()


def test_every_benchmark_command_has_a_golden(commands):
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(commands)


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(REPO / "bench"))
    import workloads

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cmds = _commands(workloads, tmp)
        for name, argv in cmds.items():
            (GOLDEN / f"{name}.json").write_text(_report(argv))
    print(f"wrote {len(cmds)} reports to {GOLDEN}", file=sys.stderr)
