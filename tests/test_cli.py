"""Command line behavior: formatting, exit codes, and JSON output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from burstyx.cli import main


def test_table_human_readable(capsys):
    assert main(["table", "--m", "4", "--n", "3", "--p", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "4x3" in out
    assert "composite achievable" in out
    assert "regime mid" in out


def test_table_json(capsys):
    assert main(["table", "--m", "4", "--n", "3", "--p", "0.5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["composite"] == pytest.approx(4.0)
    assert data["dof"] == pytest.approx(1.0)
    assert data["regime"] == "mid"


def test_table_json_open_regime_leaves_dof_null(capsys):
    assert main(["table", "--m", "4", "--n", "3", "--p", "0.8", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dof"] is None
    assert data["regime"] == "open"


def test_curves_header_and_known_row(capsys):
    rc = main(["curves", "--sweep", "p", "--fixed", "0.75", "--step", "0.25",
               "--series", "dof,lb"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,series,value"
    assert "0.5,dof,1" in lines
    # dof stops where the closed form is open; lb keeps going
    assert not any(line.startswith("0.75,dof") for line in lines)
    assert any(line.startswith("0.75,lb") for line in lines)
    assert any(line.startswith("1,lb") for line in lines)


def test_curves_r_sweep_skips_origin(capsys):
    rc = main(["curves", "--sweep", "r", "--fixed", "0.5", "--step", "0.2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    xs = {line.split(",")[0] for line in lines[1:]}
    assert "0" not in xs  # the ratio grid starts one step in
    assert "1" in xs


def test_curves_output_is_stable(capsys):
    args = ["curves", "--sweep", "p", "--fixed", "0.8", "--step", "0.01"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    # 12 significant digits, no python float repr noise
    for line in first.strip().splitlines()[1:]:
        value = line.split(",")[2]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_curves_rejects_unknown_series(capsys):
    assert main(["curves", "--sweep", "p", "--fixed", "0.75",
                 "--series", "dof,nope"]) == 2
    assert "series" in capsys.readouterr().err


def test_curves_rejects_bad_step(capsys):
    for step in ("0.9", "0", "1e-9"):
        assert main(["curves", "--sweep", "p", "--fixed", "0.75",
                     "--step", step]) == 2
        assert "step" in capsys.readouterr().err


def test_verify_runs_and_reports(capsys):
    rc = main(["verify", "--shapes", "4x3", "--constructions", "z12,zf",
               "--seeds", "1", "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "dof=10" in out
    assert "dof=26" in out


def test_verify_skips_infeasible_combinations(capsys):
    rc = main(["verify", "--shapes", "4x2", "--constructions", "z12",
               "--seeds", "1", "--trials", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "skip" in out
    assert "ratio" in out


def test_verify_json(capsys):
    rc = main(["verify", "--shapes", "3x3", "--constructions", "ia_block",
               "--seeds", "1", "--trials", "1", "--json"])
    assert rc == 0
    records = json.loads(capsys.readouterr().out)
    assert all(r["status"] == "ok" for r in records)
    assert any(r["dof"] == 24 for r in records)


def test_verify_draws_each_shape_and_seed_once(capsys, monkeypatch):
    import burstyx.cli

    real = burstyx.cli.sample_channels
    drawn = []

    def counting(dims, seed):
        drawn.append((dims.m, dims.n, seed))
        return real(dims, seed)

    monkeypatch.setattr(burstyx.cli, "sample_channels", counting)
    rc = main(["verify", "--shapes", "4x3,3x3,4x2", "--constructions", "z12,zf,z12,singles",
               "--seeds", "2", "--trials", "1"])
    assert rc == 0
    assert sorted(drawn) == sorted((m, n, seed) for m, n in ((4, 3), (3, 3), (4, 2)) for seed in (0, 1))
    lines = capsys.readouterr().out.splitlines()
    # records stay construction-major, seeds within, skips in place
    z12 = [line.split()[:4] for line in lines if " z12 " in line and "4x3" in line]
    assert z12 == [["ok", "z12", "4x3", "seed=0"], ["ok", "z12", "4x3", "seed=1"]] * 2
    # 3 shapes x 19 labels, less the skips (z12 twice and zf at 4x2, the
    # all-links single at 4x3), times 2 seeds
    assert lines[-1] == "106 checks, 4 skipped, all ok"


def test_verify_rejects_nonpositive_counts(capsys):
    for flag, value in (("--seeds", "-1"), ("--seeds", "0"), ("--trials", "0")):
        assert main(["verify", "--shapes", "4x3", "--constructions", "z12",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "all ok" not in captured.out


def test_verify_rejects_malformed_shape():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--shapes", "4y3"])
    assert exc.value.code == 2


def test_simulate_json(capsys):
    rc = main(["simulate", "--m", "3", "--n", "2", "--p", "0.5",
               "--slots", "20000", "--seed", "1", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["empirical_dof_per_slot"] == pytest.approx(
        data["analytic_reference"], rel=0.05
    )


def test_simulate_usage_errors(capsys):
    assert main(["simulate", "--m", "3", "--n", "2", "--p", "1.5",
                 "--slots", "100", "--seed", "1"]) == 2
    assert main(["simulate", "--m", "3", "--n", "2", "--p", "0.5",
                 "--slots", "0", "--seed", "1"]) == 2
    assert main(["simulate", "--m", "3", "--n", "2", "--p", "0.5",
                 "--slots", str(2**63), "--seed", "1"]) == 2


def test_missing_required_argument_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--m", "3", "--n", "2", "--p", "0.5", "--slots", "100"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # line by line, well past a pipe's capacity after the first line
        ["verify", "--shapes", "4x3,3x4", "--seeds", "40", "--trials", "1"],
        # one write of about 1.2 MB
        ["curves", "--sweep", "p", "--fixed", "0.5", "--step", "1e-4"],
    ],
    ids=["verify", "curves"],
)
def test_closed_pipe_exits_one_without_traceback(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "burstyx.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.split()[0] in (b"ok", b"x,series,value")
    assert stderr == b""
