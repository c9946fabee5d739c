"""Command line behavior: formatting, exit codes, and JSON output."""

import argparse
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

import burstyx as bx
import burstyx.cli
from burstyx.cli import _parse_shapes, main


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


# the sweeps whose step-0.001 output the benchmark holds as golden files
_BENCH_SWEEPS = [("p", "0.5"), ("p", "0.75"), ("p", "0.9"), ("r", "0.3"), ("r", "0.5"), ("r", "0.8")]
_SERIES = [
    ("dof", bx.normalized_dof),
    ("ub1", bx.upper_bound_a),
    ("ub2", bx.upper_bound_b),
    ("lb", bx.lower_bound),
    ("baseline", bx.baseline_normalized),
]


def _reference_curves(sweep, fixed, step):
    """curves' output, one row at a time, each formatting its own x."""
    count = int(round(1.0 / step))
    lines = ["x,series,value"]
    for k in range(1 if sweep == "r" else 0, count + 1):
        x = round(k * step, 12)
        if x > 1.0:
            continue
        r, p = (x, fixed) if sweep == "r" else (fixed, x)
        for name, series in _SERIES:
            try:
                value = series(r, p)
            except ValueError:
                continue
            lines.append(f"{x:.12g},{name},{value:.12g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("step", ["0.001", "0.25", "0.2"])
@pytest.mark.parametrize("sweep,fixed", _BENCH_SWEEPS)
def test_curves_equal_a_row_by_row_reference(capsys, sweep, fixed, step):
    argv = ["curves", "--sweep", sweep, "--fixed", fixed, "--step", step, "--series", "dof,ub1,ub2,lb,baseline"]
    assert main(argv) == 0
    assert capsys.readouterr().out == _reference_curves(sweep, float(fixed), float(step))


@pytest.mark.parametrize("sweep,fixed", _BENCH_SWEEPS)
def test_series_expressions_equal_the_public_functions_bit_for_bit(sweep, fixed):
    step, fixed = 0.001, float(fixed)
    for k in range(1 if sweep == "r" else 0, 1001):
        x = round(k * step, 12)
        r, p = (x, fixed) if sweep == "r" else (fixed, x)
        for name, series in _SERIES:
            value = burstyx.cli._SERIES[name](r, p)
            try:
                want = series(r, p)
            except ValueError:
                assert name == "dof" and value is None, (name, r, p)
                continue
            assert value.hex() == want.hex(), (name, r, p)


def test_readme_table_example_heads_the_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("$ burstyx table --m 4 --n 3 --p 0.5\n", 1)[1]
    shown = block.split("  ...\n", 1)[0].splitlines()
    assert len(shown) >= 4
    assert main(["table", "--m", "4", "--n", "3", "--p", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[: len(shown)] == shown


def test_main_repeats_its_output_on_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    burstyx.cli.build_parser.cache_clear()
    calls = [
        ["table", "--m", "4", "--n", "3", "--p", "0.8", "--json"],
        ["curves", "--sweep", "p", "--fixed", "0.75", "--step", "0.05"],
        ["curves", "--sweep", "p", "--fixed", "0.75", "--step", "0.9"],  # main's usage error
        ["table", "--m", "4", "--p", "0.5"],  # argparse's usage error
    ]
    runs = []
    for _ in range(3):
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            runs.append((code, out.out, out.err))
    assert built.count("burstyx") == 1
    assert runs[:4] == runs[4:8] == runs[8:]
    assert [code for code, _out, _err in runs[:4]] == [0, 0, 2, 2]
    assert all(err for _code, _out, err in runs[2:4])


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


def test_verify_json_streams_the_indented_array_with_structural_metrics(capsys):
    rc = main(["verify", "--shapes", "4x2,3x3", "--constructions", "z12,single:empty",
               "--seeds", "2", "--trials", "1", "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    records = json.loads(out)
    assert out == json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert [(r["construction"], r["shape"], r["status"]) for r in records] == [
        ("z12", "4x2", "skip"),
        ("single:empty", "4x2", "ok"),
        ("single:empty", "4x2", "ok"),
        ("z12", "3x3", "ok"),
        ("z12", "3x3", "ok"),
        ("single:empty", "3x3", "ok"),
        ("single:empty", "3x3", "ok"),
    ]
    assert "min_separation" not in records[0] and "max_null_residual" not in records[0]
    for r in records[1:]:
        assert 0.0 <= r["max_null_residual"] < 1e-10
        if r["construction"] == "z12":
            assert r["min_separation"] > 1e-9
        else:  # no receiver decodes anything
            assert r["min_separation"] is None and r["max_null_residual"] == 0.0
    assert main(["verify", "--shapes", "4x3", "--constructions", ",", "--json"]) == 0
    assert capsys.readouterr().out == "[]\n"


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_verify_writes_each_shape_before_drawing_the_next(capsys, monkeypatch, fmt):
    import burstyx.cli

    real = burstyx.cli.sample_channels
    written = []  # stdout written before each shape's first draw

    def spy(dims, seed):
        if seed == 0:
            written.append(capsys.readouterr().out)
        return real(dims, seed)

    monkeypatch.setattr(burstyx.cli, "sample_channels", spy)
    assert main(["verify", "--shapes", "4x3,3x4", "--constructions", "z12",
                 "--seeds", "2", "--trials", "1"] + fmt) == 0
    first_shape = written[1]
    assert first_shape.count("4x3") == 2 and "3x4" not in first_shape
    rest = capsys.readouterr().out
    assert rest.count("3x4") == 2
    whole = "".join(written) + rest
    if fmt:
        assert whole == json.dumps(json.loads(whole), indent=2, sort_keys=True) + "\n"
    else:
        assert whole.splitlines()[-1] == "4 checks, 0 skipped, all ok"


# Holds shape 3x4's first draw until a line arrives on stdin.
_GATED_VERIFY = """
import sys
import burstyx.cli as cli
real = cli.sample_channels
def gated(dims, seed):
    if (dims.m, dims.n, seed) == (3, 4, 0):
        sys.stdin.readline()
    return real(dims, seed)
cli.sample_channels = gated
sys.exit(cli.main(sys.argv[1:]))
"""


def test_verify_flushes_each_shape_to_a_pipe():
    """A reader on a pipe gets shape 1's records while shape 2 is still pending."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is block-buffered, as in normal use
    argv = ["verify", "--shapes", "4x3,3x4", "--constructions", "z12", "--seeds", "2", "--trials", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-c", _GATED_VERIFY, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
    )
    try:
        first = b""
        while first.count(b"\n") < 2:
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, f"shape 1's records were not flushed: {first!r}"
            chunk = os.read(proc.stdout.fileno(), 65536)
            assert chunk, f"stdout closed early: {first!r}"
            first += chunk
        assert first.count(b"4x3") == 2 and b"3x4" not in first
        proc.stdin.write(b"go\n")
        proc.stdin.close()
        rest = proc.stdout.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.stdout.close()
    assert rest.count(b"3x4") == 2 and rest.endswith(b"4 checks, 0 skipped, all ok\n")


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


def test_verify_rejects_counts_above_the_ceilings(capsys, monkeypatch):
    import burstyx.cli

    drawn = []

    def stub(dims, seed):
        drawn.append(seed)
        raise RuntimeError("stub")

    monkeypatch.setattr(burstyx.cli, "sample_channels", stub)
    base = ["verify", "--shapes", "4x3", "--constructions", "z12"]
    for flag, value, message in (
        ("--seeds", "100001", "--seeds must lie in [1, 100000]"),
        ("--seeds", str(10**12), "--seeds must lie in [1, 100000]"),
        ("--trials", "1001", "--trials must lie in [1, 1000]"),
        ("--trials", str(10**12), "--trials must lie in [1, 1000]"),
    ):
        assert main(base + [flag, value]) == 2
        assert message in capsys.readouterr().err
    assert drawn == []
    # the ceilings themselves pass the check: the first draw is reached
    with pytest.raises(RuntimeError, match="stub"):
        main(base + ["--seeds", "100000", "--trials", "1000"])
    assert drawn == [0]


def test_verify_labels_come_from_one_table(capsys):
    import burstyx.cli
    import burstyx.sim

    labels = list(burstyx.cli._CONSTRUCTIONS)
    assert labels[:6] == ["z12", "z34", "zf", "ia_block", "ia_refined", "f_fallback"]
    assert labels[6:] == [f"single:{t}" for t in sorted(bx.TOPOLOGIES)]
    # every kind simulate schedules can be verified
    assert all(k in labels or f"single:{k}" in labels for k in burstyx.sim._KINDS)
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert ", ".join(labels) in " ".join(capsys.readouterr().out.split())


def test_verify_checks_the_all_links_fallback(capsys):
    rc = main(["verify", "--shapes", "4x3,3x3,8x7,3x4,5x4", "--constructions", "f_fallback",
               "--seeds", "2", "--trials", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [["ok", "f_fallback", "4x3"]] * 2
    assert lines[-1] == "10 checks, 0 skipped, all ok"


@pytest.mark.parametrize("label", ["zff", "single:zz", "singles,Z12"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_verify_rejects_unknown_labels_before_any_draw(capsys, monkeypatch, label, fmt):
    import burstyx.cli

    def stub(dims, seed):
        raise AssertionError("drew a channel")

    monkeypatch.setattr(burstyx.cli, "sample_channels", stub)
    assert main(["verify", "--shapes", "4x3", "--constructions", label] + fmt) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = label.split(",")[-1]
    assert f"unknown construction {bad!r}" in captured.err
    assert ", ".join(burstyx.cli._CONSTRUCTIONS) in captured.err


def test_verify_rejects_malformed_shape():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--shapes", "4y3"])
    assert exc.value.code == 2


def test_verify_rejects_antenna_counts_above_the_ceiling(capsys):
    assert _parse_shapes("64x64,1x64") == [bx.Dimensions(64, 64), bx.Dimensions(1, 64)]
    for shape in ("65x3", "3x65", "4x3,100000x100000"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--shapes", shape, "--constructions", "zf"])
        assert exc.value.code == 2
        assert "at most 64 antennas per side" in capsys.readouterr().err


def test_simulate_rejects_antenna_counts_above_the_ceiling(capsys, monkeypatch):
    import burstyx.cli

    ran = []

    def stub(dims, *args, **kwargs):
        ran.append((dims.m, dims.n))
        raise RuntimeError("stub")

    monkeypatch.setattr(burstyx.cli, "run_simulation", stub)
    for m, n in ((65, 3), (3, 65), (100_000, 100_000)):
        assert main(["simulate", "--m", str(m), "--n", str(n), "--p", "0.5",
                     "--slots", "100", "--seed", "1"]) == 2
        assert "--m and --n must be at most 64" in capsys.readouterr().err
    assert ran == []
    assert main(["simulate", "--m", "64", "--n", "64", "--p", "0.5",
                 "--slots", "100", "--seed", "1"]) == 1
    assert ran == [(64, 64)]


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
