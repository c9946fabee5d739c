"""Write the golden outputs the benchmark compares against.

    python3 bench/capture_golden.py

Captures, from the program in src/: the curves CSVs and the table JSON of
the closed_forms workload exactly as the CLI prints them, the
max_gap_search result, and the verdict (ok with its dof, or skip with its
reason) of every verify_sweep case. Verdicts do not depend on the channel
seed, so one draw fixes them. Run it only to re-baseline on purpose: the
outputs are meant to stay byte-identical across changes to the program.
"""

import gzip
import json
import sys

from run import import_program

import_program()

import burstyx as bx  # noqa: E402
import workloads as w  # noqa: E402


def write_gz(name: str, text: str) -> None:
    (w.GOLDEN_DIR / name).write_bytes(gzip.compress(text.encode(), mtime=0))


def main() -> int:
    w.GOLDEN_DIR.mkdir(exist_ok=True)
    for job in w.CURVES:
        code, text = w.run_cli(w.curves_argv(*job))
        if code:
            raise SystemExit(f"curves {job} exited {code}")
        write_gz(w.curves_file(*job), text)
    table = {}
    for m in w.TABLE_SIZES:
        for n in w.TABLE_SIZES:
            for p in w.TABLE_PS:
                code, text = w.run_cli(w.table_argv(m, n, p))
                if code:
                    raise SystemExit(f"table {m}x{n}@{p} exited {code}")
                table[f"{m} {n} {p}"] = text
    write_gz("table.json.gz", json.dumps(table, indent=0, sort_keys=True))
    gap = w.gap_record(bx.max_gap_search(w.GAP_STEP))
    (w.GOLDEN_DIR / "max_gap_search.json").write_text(json.dumps(gap, indent=2) + "\n")
    verdicts = []
    for m, n in w.VERIFY_SHAPES:
        for label in w.CONSTRUCTIONS:
            verdict = w.verify_case(label, m, n, w.CHANNEL_SEED_OFFSET)
            if verdict[2] == "fail" or (verdict[2] == "ok" and verdict[3] != verdict[4]):
                raise SystemExit(f"verify case failed: {verdict}")
            verdicts.append(w.golden_verdict(verdict))
    text = "[\n" + ",\n".join(json.dumps(v) for v in verdicts) + "\n]\n"
    (w.GOLDEN_DIR / "verify_verdicts.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
