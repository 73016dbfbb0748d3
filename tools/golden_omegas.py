#!/usr/bin/env python3
"""Checks the golden grid's answers at more than one thread.

    tools/golden_omegas.py BUILD_DIR [THREADS ...]   # default: 2 4

Solves every gen:NAME:medium graph under every --rep that
tests/golden/counters_t1.txt holds, at each thread count, and compares
`omega` and `heuristic_degree_omega` with the file's 1-thread values.
Every witness must verify.  The other counters depend on the schedule
once more than one thread runs, so they are not compared.  Exits 1,
listing each difference, when any answer differs.
"""
import json
import pathlib
import subprocess
import sys

KEYS = ("omega", "heuristic_degree_omega")


def read_golden(path):
    """Returns {rep: {graph: {key: int}}} for KEYS, in file order."""
    grid = {}
    block = None
    for line in path.read_text().splitlines():
        if line.startswith("== "):
            graph, _, rep = line.split()[1:4]
            block = grid.setdefault(rep, {}).setdefault(graph, {})
        elif block is not None and line.split(" ")[0] in KEYS:
            key, value = line.split(" ")
            block[key] = int(value)
    return grid


def main():
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} BUILD_DIR [THREADS ...]")
    lazymc = pathlib.Path(sys.argv[1]) / "lazymc"
    threads = sys.argv[2:] or ["2", "4"]
    root = pathlib.Path(__file__).resolve().parent.parent
    grid = read_golden(root / "tests" / "golden" / "counters_t1.txt")
    failures = []
    for t in threads:
        for rep, graphs in grid.items():
            args = [str(lazymc), "--threads", t, "--rep", rep]
            for graph in graphs:
                args += ["--graph", graph]
            run = subprocess.run(args, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"lazymc --threads {t} --rep {rep} exited with "
                         f"{run.returncode}:\n{run.stderr}")
            reports = [json.loads(l) for l in run.stdout.splitlines() if l]
            if len(reports) != len(graphs):
                sys.exit(f"--threads {t} --rep {rep}: expected "
                         f"{len(graphs)} reports, got {len(reports)}")
            for report in reports:
                graph = report["graph"]
                where = f"{graph} --rep {rep} --threads {t}"
                if report.get("verification") != "ok":
                    failures.append(f"{where}: verification "
                                    f"{report.get('verification')}")
                for key in KEYS:
                    want = graphs[graph][key]
                    if report[key] != want:
                        failures.append(f"{where}: {key} {report[key]}, "
                                        f"golden {want}")
            print(f"--threads {t} --rep {rep}: {len(reports)} graphs checked")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
