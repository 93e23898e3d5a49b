#!/usr/bin/env python3
"""Check that the benchmark's seed-0 golden table equals what the figure
binaries print for the same points (Figs. 9 and 10).

    python3 e2ebench/check_figures.py build/bench

The argument is the directory holding fig09_partition_sweep and
fig10_tile_sweep from a build of the repository with MSTREAM_BUILD_BENCH=ON.
The figures print rounded values, so each golden value is rounded the same
way before the comparison. Exit code 0 when every point matches.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.path.dirname(HERE), ".bench_build", "figures")

# table -> (golden job prefix, x-column to job suffix, value from (vms, check), decimals)
TABLES = {
    "fig09a_mm": ("fig09a_mm/P=", str, lambda v, c: c, 1),
    "fig09b_cf": ("fig09b_cf/P=", str, lambda v, c: c, 1),
    "fig09c_kmeans": ("fig09c_kmeans/P=", str, lambda v, c: v / 1e3, 3),
    "fig09d_hotspot": ("fig09d_hotspot/P=", str, lambda v, c: v, 1),
    "fig09e_nn": ("fig09e_nn/P=", str, lambda v, c: v, 1),
    "fig09f_srad": ("fig09f_srad/P=", str, lambda v, c: v / 1e3, 3),
    "fig10a_mm": ("fig10a_mm/T=", str, lambda v, c: c, 1),
    "fig10b_cf": ("fig10b_cf/T=", str, lambda v, c: c, 1),
    "fig10c_kmeans": ("fig10c_kmeans/T=", str, lambda v, c: v / 1e3, 3),
    "fig10d_hotspot": ("fig10d_hotspot/T=", lambda x: str(int(x.split("^")[0]) ** 2),
                       lambda v, c: v / 1e3, 3),
    "fig10e_nn": ("fig10e_nn/T=", str, lambda v, c: v, 1),
    "fig10f_srad": ("fig10f_srad/T=", str, lambda v, c: v / 1e3, 3),
}


def golden():
    table = {}
    entry = re.compile(r'\{"([^"]+)", ([^,]+), ([^,]+), \d+, [^}]+\},')
    with open(os.path.join(HERE, "harness", "golden.inc")) as f:
        for line in f:
            m = entry.match(line.strip())
            if m:
                table[m.group(1)] = (float.fromhex(m.group(2)), float.fromhex(m.group(3)))
    return table


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    os.makedirs(OUT, exist_ok=True)
    tables = {}
    for fig in ("fig09_partition_sweep", "fig10_tile_sweep"):
        path = os.path.join(OUT, fig + ".json")
        subprocess.run([os.path.join(sys.argv[1], fig), "--json", path], check=True,
                       stdout=subprocess.DEVNULL)
        with open(path) as f:
            tables.update(json.load(f))
    gold = golden()
    checked = mismatched = 0
    for name, (prefix, to_job, value, decimals) in TABLES.items():
        for x, cell in tables[name]["rows"]:
            job = prefix + to_job(x)
            want = f"{value(*gold[job]):.{decimals}f}"
            checked += 1
            if want != cell:
                mismatched += 1
                print(f"MISMATCH {job}: figure {cell}, golden {want}")
    print(f"{checked} figure points checked, {mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
