#!/usr/bin/env python3
"""Runs `figures` in a fresh directory and checks what it writes against the
figure pins, the BENCH_*.json files committed at the repo root.

    python3 tests/figure_pins.py <figures binary> <repo root> <work dir>

The work directory is emptied first. figures runs there with its output in
figures.log, and must exit 0. Then three checks, each of which fails the run:

  1. The shared engine's final counts, from BENCH_ablation_pgo.json (written
     last). They are deterministic; compile_joins and lock_waits depend on
     thread scheduling and are left out.
  2. BENCH_ablation_pgo.json's `workloads` and `geomean` equal the pin.
  3. Every other pin equals figures' copy on every key but the engine_stats,
     telemetry and host blocks, which carry wall-clock times. Table 2 and
     sim_throughput time the wall clock and have no pin; figures must write
     no other file without one.

The decode differential suites compare two dispatch cores that share one
cache model, so a model change that moves a simulated count passes them;
only the committed numbers catch it.
"""
import glob
import json
import os
import shutil
import subprocess
import sys

ENGINE_COUNTS = {'compiles': 280, 'cache_hits': 46, 'cache_misses': 280,
                 'tier_warmups': 23, 'profile_disk_loads': 0, 'disk_hits': 0,
                 'disk_stores': 0, 'verify_rejects': 0, 'tier_swaps': 0}
PGO = 'BENCH_ablation_pgo.json'
SKIP = {'engine_stats', 'telemetry', 'host'}
WALL_CLOCK = {'BENCH_table2_compile_times.json', 'BENCH_sim_throughput.json'}


def load(path):
    with open(path) as f:
        return json.load(f)


def check(root, work):
    got = load(os.path.join(work, PGO))['engine_stats']
    wrong = {k: (got.get(k), v) for k, v in ENGINE_COUNTS.items() if got.get(k) != v}
    assert not wrong, f"engine_stats (got, want): {wrong}"
    print(f"engine_stats OK: {ENGINE_COUNTS}")

    got, want = load(os.path.join(work, PGO)), load(os.path.join(root, PGO))
    for key in ('workloads', 'geomean'):
        assert got[key] == want[key], f"{key} differs from the committed {PGO}"
    print(f"ablation_pgo OK: {len(got['workloads'])} workloads and the geomean "
          f"equal the committed figures")

    written = {os.path.basename(p) for p in glob.glob(os.path.join(work, 'BENCH_*.json'))}
    pinned = {os.path.basename(p) for p in glob.glob(os.path.join(root, 'BENCH_*.json'))}
    unpinned = written - pinned - WALL_CLOCK
    assert not unpinned, f"figures wrote files with no committed pin: {sorted(unpinned)}"
    checked = sorted(pinned - WALL_CLOCK - {PGO})
    for name in checked:
        assert name in written, f"figures wrote no {name}"
        want, got = load(os.path.join(root, name)), load(os.path.join(work, name))
        for key in sorted((set(want) | set(got)) - SKIP):
            assert got.get(key) == want.get(key), f"{key} in {name} differs from the committed pin"
    print(f"figures OK: {len(checked)} files equal their committed pins")


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    figures, root, work = (os.path.abspath(a) for a in sys.argv[1:4])
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log_path = os.path.join(work, 'figures.log')
    with open(log_path, 'w') as log:
        status = subprocess.run([figures], cwd=work, stdout=log,
                                stderr=subprocess.STDOUT).returncode
    if status != 0:
        with open(log_path) as log:
            sys.stdout.writelines(log.readlines()[-40:])
        sys.exit(f"figures exited with status {status} (full output: {log_path})")
    try:
        check(root, work)
    except AssertionError as e:
        sys.exit(f"FAILED: {e}")


if __name__ == '__main__':
    main()
