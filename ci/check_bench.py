#!/usr/bin/env python3
"""Gate on the model-calibration report, BENCH_calibrate.json, written by
`cargo bench -p starfish-bench --bench calibrate`.

Always: the schema. The top level records the rendezvous threshold the run
used, a positive integer `rndv_threshold_bytes`. Every section names its
clock ("virtual" or "count").
Every row key that is a size or a rank count is one, and every cell carries
its section's keys: each algorithm arm, each recovery leg, and for a
selector threshold a boolean `measured`, a null or integer crossover and an
integer `calibrated`. Every other cell value is a positive number.

Always, too: the recovery claim, recomputed from the legs rather than
taken from the report's own boolean. Every row's replica_fetch is below its
disk_read, its speedup is round(disk_read / replica_fetch, 2), and
replica_recovery_beats_disk is the AND of the rows. It is virtual time, so
quick mode's two sizes carry it as well as full mode's four.

Quick mode (the report's "quick" flag; the CI smoke run with
BENCH_QUICK=1) stops there: its sizes are too small for the collective
claims to hold.

Full mode (the committed report) also checks the two collective claims:
* ring allreduce is at least 4x faster than reduce+bcast at the largest
  size x rank cell;
* every selector threshold comes from a measured crossover, not a default.

Usage: check_bench.py <BENCH_calibrate.json>
"""

import json
import sys

CLOCKS = ("virtual", "count")

# The row tree of each section: the kind of key at each level ("digits"
# for a size or rank count, "name" for a network model or collective), then
# the keys every cell must carry.
ROWS = {
    "allreduce_vt_ns": (("name", "digits", "digits"), ("reduce_bcast", "rdouble", "ring")),
    "scaling_allreduce_65536_vt_ns": (("digits",), ("rdouble", "ring")),
    "allgather_vt_ns": (("digits",), ("gather_bcast", "bruck", "ring")),
    "bcast_vt_ns": (("digits",), ("binomial", "scatter_allgather")),
    "selector_thresholds": (("name", "name"), ("crossover_bytes", "measured", "calibrated")),
    "recovery_ns": (
        ("digits",),
        ("disk_write", "replica_push", "disk_read", "replica_fetch", "speedup"),
    ),
}
SECTIONS = (*ROWS, "ring_speedup_largest")

RING_SPEEDUP_FLOOR = 4.0


def fail(msg):
    print(f"BENCH GATE: {msg}", file=sys.stderr)
    sys.exit(1)


def positive(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0


def positive_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v > 0


def cells(node, levels, where):
    """(where, cell) for every cell of a row tree whose key kinds are `levels`."""
    if not levels:
        yield where, node
        return
    if not isinstance(node, dict) or not node:
        fail(f"{where} is {node!r}, expected a non-empty object")
    for k, v in node.items():
        if levels[0] == "digits" and not k.isdigit():
            fail(f"{where}: key {k!r} is not a size or rank count")
        yield from cells(v, levels[1:], f"{where}[{k}]")


def check_threshold(cell, where):
    if not isinstance(cell["measured"], bool):
        fail(f"{where}.measured = {cell['measured']!r} is not a boolean")
    crossover = cell["crossover_bytes"]
    if not (crossover is None or positive_int(crossover)):
        fail(f"{where}.crossover_bytes = {crossover!r} is neither null nor a positive integer")
    if cell["measured"] != (crossover is not None):
        fail(f"{where}: measured = {cell['measured']} but crossover_bytes = {crossover!r}")
    if not positive_int(cell["calibrated"]):
        fail(f"{where}.calibrated = {cell['calibrated']!r} is not a positive integer")


def check_schema(r, path):
    if r.get("bench") != "calibrate":
        fail(f"{path}: bench is {r.get('bench')!r}, expected 'calibrate'")
    if not isinstance(r.get("quick"), bool):
        fail(f"{path}: quick is {r.get('quick')!r}, expected a boolean")
    if not positive_int(r.get("rndv_threshold_bytes")):
        fail(
            f"{path}: rndv_threshold_bytes is {r.get('rndv_threshold_bytes')!r}, "
            "expected a positive integer"
        )
    for name in SECTIONS:
        if name not in r:
            fail(f"{path}: missing section {name!r}")
    for name, section in r.items():
        if name in ("bench", "quick", "rndv_threshold_bytes"):
            continue
        if not isinstance(section, dict) or section.get("clock") not in CLOCKS:
            fail(f"{path}: section {name!r} names no clock (one of {CLOCKS})")
    if not positive(r["ring_speedup_largest"].get("speedup")):
        fail(f"{path}: ring_speedup_largest.speedup = {r['ring_speedup_largest'].get('speedup')!r}")
    for name, (levels, keys) in ROWS.items():
        for where, cell in cells(r[name].get("rows"), levels, f"{path}: {name}.rows"):
            if not isinstance(cell, dict):
                fail(f"{where} is {cell!r}, expected an object")
            for key in keys:
                if key not in cell:
                    fail(f"{where} lacks {key!r}")
            if name == "selector_thresholds":
                check_threshold(cell, where)
                continue
            for key, v in cell.items():
                if not positive(v):
                    fail(f"{where}[{key}] = {v!r} is not a positive number")


def check_claims(r, path):
    head = r["ring_speedup_largest"]
    if head["speedup"] < RING_SPEEDUP_FLOOR:
        fail(
            f"{path}: ring allreduce speedup {head['speedup']}x at "
            f"{head.get('bytes')} B x {head.get('ranks')} ranks is below the "
            f"{RING_SPEEDUP_FLOOR}x floor — the bandwidth-optimal path lost its edge"
        )
    if r["selector_thresholds"].get("measured") is not True:
        fail(
            f"{path}: selector_thresholds.measured is not true — some selector "
            "threshold fell back to a default instead of a measured crossover"
        )


def check_recovery(r, path):
    section = r["recovery_ns"]
    wins = {}
    for size, row in section["rows"].items():
        fetch, read = row["replica_fetch"], row["disk_read"]
        if row["speedup"] != round(read / fetch, 2):
            fail(
                f"{path}: recovery_ns.rows[{size}].speedup = {row['speedup']} but "
                f"disk_read / replica_fetch = {read / fetch:.4f}"
            )
        wins[size] = fetch < read
    claimed = section.get("replica_recovery_beats_disk")
    if claimed is not all(wins.values()):
        fail(
            f"{path}: recovery_ns.replica_recovery_beats_disk = {claimed!r} but the "
            f"rows say {all(wins.values())}"
        )
    lost = [size for size, won in wins.items() if not won]
    if lost:
        fail(
            f"{path}: recovery_ns: the diskless store lost to the modelled 1999 "
            f"disk at {', '.join(lost)} B (replica_fetch >= disk_read)"
        )


def main():
    if len(sys.argv) != 2:
        fail(__doc__.strip().splitlines()[-1])
    path = sys.argv[1]
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"{path}: {e}")
    check_schema(report, path)
    check_recovery(report, path)
    if report["quick"]:
        print(f"BENCH GATE: {path} quick mode — schema and recovery claim ok, collective claims not judged")
        return
    check_claims(report, path)
    print(f"BENCH GATE: {path} schema and headline claims ok")


if __name__ == "__main__":
    main()
