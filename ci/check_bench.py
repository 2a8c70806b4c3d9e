#!/usr/bin/env python3
"""Gate on the one bench report, BENCH_calibrate.json, written by
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

Always, too: the paper's sections (PAPER below), which run the same in
both modes. Table 1's Data bytes over its Data count is at most
DATA_BYTES_PER_MSG_CEILING: the data envelope stays small. Each holds the paper's anchor where the paper gives one, and
the gate holds it to the paper's number. A cell is a number, a string, or
a band {min, max, cause} where BANDS lets one move, for the cause BANDS
names. Every anchor and claim is recomputed from the rows: a derived cell
(an overhead, a speedup) must equal its recomputation, and a band must
meet a claim at both ends. Figures 3 and 4 carry what each node count's
round was charged for its coordination: the members' Saveds the
coordinator took in and how many crossed daemons, and coordination_s,
which must equal those counts times the section's per-event constants
(vni::CoordCosts: one saved_hop when any Saved crossed, one saved per
Saved) and must fit inside the round's growth over the 1-node round.

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
PAPER = (
    "fig3_native_ckpt",
    "fig4_hetero_ckpt",
    "fig5_roundtrip",
    "fig6_layers",
    "table1_message_audit",
    "table2_hetero_matrix",
    "claim_overhead_1pct",
    "ablation_cr_protocols",
    "ablation_lwgroups",
    "ablation_polling",
    "ablation_fastpath",
    "ablation_incremental",
    "ablation_forked",
    "ablation_domino",
)
SECTIONS = (*ROWS, "ring_speedup_largest", *PAPER)

# Why a cell moves between runs (EXPERIMENTS.md, "Bands").
CAUSES = {
    "cast-timing": "a cast races the idle node's crash; telemetry casts vary in size",
}
# The cells a run may record as a band, by path ("*" is any row), and why.
BANDS = {
    "table1_message_audit": {
        ("rows", "Control", "count"): "cast-timing",
        ("rows", "Control", "bytes"): "cast-timing",
    },
}

# The paper's anchors and the tolerance the reproduction holds each to.
FIG3_ANCHOR = {"t_1node_s": 0.104061, "t_2nodes_s": 0.131898, "t_4nodes_s": 0.149219, "tolerance_pct": 2}
FIG4_ANCHOR = {"t_1node_s": 0.0077, "t_2nodes_s": 0.0205, "t_4nodes_s": 0.052, "tolerance_pct": 10}
FIG5_ANCHOR = {"bytes": 1, "bip_us": 86, "tcp_us": 552, "tolerance_pct": 1}
CLAIM_ANCHOR = {"interval_min": 60, "overhead_pct_below": 1}
MSG_CLASSES = (
    "Control",
    "Coordination",
    "Data",
    "Lightweight membership",
    "Configuration",
    "Checkpoint/restart",
)
# Table 1's Data messages: payload plus the varint envelope, whose layout
# byte leaves out every field at its usual value and whose sender is the
# packet's source port, and a trace context that sends only what the
# receiver cannot derive from the header. Three messages read 52 bytes,
# 17.3 each, and the ceiling leaves 2 bytes above that; the envelope that
# sent every field put them at 62 (20.7 each), a fixed 32-byte context at
# 145 (48.3), the fixed 39-byte header before it at 238 (79.3).
DATA_BYTES_PER_MSG_CEILING = 18
# Table 1's Control messages: the ensemble packets the daemons send in one
# lifecycle. The sequencer delivers its own casts in place and a daemon's
# casts of one virtual instant leave as one, so a lifecycle reads 48-49
# (60 of them); with a packet to itself per cast and one cast per entry it
# read 78-79.
CONTROL_COUNT_CEILING = 51
# ... and their bytes. A rank's telemetry is varints with zero entries left
# out, a scope is its ids, and a round's snapshots ride one cast; the
# snapshots that wrote every entry in fixed width, named each scope by a
# string and cast each rank's flush alone read 10 365-13 329 bytes.
CONTROL_BYTES_CEILING = 6000
INCREMENTAL_FLOOR = 9.0
FORKED_STALL_CEILING_S = 1.0

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


# ---- the paper's sections ----------------------------------------------------


def is_band(v):
    return isinstance(v, dict) and set(v) == {"min", "max", "cause"}


def lo(v):
    return v["min"] if is_band(v) else v


def hi(v):
    return v["max"] if is_band(v) else v


def number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0


def band_cause(name, path):
    for pattern, cause in BANDS.get(name, {}).items():
        if len(pattern) == len(path) and all(p in ("*", k) for p, k in zip(pattern, path)):
            return cause
    return None


def check_paper_cells(name, node, path, where):
    """Every leaf of a paper section is a number, a string, or an allowed band."""
    if is_band(node):
        cause = band_cause(name, path)
        if cause is None:
            fail(f"{where} is a band, but BANDS lets no cell there move")
        if node["cause"] != cause:
            fail(f"{where}.cause = {node['cause']!r}, expected {cause!r} ({CAUSES[cause]})")
        if not (number(node["min"]) and number(node["max"]) and node["min"] <= node["max"]):
            fail(f"{where} = {node!r} is not a band of numbers with min <= max")
    elif isinstance(node, dict):
        if not node:
            fail(f"{where} is an empty object")
        for k, v in node.items():
            if (name, *path, k) != (name, "clock"):
                check_paper_cells(name, v, (*path, k), f"{where}[{k}]")
    elif not (number(node) or isinstance(node, str)):
        fail(f"{where} = {node!r} is neither a number, a string nor a band")


def check_anchor(section, expected, where):
    if section.get("anchor") != expected:
        fail(f"{where}.anchor = {section.get('anchor')!r}, expected the paper's {expected!r}")


def near(value, target, tol_pct):
    return abs(value / target - 1) * 100 <= tol_pct


# Figures 3 and 4's round-time column at each node count.
NODE_COLS = {1: "t_1node_s", 2: "t_2nodes_s", 4: "t_4nodes_s"}


def check_coordination(section, where):
    coordination = section["coordination"]
    hop, saved = coordination["saved_hop_s"], coordination["saved_s"]
    if list(coordination["rounds"]) != [str(n) for n in NODE_COLS]:
        fail(f"{where}.coordination.rounds are {list(coordination['rounds'])}, not {list(NODE_COLS)}")
    for n, col in NODE_COLS.items():
        c = coordination["rounds"][str(n)]
        if c["saveds"] != n - 1 or not 0 <= c["crossed"] <= c["saveds"]:
            fail(f"{where}: a {n}-node round took in {c['saveds']} Saveds, {c['crossed']} "
                 f"of them across daemons, not one from each of its {n - 1} members")
        charged = (hop if c["crossed"] > 0 else 0) + c["saveds"] * saved
        if abs(c["coordination_s"] - charged) > 1e-12:
            fail(f"{where}: the {n}-node round's coordination_s is {c['coordination_s']}, "
                 f"but its counted events cost {charged} s at the section's constants")
        for row in section["rows"].values():
            grown = lo(row[col]) - hi(row["t_1node_s"])
            if grown < c["coordination_s"]:
                fail(f"{where}: the {n}-node round at {row['image_MB']} MB grows {grown} s "
                     f"over one node, less than its {c['coordination_s']} s of coordination")


def check_ckpt_figure(name, r, path, anchor):
    section, where = r[name], f"{path}: {name}"
    check_anchor(section, anchor, where)
    cols = tuple(NODE_COLS.values())
    check_coordination(section, where)
    rows = sorted(section["rows"].values(), key=lambda row: row["image_MB"])
    tol = anchor["tolerance_pct"]
    for col in cols:
        for end in (lo, hi):
            v = end(rows[0][col])
            if not near(v, anchor[col], tol):
                fail(
                    f"{where}: {col} of the smallest image is {v} s, "
                    f"not within {tol} % of the paper's {anchor[col]} s"
                )
    for smaller, larger in zip(rows, rows[1:]):
        for col in cols:
            if not hi(smaller[col]) < lo(larger[col]):
                fail(f"{where}: {col} does not grow with the image size")
    for row in rows:
        for fewer, more in zip(cols, cols[1:]):
            if not hi(row[fewer]) < lo(row[more]):
                fail(f"{where}: {more} is not above {fewer} at {row['image_MB']} MB")


def check_fig5(r, path):
    section, where = r["fig5_roundtrip"], f"{path}: fig5_roundtrip"
    check_anchor(section, FIG5_ANCHOR, where)
    row = section["rows"][str(FIG5_ANCHOR["bytes"])]
    for net in ("bip_us", "tcp_us"):
        if not near(row[net], FIG5_ANCHOR[net], FIG5_ANCHOR["tolerance_pct"]):
            fail(
                f"{where}: {net} at 1 B is {row[net]}, not within "
                f"{FIG5_ANCHOR['tolerance_pct']} % of the paper's {FIG5_ANCHOR[net]}"
            )


def check_fig6(r, path):
    section, where = r["fig6_layers"], f"{path}: fig6_layers"
    layers = [us for d in ("send", "recv") for us in section["layers_us"][d].values()]
    total = sum(layers)
    for net, sizes in section["software_us"].items():
        for size, us in sizes.items():
            if us != total:
                fail(
                    f"{where}: software time on {net} at {size} B is {us} us, not the "
                    f"{total} us the layers sum to — it is no longer independent of size"
                )
    measured = [cell["mean_us"] for cell in section["measured"].values()]
    if measured != layers:
        fail(f"{where}: the live per-layer means {measured} are not the model's {layers}")


def check_table1(r, path):
    rows, where = r["table1_message_audit"]["rows"], f"{path}: table1_message_audit"
    if tuple(rows) != MSG_CLASSES:
        fail(f"{where}: rows {list(rows)} are not the six classes {list(MSG_CLASSES)}")
    unseen = [c for c, row in rows.items() if lo(row["count"]) < 1]
    if unseen:
        fail(f"{where}: the lifecycle observed no {', '.join(unseen)} message")
    control = hi(rows["Control"]["count"])
    if not control <= CONTROL_COUNT_CEILING:
        fail(
            f"{where}: the lifecycle sent {control} Control messages, over the "
            f"{CONTROL_COUNT_CEILING} of in-place self-delivery and same-instant casts"
        )
    control_bytes = hi(rows["Control"]["bytes"])
    if not control_bytes <= CONTROL_BYTES_CEILING:
        fail(
            f"{where}: the lifecycle's Control messages took {control_bytes} bytes, over the "
            f"{CONTROL_BYTES_CEILING} of varint telemetry that rides one cast per round"
        )
    data = rows["Data"]
    per_msg = hi(data["bytes"]) / lo(data["count"])
    if not per_msg <= DATA_BYTES_PER_MSG_CEILING:
        fail(
            f"{where}: a Data message is {per_msg:.1f} bytes on the wire, over the "
            f"{DATA_BYTES_PER_MSG_CEILING} a varint envelope and a compact trace context allow"
        )


def check_table2(r, path):
    section, where = r["table2_hetero_matrix"], f"{path}: table2_hetero_matrix"
    machines = section["machines"]
    restored = 0
    for src, cells in section["rows"].items():
        for dst, kind in cells.items():
            a, b = machines[src], machines[dst]
            swap, resize = a["endian"] != b["endian"], a["word_bits"] != b["word_bits"]
            expected = {(False, False): "=", (True, False): "S", (False, True): "W"}.get(
                (swap, resize), "S+W"
            )
            if kind != expected:
                fail(f"{where}: [{src}] -> [{dst}] is {kind!r}, expected {expected!r}")
            restored += 1
    if len(machines) != 6 or restored != 36:
        fail(f"{where}: {restored} pairs of {len(machines)} machines restored, not 36 of 6")


def check_claim(r, path):
    section, where = r["claim_overhead_1pct"], f"{path}: claim_overhead_1pct"
    check_anchor(section, CLAIM_ANCHOR, where)
    ckpt = section["ckpt_s"]
    for interval, row in section["rows"].items():
        for end in (lo, hi):
            c = end(ckpt)
            overhead = c / (int(interval) * 60.0 + c) * 100.0
            if end(row["overhead_pct"]) != overhead:
                fail(
                    f"{where}: overhead_pct at {interval} min is {row['overhead_pct']!r}, "
                    f"but a {c} s round every {interval} min costs {overhead} %"
                )
    hourly = hi(section["rows"][str(CLAIM_ANCHOR["interval_min"])]["overhead_pct"])
    if not hourly < CLAIM_ANCHOR["overhead_pct_below"]:
        fail(f"{where}: hourly checkpoints cost {hourly} %, not under the paper's 1 %")


def check_ablations(r, path):
    where = f"{path}: ablation_lwgroups"
    for size, row in r["ablation_lwgroups"]["rows"].items():
        if not row["lw_msgs"] < row["full_msgs"]:
            fail(f"{where}: at {size} nodes a lightweight change costs {row['lw_msgs']} "
                 f"messages, a full one {row['full_msgs']}")
    where = f"{path}: ablation_incremental"
    rows = r["ablation_incremental"]["rows"]
    for dirty, row in rows.items():
        if row["speedup"] != row["full_s"] / row["incr_s"]:
            fail(f"{where}: speedup at {dirty} % dirty is {row['speedup']}, not full_s / incr_s")
    if not rows["1"]["full_s"] / rows["1"]["incr_s"] >= INCREMENTAL_FLOOR:
        fail(f"{where}: incremental is under {INCREMENTAL_FLOOR}x at 1 % dirty")
    section, where = r["ablation_forked"], f"{path}: ablation_forked"
    for mb, row in section["rows"].items():
        for stall, pct in (("blocking_s", "overhead_blocking_pct"), ("forked_s", "overhead_forked_pct")):
            if row[pct] != row[stall] / (section["interval_s"] + row[stall]) * 100.0:
                fail(f"{where}: {pct} at {mb} MB is not {stall} over the interval")
    if not section["rows"]["135"]["forked_s"] < FORKED_STALL_CEILING_S:
        fail(f"{where}: the forked 135 MB checkpoint stalls the app {section['rows']['135']['forked_s']} s")
    where = f"{path}: ablation_domino"
    for rate, row in r["ablation_domino"]["rows"].items():
        if row["coordinated_avg"] != 0 or row["coordinated_worst"] != 0:
            fail(f"{where}: coordinated checkpoints at {rate} % discarded some on rollback")
        if not row["independent_avg"] > 0:
            fail(f"{where}: independent checkpoints at {rate} % never propagated a rollback")
    rows, where = r["ablation_fastpath"]["rows"], f"{path}: ablation_fastpath"
    if not rows["object_bus"]["rtt_us"] > rows["fast_path"]["rtt_us"]:
        fail(f"{where}: the object bus costs no more than the fast data path")
    rows, where = r["ablation_polling"]["rows"], f"{path}: ablation_polling"
    if not rows["direct"]["us_per_recv"] > rows["polled"]["us_per_recv"]:
        fail(f"{where}: direct port reads cost no more than the polling thread")


def check_paper(r, path):
    for name in PAPER:
        check_paper_cells(name, r[name], (), f"{path}: {name}")
    check_ckpt_figure("fig3_native_ckpt", r, path, FIG3_ANCHOR)
    check_ckpt_figure("fig4_hetero_ckpt", r, path, FIG4_ANCHOR)
    check_fig5(r, path)
    check_fig6(r, path)
    check_table1(r, path)
    check_table2(r, path)
    check_claim(r, path)
    check_ablations(r, path)


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
    check_paper(report, path)
    if report["quick"]:
        print(
            f"BENCH GATE: {path} quick mode — schema, recovery and paper claims ok, "
            "collective claims not judged"
        )
        return
    check_claims(report, path)
    print(f"BENCH GATE: {path} schema, headline and paper claims ok")


if __name__ == "__main__":
    main()
