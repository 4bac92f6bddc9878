#!/usr/bin/env python3
"""Map the bench sections' committed results onto the benchmark's metric names.

    python3 perfbench/history.py [--json]

Run from the root of a cobra checkout. Reads BENCH_PR4/6/9/10.json there and
prints, for every field with a counterpart in BENCHMARK.json, the metric
name, the value in the metric's unit, and where it came from. The files are
only read. Their numbers were measured on other machines, with other run
sizes and other statistics (one sample, not the best of many), so they are
history to read trends from, not a baseline to gate against.
"""
import json
import os
import sys

LABEL = "other-machine history"


def key(design):
    """Metric-name form of a design name: "TAGE-L" -> "tage_l"."""
    return design.lower().replace("-", "_")


def ns_per(rate):
    return 1e9 / rate if rate else None


def pr4(doc):
    for d in doc["designs"]:
        k = key(d["design"])
        yield f"core.ns_per_insn.{k}", ns_per(d["insns_per_sec"]), "uarch insns_per_sec, inverted"
        yield f"core.alloc_bytes_per_insn.{k}", d["alloc_bytes_per_insn"], "uarch alloc_bytes_per_insn"


def pr6(doc):
    yield from pr4(doc)
    # replay had one engine then: the interpreted pipeline
    for r in doc["replay"]:
        k = key(r["design"])
        yield f"replay_interpreted_branches_per_s.{k}", r["branches_per_sec"], "replay branches_per_sec"
        yield (f"replay.alloc_bytes_per_branch.interpreted.{k}", r["alloc_bytes_per_branch"],
               "replay alloc_bytes_per_branch")


def pr9(doc):
    # timed Pipeline.snapshot/restore; the benchmark times the compiled
    # Engine's, over the same flat-state slab
    for d in doc["designs"]:
        k = key(d["design"])
        yield f"engine.snapshot_us.{k}", d["snapshot_us_deep"], "Pipeline snapshot_us_deep"
        yield f"engine.restore_us.{k}", d["restore_us"], "Pipeline restore_us"


def pr10(doc):
    for d in doc["designs"]:
        k = key(d["design"])
        for engine in ("compiled", "interpreted"):
            e = d[engine]
            yield (f"replay_{engine}_branches_per_s.{k}", e["branches_per_sec"],
                   f"designs[{d['design']}].{engine}.branches_per_sec")
            yield (f"replay.alloc_bytes_per_branch.{engine}.{k}", e["alloc_bytes_per_branch"],
                   f"designs[{d['design']}].{engine}.alloc_bytes_per_branch")
        yield f"core.ns_per_insn.{k}", ns_per(d["uarch_insns_per_sec"]), "uarch_insns_per_sec, inverted"


READERS = {"BENCH_PR4.json": pr4, "BENCH_PR6.json": pr6, "BENCH_PR9.json": pr9, "BENCH_PR10.json": pr10}


def units():
    """Every metric of BENCHMARK.json with its unit."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def history():
    known = units()
    rows = []
    for name, read in READERS.items():
        if not os.path.isfile(name):
            continue
        with open(name) as f:
            doc = json.load(f)
        size = doc.get("trace", {}).get("branches") or doc.get("insns")
        for metric, value, field in read(doc):
            if metric in known and value is not None:
                rows.append({"metric": metric, "value": value, "unit": known[metric], "source": name,
                             "field": field, "workload": doc.get("workload"), "size": size, "label": LABEL})
    return rows


def main(argv):
    rows = history()
    if "--json" in argv:
        print(json.dumps(rows, indent=1))
        return 0
    print(f"# {LABEL}: not comparable with this machine's runs")
    for r in rows:
        print(f"{r['metric']:48s} {r['value']:14.6g} {r['unit']:11s} "
              f"{r['source']} ({r['workload']}, {r['size']}): {r['field']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
