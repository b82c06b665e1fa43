"""Measure every workload, plain and traced, into one results file plus a table.

    python3 bench/baseline.py [--seed N] [--name baseline]

Writes bench/results/BENCH_<name>.json (each workload's end-to-end and
per-layer records, each with its run manifest) and bench/results/BENCH_<name>.md,
and prints the latter: why each workload was chosen (as BENCHMARK.json
states it), the end-to-end metrics with ops and ops_failed, and the
per-layer table, one column per workload.
"""

import argparse
import json

import run

RESULTS_DIR = run.BENCH_DIR / "results"


def table(spec, records):
    names = [w["name"] for w in spec["workloads"]]
    lines = [f"# Benchmark results: {records['label']}", ""]
    for w in spec["workloads"]:
        lines.append(f"- `{w['name']}`: {w['why']}")
    lines += ["", "## End to end (untraced)", "",
              "| metric | unit | " + " | ".join(names) + " |",
              "|---|---|" + "---|" * len(names)]
    for m in spec["end_to_end"]:
        row = [records["workloads"][n]["end_to_end"]["metrics"][m["name"]]["value"] for n in names]
        lines.append(f"| {m['name']} | {m['unit']} | " + " | ".join(f"{v:.4g}" for v in row) + " |")
    row = [records["workloads"][n]["end_to_end"] for n in names]
    lines.append("| ops / ops_failed | count | "
                 + " | ".join(f"{r['attempted']} / {r['failed']}" for r in row) + " |")
    lines += ["", "## Per layer (traced run; trace.overhead_s = traced minus untraced pass)", "",
              "| metric | unit | " + " | ".join(names) + " |",
              "|---|---|" + "---|" * len(names)]
    for m in spec["per_layer"]:
        row = [records["workloads"][n]["per_layer"]["metrics"][m["name"]]["value"] for n in names]
        lines.append(f"| {m['name']} | {m['unit']} | " + " | ".join(f"{v:.4g}" for v in row) + " |")
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--name", default="baseline")
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    records = {"label": args.name, "workloads": {}}
    for w in spec["workloads"]:
        records["workloads"][w["name"]] = {
            "why": w["why"],
            "end_to_end": run.run(w["name"], args.seed, spec["run_seconds"], 0),
            "per_layer": run.run(w["name"], args.seed, spec["run_seconds"], 1),
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"BENCH_{args.name}"
    stem.with_suffix(".json").write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    text = table(spec, records)
    stem.with_suffix(".md").write_text(text, encoding="utf-8")
    print(text, end="")


if __name__ == "__main__":
    main()
