"""Record the reference curve values the curves workload checks against.

    python3 bench/record_reference.py

For each channel, runs `relbound bounds` for every applicable bound plus
both envelopes on the 200-point grid at every shift the benchmark seed
can pick, and keeps the values at grid indices that every shifted grid
contains. It refuses to write if two shifts disagree there by more than
1e-9, which would make the check depend on the seed.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = workloads.BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from relbound import cli  # noqa: E402
from relbound.channel import Channel  # noqa: E402
from relbound.curves import applicable_bounds, csv_to_curves  # noqa: E402

REF_INDEX = list(range(0, workloads.POINTS - workloads.MAX_SHIFT, 13))


def main():
    channels = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for q, eps in workloads.CHANNELS:
            names = applicable_bounds(Channel(q, eps)) + ["envelope_lower", "envelope_upper"]
            by_shift = []
            for shift in range(workloads.MAX_SHIFT + 1):
                op = workloads.curves_op(q, eps, shift, names, tmp)
                if cli.main(op["argv"]) != 0:
                    raise SystemExit(f"bounds failed: {op['argv']}")
                curves = {c.name: c.points for c in csv_to_curves(Path(op["out"]).read_text())}
                by_shift.append({n: [curves[n][i + shift] for i in REF_INDEX] for n in names})
            base = by_shift[0]
            for other in by_shift[1:]:
                for n in names:
                    for (r0, v0), (r1, v1) in zip(base[n], other[n]):
                        same = v0 == v1 or (math.isfinite(v0) and abs(v0 - v1) <= 1e-9)
                        if abs(r0 - r1) > 1e-12 or not same:
                            raise SystemExit(f"q={q} eps={eps} {n}: shifts disagree at R={r0!r}")
            channels.append({
                "q": q, "eps": eps, "bounds": names,
                "rates": [r for r, _ in base[names[0]]],
                "values": {n: ["inf" if v == math.inf else v for _, v in base[n]] for n in names},
            })
            print(f"q={q} eps={eps}: {len(names)} curves", file=sys.stderr)
    record = {"points": workloads.POINTS, "max_shift": workloads.MAX_SHIFT,
              "ref_index": REF_INDEX, "tolerance": workloads.CURVE_TOL, "channels": channels}
    workloads.REFERENCE_FILE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
