"""Fresh-process runner: import relbound, then time CLI calls back to back.

Reads a JSON request on stdin: {"src": path to the package's parent
directory, "ops": [argv, ...], "trace": bool, "sample_speed": bool,
"spans_out": path or null}. Writes one JSON object on stdout: the set-up
time (from the start of `import relbound` to the first call), each
call's exit code, seconds and captured output, the peak resident set,
with speed sampling each time also scaled to the reference speed, and
with tracing the per-layer stats. Nothing else may write to stdout, so
every call runs with stdout and stderr captured.
"""

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path


# On a shared host the CPU speed a process gets drifts by up to 1.7x over
# seconds to minutes, and wall times drift with it. A fixed pure-Python
# loop run from SIGALRM every SPEED_PERIOD_S seconds in the same process
# tracks that drift; each timing, less the loop's own time, is scaled by
# REFERENCE_LOOP_S over the loop's median time while it ran. This removes
# about half the drift of numpy-bound work and most of it for pure-Python
# work. REFERENCE_LOOP_S is the loop's time in a quiet period on a 2-vCPU
# x86-64 host under Python 3.11.
SPEED_PERIOD_S = 0.02
SPEED_LOOPS = 8000
REFERENCE_LOOP_S = 0.0005


class SpeedSampler:
    """Times a fixed loop from SIGALRM while active; scales timings to the reference speed."""

    def __init__(self):
        self.loops = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        s = 0
        for i in range(SPEED_LOOPS):
            s += i * i % 7
        took = time.perf_counter() - start
        self.loops.append(took)
        self.spent += took

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.loops), self.spent

    def scaled(self, seconds, since):
        """`seconds` measured from mark `since`, less the sampling time, at the reference speed."""
        count, spent = since
        own = seconds - (self.spent - spent)
        # a call shorter than one period uses the latest sample before it
        loops = self.loops[count:] or self.loops[-1:]
        return own * REFERENCE_LOOP_S / statistics.median(loops) if loops else own


def run_ops(ops, sampler=None):
    """Call relbound.cli.main on each argv; the timed region is the call alone."""
    from relbound import cli

    results = []
    for argv in ops:
        mark = sampler.mark() if sampler else None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the argv
                rc = exc.code
            except Exception:
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - start
        results.append({
            "rc": rc, "seconds": seconds, "scaled_s": sampler.scaled(seconds, mark) if sampler else None,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
        })
    return results


def main():
    request = json.load(sys.stdin)
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    with contextlib.ExitStack() as stack:
        sampler = stack.enter_context(SpeedSampler()) if request["sample_speed"] else None
        mark = sampler.mark() if sampler else None
        start = time.perf_counter()
        import relbound
        import relbound.cli  # noqa: F401  (what the `relbound` command imports)

        setup_s = time.perf_counter() - start
        if src not in Path(relbound.__file__).resolve().parents:
            raise SystemExit(f"relbound imported from {relbound.__file__}, not from {src}")
        payload = {"setup_s": setup_s, "scaled_setup_s": sampler.scaled(setup_s, mark) if sampler else None}
        tracer = None
        if request["trace"]:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        payload["results"] = run_ops(request["ops"], sampler)
    payload["numpy"] = sys.modules["numpy"].__version__
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        payload["layers"] = spans.flat_metrics(tracer.stats())
        if request.get("spans_out"):
            tracer.write_spans(request["spans_out"])
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
