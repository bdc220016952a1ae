"""One workload execution in a fresh interpreter.

Usage: python3 perfbench/child.py <job.json>

The job lists CLI argv lists.  The child times ``import covop.cli`` (the
set-up a CLI user pays on every call), then calls ``covop.cli.main(argv)``
for each argv with ``sys.stdout`` pointed at ``<outdir>/<k>.out`` on disk:
an in-memory buffer would add its own memory to the peak RSS.  The
``lru_cache``s start cold, as they do for a user.  With ``"trace": true`` the
tracer is installed after the import and its record is written to
``<outdir>/trace.json``.

The machine's speed is read with a short probe that uses no covop code: a
batch of probes just before the import and another after the workload,
and one probe every ``SAMPLE_EVERY_S``, fired by a timer signal, while the
import runs and, in an untraced child, while the workload runs.  The time
spent in those sampling probes is taken out of the import and call times.
The traced child does not sample its workload, so that no probe time lands
in its spans.  The timings are written to
``<outdir>/child.json``.
"""

import gc
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_STEPS = 1600
PROBE_BATCH = 25      # probes in the batches before the import and after the workload
SAMPLE_EVERY_S = 0.1


def probe_s():
    """Wall time of a fixed pure-Python task that uses nothing from covop.

    It reads how fast this machine runs Python at the moment, so the runner
    can tell a slow machine from a slow program.  The garbage collector is
    off while it runs: a collection it set off would scan the heap of the
    program being measured and make the probe read the program's state.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = {}
        step = Fraction(1, 7)
        for i in range(PROBE_STEPS):
            key = i % 97
            acc[key] = acc.get(key, 0) + step * (i % 5)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedSampler:
    """Runs the probe on a timer signal while the workload runs.

    The handler runs in the main thread between bytecodes, so the probe
    measures the speed the workload gets at that moment; ``spent_s`` is the
    wall time of every handler call, to be taken out of the timings.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe_s())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cache_ratio(fn):
    info = fn.cache_info()
    looked = info.hits + info.misses
    return info.hits / looked if looked else 0.0


def run(job):
    pre_probe_s = [probe_s() for _ in range(PROBE_BATCH)]
    sys.path.insert(0, os.path.abspath(job["src"]))
    with SpeedSampler() as importing:
        t0 = time.perf_counter()
        import covop.cli as cli
        setup_s = time.perf_counter() - t0 - importing.spent_s

    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.default_hooks(tracer))

    outdir = job["outdir"]
    rcs, call_s, emit_bytes = [], [], 0
    samples = []
    real_stdout = sys.stdout
    for k, argv in enumerate(job["argvs"]):
        path = os.path.join(outdir, f"{k}.out")
        sampler = SpeedSampler()
        with open(path, "w", encoding="utf-8") as out:
            sys.stdout = out
            start = time.perf_counter()
            try:
                if tracer is None:
                    with sampler:
                        rc = cli.main(argv)
                else:
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            finally:
                elapsed = time.perf_counter() - start - sampler.spent_s
                sys.stdout = real_stdout
        rcs.append(rc)
        call_s.append(elapsed)
        samples.extend(sampler.samples)
        emit_bytes += os.path.getsize(path)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    post_probe_s = [probe_s() for _ in range(PROBE_BATCH)] if job["argvs"] else []

    result = {"setup_s": setup_s, "wall_s": sum(call_s), "call_s": call_s,
              "rcs": rcs, "peak_rss_mb": peak_rss_mb, "emit_bytes": emit_bytes,
              "pre_probe_s": pre_probe_s, "import_probe_s": importing.samples,
              "probe_s": samples, "post_probe_s": post_probe_s}
    if tracer is not None:
        trace = tracer.to_dict()
        trace["cache_hit_ratio"] = {}
        for name in ("juhl.iterated", "juhl.juhl_coeffs"):
            fn = tracer.originals.get(name)
            if fn is not None and hasattr(fn, "cache_info"):
                trace["cache_hit_ratio"][name] = _cache_ratio(fn)
            else:
                trace["notes"].append(f"{name} has no cache_info; its hit ratio reads 0")
        with open(os.path.join(outdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    with open(os.path.join(outdir, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        run(json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
