"""covop benchmark runner.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

Run from the root of a covop checkout.  Each workload runs in fresh child
processes started one at a time (no load runs in parallel), so every child
pays the import and starts with cold caches, as a CLI user does.

On a shared machine the CPU speed drifts by up to 2x within seconds.  Every
child therefore times a short pure-Python probe that uses no covop code (see
``child.py``); the probe drifts with the machine, so a time over the probe
time keeps what the program changed and drops what the machine did.

* ``--trace 0`` measures the end-to-end metrics.  ``wall_rel`` is a workload
  child's wall time (its ``cli.main`` calls; mean over the children printed
  as ``wall_s``) over the mean of the probes sampled while it ran (printed
  as ``probe_s``), averaged over the workload children.  ``setup_s`` is the
  wall time of ``import covop.cli`` brought to the machine speed at which
  the probe takes ``PROBE_REF_S``: it is multiplied by ``PROBE_REF_S`` over
  the median probe sampled while it ran, to the power
  ``SETUP_SPEED_EXPONENT``.  It is a median over every child of the run: an
  import-only child follows each workload child, so the samples spread over
  the whole run, and more are added after it up to ``SETUP_SAMPLES``.  The
  plain median import time is printed as ``setup_wall_s``.  ``peak_rss_mb`` is a workload child's ``ru_maxrss``, a
  median over the workload children.  Workload children are started until
  ``--seconds`` have passed.
* ``--trace 1`` adds one traced child after the untraced ones and reports the
  per-layer metrics.  The tracing overhead compares the traced child's
  ``wall_s`` over its own probe time with ``wall_rel``, so a change of the
  machine's speed between the children does not read as tracing cost.

Every child's output is checked in a separate process once it has exited,
so checks are outside the timed region.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Result files go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import WORKLOADS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
DECLARATION = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

OUT = ".perfbench_out"
SRC = "src"
SETUP_SAMPLES = 9
PROBE_REF_S = 0.006  # probe time that defines the reference speed of setup_s
# The import slows down less than the probe does when the machine slows: in
# repeated imports on a 2-vCPU shared machine, a 2x slower probe went with a
# 1.45x to 1.7x slower import, the probe ratio to the power 0.55 to 0.75.
# Dividing by the full ratio over-corrected (fast runs read higher than slow
# ones); this power takes out most of the speed changes.
SETUP_SPEED_EXPONENT = 0.6
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (no covop source, a child crashed)."""


# -- environment ------------------------------------------------------------------


def git_sha(root="."):
    """HEAD commit read from the .git directory, without running git."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment():
    return {"python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m_start": os.getloadavg()[0]}


# -- children ---------------------------------------------------------------------


def _spawn(script, job, jobdir):
    os.makedirs(jobdir, exist_ok=True)
    path = os.path.join(jobdir, "job.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    log = os.path.join(jobdir, "log.txt")
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, script), path],
                                  stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"{script} timed out after {CHILD_TIMEOUT_S} s in {jobdir}", file=sys.stderr)
            return False
    if proc.returncode != 0:
        with open(log, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        print(f"{script} failed in {jobdir}:\n{tail}", file=sys.stderr)
        return False
    return True


def run_child(argvs, jobdir, trace=False):
    """Run argvs in a fresh child; returns its timings, or None if it died."""
    job = {"argvs": argvs, "outdir": jobdir, "trace": trace, "src": SRC}
    if not _spawn("child.py", job, jobdir):
        return None
    with open(os.path.join(jobdir, "child.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_child(workload, argvs, rcs, jobdir):
    """Verdicts for one child's outputs, checked in a separate process."""
    job = {"argvs": argvs, "rcs": rcs, "outdir": jobdir, "golden": workload.golden}
    if not _spawn("checks.py", job, jobdir):
        return {"verdicts": [{"argv": a, "digest": None, "why": "check crashed"}
                             for a in argvs],
                "accepted_samples": 0}
    with open(os.path.join(jobdir, "check.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- one workload -----------------------------------------------------------------


def speed_s(child):
    """Mean probe time while a child's workload ran: the probes sampled during
    it, or the batches before and after it when it was too short to sample."""
    return statistics.fmean(child["probe_s"]
                            or child["pre_probe_s"] + child["post_probe_s"])


def setup_sample_of(child):
    """(import time, median probe time while it ran) of one child; the median,
    because a probe now and then reads several times slower during the
    import."""
    probes = child["import_probe_s"] or child["pre_probe_s"]
    return child["setup_s"], statistics.median(probes)


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.reference = {}  # call index -> first passing digest at this seed

    def add(self, workload, verdicts):
        for k, v in enumerate(verdicts):
            why = v["why"]
            if workload.same_seed_identical and not why:
                first = self.reference.setdefault(k, v["digest"])
                if v["digest"] != first:
                    why = "stdout differs from an earlier run at the same seed"
            self.attempted += 1
            if why:
                self.failed += 1
                self.reasons.append(f"{' '.join(v['argv'])}: {why}")


def measure(workload, seed, seconds, trace):
    """Run one workload; returns a result dict (see module docstring)."""
    wdir = os.path.join(OUT, workload.name)
    shutil.rmtree(wdir, ignore_errors=True)
    argvs = workload.argvs(seed)
    tally = Tally()
    env = environment()

    # untimed warm-up: byte-compiles covop and warms the file cache
    if run_child([], os.path.join(wdir, "warmup")) is None:
        raise BenchError("importing covop.cli failed; see the log above")

    children = []
    setups = []  # (import time, median probe time while it ran), one per child

    def setup_sample():
        res = run_child([], os.path.join(wdir, f"s{len(setups)}"))
        if res is None:
            raise BenchError("an import-only child died")
        setups.append(setup_sample_of(res))

    start = time.perf_counter()
    while len(children) < workload.min_children or time.perf_counter() - start < seconds:
        jobdir = os.path.join(wdir, f"c{len(children)}")
        res = run_child(argvs, jobdir)
        if res is None:
            tally.attempted += len(argvs)
            tally.failed += len(argvs)
            tally.reasons.append(f"child {jobdir} died")
            break
        tally.add(workload, check_child(workload, argvs, res["rcs"], jobdir)["verdicts"])
        shutil.rmtree(jobdir)
        children.append(res)
        setups.append(setup_sample_of(res))
        setup_sample()
    if not children:
        raise BenchError(f"no child of {workload.name} completed")
    while len(setups) < SETUP_SAMPLES:
        setup_sample()

    walls = [c["wall_s"] for c in children]
    speeds = [speed_s(c) for c in children]
    wall_s = statistics.fmean(walls)
    probe_s = statistics.fmean(speeds)
    wall_rel = statistics.fmean(w / p for w, p in zip(walls, speeds))
    setup_s = statistics.median(t * (PROBE_REF_S / p) ** SETUP_SPEED_EXPONENT
                                for t, p in setups)
    setup_wall_s = statistics.median(t for t, _ in setups)
    end_to_end = {"setup_s": (setup_s, "s"),
                  "wall_rel": (wall_rel, "x"),
                  "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB")}
    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "env": env, "end_to_end": end_to_end,
              "wall_s": wall_s, "probe_s": probe_s, "setup_wall_s": setup_wall_s,
              "samples": {"setup_s": setups, "wall_s": walls, "probe_s": speeds,
                          "peak_rss_mb": [c["peak_rss_mb"] for c in children]}}

    if trace:
        jobdir = os.path.join(wdir, "traced")
        res = run_child(argvs, jobdir, trace=True)
        if res is None:
            raise BenchError(f"the traced child of {workload.name} died")
        checked = check_child(workload, argvs, res["rcs"], jobdir)
        tally.add(workload, checked["verdicts"])
        with open(os.path.join(jobdir, "trace.json"), encoding="utf-8") as fh:
            trace_doc = json.load(fh)
        traced_probe_s = statistics.fmean(res["pre_probe_s"] + res["post_probe_s"])
        traced_rel = res["wall_s"] / traced_probe_s
        per_layer, notes = layer_metrics(trace_doc, res["wall_s"], traced_rel, wall_rel,
                                         checked["accepted_samples"], res["emit_bytes"])
        result["per_layer"] = per_layer
        result["notes"] = notes
        result["traced_wall_s"] = res["wall_s"]
        result["traced_probe_s"] = traced_probe_s
        trace_doc["workload"] = workload.name
        trace_doc["env"] = env
        with open(os.path.join(OUT, f"TRACE_{workload.name}.json"), "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh)
        shutil.rmtree(jobdir)

    env["loadavg_1m_end"] = os.getloadavg()[0]
    result.update(attempted=tally.attempted, failed=tally.failed,
                  fail_frac=tally.failed / tally.attempted, failures=tally.reasons)
    suffix = "_trace" if trace else ""
    with open(os.path.join(OUT, f"BENCH_{workload.name}{suffix}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    shutil.rmtree(wdir, ignore_errors=True)
    return result


# -- reporting --------------------------------------------------------------------


def print_result(r):
    env = r["env"]
    print(f"== {r['workload']} (seed {r['seed']}): {len(r['samples']['wall_s'])} children, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"git {env['git_sha'][:12]}, nproc {env['nproc']}, load "
          f"{env['loadavg_1m_start']:.2f}->{env['loadavg_1m_end']:.2f}")
    rows = dict(r["end_to_end"])
    rows.update(setup_wall_s=(r["setup_wall_s"], "s"), wall_s=(r["wall_s"], "s"),
                probe_s=(r["probe_s"], "s"),
                fail_frac=(r["fail_frac"], "ratio"))
    for name, (value, unit) in rows.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if "per_layer" in r:
        print(f"  traced wall_s {r['traced_wall_s']:.4g} s against untraced "
              f"{r['wall_s']:.4g} s; traced probe_s {r['traced_probe_s']:.4g} s")
        for name, (value, unit) in r["per_layer"].items():
            print(f"  {name:44s} {value:14.6g} {unit}")
    for note in r.get("notes", []):
        print(f"  note: {note}")
    for why in r["failures"]:
        print(f"  FAILED {why}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "covop", "cli.py")):
        print(f"no covop source under {SRC}/: run from the root of a covop checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(DECLARATION, encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(measure(WORKLOADS[name], args.seed, seconds, bool(args.trace)))
            print_result(results[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "/"
        for name, (value, unit) in r[key].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
