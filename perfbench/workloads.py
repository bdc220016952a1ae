"""The benchmark's workloads and the per-layer metrics read from a trace.

Why each workload exists is written out in perfbench/README.md; in short:

* ``exact-grid``: the exact core (juhl, diffop, algebra) does nearly all of
  the work; jets, conformal maps and quadrature do none.
* ``seeded-numeric``: jets, conformal maps and quadrature do the work; the
  exact core only builds ``iterated(n <= 3, N <= 3)``.
* ``export``: the exact core again, but producing output rather than
  checking it, so serialization and the memory of expanded operators show.
"""

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: Callable          # seed -> list of CLI argv lists
    golden: str = None       # key in golden.json, or None
    same_seed_identical: bool = False  # children must print identical bytes
    min_children: int = 1


def _exact_grid(seed):
    # deterministic: the seed is ignored
    return [["verify", "--suite", "symbolic"]]


def _seeded_numeric(seed):
    return [["verify", "--suite", "numeric", "--seed", str(seed)],
            ["verify", "--suite", "ambient", "--seed", str(seed)]]


def _export(seed):
    # deterministic: the seed is ignored; every (n, N) the CLI accepts.  The
    # operator is N = 10 (67,078 terms, 5-8 s), not the CLI's largest N = 12
    # (198,978 terms, 30 s): a run must hold more than one child, because one
    # 30 s child per run spread by 0.27 (IQR over median) across runs.  It is
    # not smaller either: at N = 9 the emit is no longer the largest share.
    calls = [["coeffs", "--n", str(n), "--N", str(N), "--format", fmt]
             for n in range(1, 9) for N in range(1, 13)
             for fmt in ("json", "csv", "latex")]
    return calls + [["operator", "--n", "8", "--N", "10"]]


WORKLOADS = {
    "exact-grid": Workload("exact-grid", _exact_grid, golden="exact-grid"),
    "seeded-numeric": Workload("seeded-numeric", _seeded_numeric,
                               same_seed_identical=True, min_children=2),
    "export": Workload("export", _export, golden="export"),
}


# -- per-layer metrics ----------------------------------------------------------

POLY_RING = ("add", "sub", "rsub", "neg", "mul", "pow")
MODULES = ("algebra", "juhl", "diffop", "symbolcalc", "jets", "conformal",
           "verify", "special", "cli")
SAMPLING_CHECKS = ("verify.check_covariance_one_step",
                   "verify.check_covariance_iterated",
                   "verify.check_mult_intertwining")


class TraceView:
    """Reads named statistics from a child's trace; a name the program no
    longer has reads 0 and leaves a note, so a refactor cannot crash it."""

    def __init__(self, trace):
        self.stats = trace["stats"]
        self.counters = trace["counters"]
        self.edges = trace["edges"]
        self.hit_ratio = trace["cache_hit_ratio"]
        self.notes = list(trace["notes"])

    def get(self, name, field):
        if name not in self.stats:
            self.notes.append(f"{name} is not traced; its {field} reads 0")
            return 0
        return self.stats[name][field]

    def self_sum(self, predicate):
        return sum(s["self_s"] for name, s in self.stats.items() if predicate(name))

    def counter(self, key):
        return self.counters.get(key, 0)

    def edge_calls(self, parents, child):
        return sum(e["calls"] for e in self.edges
                   if e["parent"] in parents and e["child"] == child)


def layer_metrics(trace, traced_wall_s, traced_rel, untraced_rel, accepted_samples,
                  emit_bytes):
    """{metric name: (value, unit)} for every per-layer metric.

    ``traced_rel`` and ``untraced_rel`` are workload time over probe time
    (``wall_rel``) of the traced child and of the untraced children; their
    ratio is the tracing overhead with the machine's speed divided out.
    """
    t = TraceView(trace)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("algebra.Poly.mul.calls", t.get("algebra.Poly.mul", "calls"), "count")
    put("algebra.Poly.add.calls", t.get("algebra.Poly.add", "calls"), "count")
    put("algebra.Poly.subs_value.calls", t.get("algebra.Poly.subs_value", "calls"), "count")
    put("algebra.Poly.ring.self_s",
        t.self_sum(lambda n: n in {f"algebra.Poly.{op}" for op in POLY_RING}), "s")

    put("juhl._reduced_iterated.calls", t.get("juhl._reduced_iterated", "calls"), "count")
    put("juhl._reduced_iterated.self_s", t.get("juhl._reduced_iterated", "self_s"), "s")
    put("juhl._expand_reduced.self_s", t.get("juhl._expand_reduced", "self_s"), "s")
    put("juhl._expand_reduced.terms_out", t.counter("juhl._expand_reduced.terms_out"), "count")
    put("juhl.juhl_coeffs.self_s", t.get("juhl.juhl_coeffs", "self_s"), "s")
    for name in ("juhl.iterated", "juhl.juhl_coeffs"):
        put(f"{name}.hit_ratio", t.hit_ratio.get(name, 0.0), "ratio")

    for name in ("diffop.DiffOp.restrict", "diffop.DiffOp.apply",
                 "diffop.DiffOp.compose", "diffop.decompose_tangential",
                 "symbolcalc.check_factorization", "symbolcalc.check_ks_inversion"):
        put(f"{name}.self_s", t.get(name, "self_s"), "s")

    put("jets.Jet.mul.calls", t.get("jets.Jet.mul", "calls"), "count")
    put("jets.Jet.mul.self_s", t.get("jets.Jet.mul", "self_s"), "s")
    put("jets.Jet.mul.pairs", t.counter("jets.Jet.mul.pairs"), "count")
    put("jets.Jet.compose_series.self_s", t.get("jets.Jet.compose_series", "self_s"), "s")

    put("conformal.eval_generic.self_s",
        t.self_sum(lambda n: n.startswith("conformal.") and n.endswith(".eval_generic")), "s")
    put("conformal.PulledBack.jet.self_s", t.get("conformal.PulledBack.jet", "self_s"), "s")
    put("conformal.ConformalMap.act_and_factor.calls",
        t.get("conformal.ConformalMap.act_and_factor", "calls"), "count")

    put("verify.knapp_stein_value.calls", t.get("verify.knapp_stein_value", "calls"), "count")
    put("verify.knapp_stein_value.self_s", t.get("verify.knapp_stein_value", "self_s"), "s")
    put("verify.checks.self_s", t.self_sum(lambda n: n.startswith("verify.check_")), "s")
    attempts = t.edge_calls(SAMPLING_CHECKS, "verify.sample_bump")
    put("verify.sample_yield", accepted_samples / attempts if attempts else 0.0, "ratio")

    put("special.gamma_checked.calls", t.get("special.gamma_checked", "calls"), "count")
    errors = t.get("special.gamma_checked", "errors") or {}
    put("special.pole_errors", errors.get("PoleAtLambda", 0), "count")

    for name in ("cli.cmd_operator", "cli.operator_to_dict", "cli.coeff_table",
                 "cli.cmd_verify"):
        put(f"{name}.self_s", t.get(name, "self_s"), "s")
    put("cli.emit_mb", emit_bytes / 1e6, "MB")

    for mod in MODULES:
        share = t.self_sum(lambda n: n.startswith(mod + ".")) / traced_wall_s
        put(f"layer.{mod}.self_share", share, "ratio")
    put("trace.overhead", traced_rel / untraced_rel - 1.0, "ratio")
    return out, t.notes
