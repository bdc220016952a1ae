"""Span tracing of covop, installed from outside the package.

``Tracer.install()`` wraps every public function of every ``covop`` module,
the public and arithmetic methods of every class a module defines, and the
juhl internals named in ``INTERNALS``.  Each wrapped name is patched in every
``covop`` namespace that binds it, and methods are patched on their class, so
calls made inside the package are traced too.  The repository's source is
not edited.

Each call is a span with a name, a start, an end and the span that was open
when it started (its parent).  Self time is a span's duration minus the
durations of its direct child spans.  Per-name totals are kept for every
span; the span records themselves are kept only for the first
``SPAN_CAP`` spans, which is enough to show the call tree without letting a
run of millions of ring operations fill memory.
"""

import functools
import importlib
import inspect
import pkgutil
import time

# Private names traced on purpose: the reduced-basis engine of juhl.
INTERNALS = {"juhl": ("_reduced_iterated", "_expand_reduced")}

# Arithmetic dunders traced on classes; the ring and jet operations live here.
OPERATORS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__",
             "__pow__", "__truediv__", "__rtruediv__", "__matmul__")

SPAN_CAP = 20000


def _public_name(attr):
    """'__mul__' -> 'mul'; other names unchanged."""
    if attr.startswith("__") and attr.endswith("__"):
        return attr[2:-2]
    return attr


def covop_modules():
    """{short name: module} for every covop submodule, plus the package."""
    pkg = importlib.import_module("covop")
    mods = {"covop": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            mods[info.name] = importlib.import_module(f"covop.{info.name}")
    return mods


class Tracer:
    """Aggregated span statistics plus a capped list of span records."""

    def __init__(self):
        self.names = []          # span name per index
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.errors = []         # {exception class name: count} per index
        self.edges = {}          # (parent index or -1, index) -> calls
        self.spans = []          # [name index, start, end, span id, parent id]
        self.dropped = 0
        self.next_id = 0
        self.stack = []          # open spans: [name index, span id, child time]
        self.counters = {}       # extra per-name counts set by hooks
        self.jet_mul_shapes = {}  # (dim, order) -> calls of Jet.__mul__
        self.notes = []
        self.originals = {}      # span name -> unwrapped callable
        self._patched = []       # (owner, attr, original) for uninstall
        self.t0 = time.perf_counter()

    # -- wrapping ------------------------------------------------------------

    def _index(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        self.errors.append({})
        return len(self.names) - 1

    def wrap(self, name, fn, hook=None):
        """A traced stand-in for fn; hook(args, result) runs after each call."""
        idx = self._index(name)
        self.originals[name] = fn
        stack, spans, edges = self.stack, self.spans, self.edges
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [idx, sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errs = tracer.errors[idx]
                kind = type(exc).__name__
                errs[kind] = errs.get(kind, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[idx] += 1
                total_s[idx] += dur
                self_s[idx] += dur - frame[2]
                pidx = -1
                pid = -1
                if parent is not None:
                    parent[2] += dur
                    pidx = parent[0]
                    pid = parent[1]
                key = (pidx, idx)
                edges[key] = edges.get(key, 0) + 1
                if sid < SPAN_CAP:
                    spans.append((idx, start, end, sid, pid))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self, hooks=None):
        """Patch every traceable covop name; returns self."""
        hooks = hooks or {}
        mods = covop_modules()
        replaced = {}  # id(original) -> wrapper, shared by all bindings
        for short, mod in mods.items():
            if short == "covop":
                continue
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not attr.startswith("_"):
                        self._wrap_class(short, obj, hooks)
                    continue
                if not callable(obj):
                    continue
                if attr.startswith("_") and attr not in INTERNALS.get(short, ()):
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, hooks.get(name))
                self._patch(mod, attr, obj, replaced[id(obj)])
            for attr in INTERNALS.get(short, ()):
                if not hasattr(mod, attr):
                    self.notes.append(f"{short}.{attr} not found; its metrics read 0")
        # rebind names imported into other covop namespaces
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._patch(mod, attr, obj, wrapper)
        return self

    def _wrap_class(self, short, cls, hooks):
        done = {}  # aliases such as __radd__ = __add__ share one wrapper
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue  # properties and plain attributes
            if id(fn) not in done:
                name = f"{short}.{cls.__name__}.{_public_name(fn.__name__)}"
                done[id(fn)] = self.wrap(name, fn, hooks.get(name))
            wrapper = done[id(fn)]
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._patch(cls, attr, raw, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- readout -------------------------------------------------------------

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def stats(self):
        """{name: {calls, total_s, self_s, errors}}."""
        return {name: {"calls": self.calls[i], "total_s": self.total_s[i],
                       "self_s": self.self_s[i], "errors": dict(self.errors[i])}
                for i, name in enumerate(self.names)}

    def edge_calls(self):
        """{(parent name or None, child name): calls}."""
        names = self.names
        return {(names[p] if p >= 0 else None, names[c]): k
                for (p, c), k in self.edges.items()}

    def to_dict(self):
        names = self.names
        return {
            "stats": self.stats(),
            "edges": [{"parent": p, "child": c, "calls": k}
                      for (p, c), k in sorted(self.edge_calls().items(),
                                              key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "counters": dict(self.counters),
            "jet_mul_shapes": [{"dim": d, "order": o, "calls": k}
                               for (d, o), k in sorted(self.jet_mul_shapes.items())],
            "spans": [{"id": sid, "name": names[i], "start": s - self.t0,
                       "end": e - self.t0, "parent": pid if pid >= 0 else None}
                      for i, s, e, sid, pid in sorted(self.spans, key=lambda r: r[3])],
            "spans_dropped": self.dropped,
            "notes": list(self.notes),
        }


def default_hooks(tracer):
    """Counters that need a call's arguments or result."""

    def jet_mul(args, result):
        a, b = args[0], args[1]
        other = len(b.terms) if hasattr(b, "terms") else 1  # a scalar is one term
        tracer.count("jets.Jet.mul.pairs", len(a.terms) * other)
        key = (a.dim, a.order)
        tracer.jet_mul_shapes[key] = tracer.jet_mul_shapes.get(key, 0) + 1

    def expand_reduced(args, result):
        tracer.count("juhl._expand_reduced.terms_out", len(getattr(result, "terms", ())))

    return {"jets.Jet.mul": jet_mul, "juhl._expand_reduced": expand_reduced}

