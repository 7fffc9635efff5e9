"""Span tracing of the package's layers, installed only in traced workers.

Layers are the package's modules.  ``install`` wraps, at every binding
site, each public module-level function of a layer, plus the hot class
methods named in ``HOT_METHODS``.  ``Field``'s scalar methods stay
unwrapped: a wrapper costs more than each of their calls.

Every wrapped call is a span with a start, an end and a parent, the
innermost span open when it began.  The tracer keeps, per job:

* ``calls[key]`` -- number of calls;
* ``incl[key]`` -- inclusive seconds of the outermost activations (a
  recursive call is not counted twice);
* ``self[layer]`` -- span time minus the time its child spans cover,
  summed over the layer.

Spans of module-level functions are also kept one by one, with their
job id and parent; hot-method spans are only aggregated.  Nothing is
written until the worker ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("linalg", "multipoly", "matspace", "normalize", "idempotents",
          "verify", "spacefile", "cli")

# class -> methods; a constructor is traced under the class's own key.
HOT_METHODS = {
    "linalg": {"DenseMatrix": ("__init__", "mul"),
               "VectorSubspace": ("member", "from_vectors")},
    "multipoly": {"MultiPoly": ("__init__",)},
}

# Functions whose inclusive time is also split by the result.
SPLIT_BY_RESULT = {
    "verify.verify_mathieu": lambda verdict: "holds" if verdict.holds else "witness",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []        # open spans: [key, layer, start, child_s, span_id]
        self.active = {}       # key -> open activations
        self.next_id = 1
        self.job = None
        self.spans = []        # (job, span_id, parent_id, key, start, end)
        self.calls = {}
        self.incl = {}
        self.self_s = {}

    def start_job(self, job):
        """Begin aggregating for ``job``; return the previous job's totals."""
        if self.stack:
            raise RuntimeError("job boundary inside an open span")
        done = {"calls": self.calls, "incl": self.incl, "self": self.self_s}
        self.job = job
        self.calls = {}
        self.incl = {}
        self.self_s = {}
        return done

    def enter(self, key, layer):
        span = [key, layer, self.clock(), 0.0, self.next_id]
        self.next_id += 1
        self.stack.append(span)
        self.active[key] = self.active.get(key, 0) + 1
        return span

    def exit(self, span, record):
        end = self.clock()
        key, layer, start, child_s, span_id = span
        stack = self.stack
        if stack.pop() is not span:
            raise RuntimeError("spans closed out of order")
        dur = end - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child_s
        if stack:
            stack[-1][3] += dur
        self.calls[key] = self.calls.get(key, 0) + 1
        depth = self.active[key] - 1
        self.active[key] = depth
        if depth == 0:
            self.incl[key] = self.incl.get(key, 0.0) + dur
        if record:
            self.spans.append((self.job, span_id, stack[-1][4] if stack else None,
                               key, start, end))
        return dur

    def wrap(self, key, layer, fn, record):
        split = SPLIT_BY_RESULT.get(key)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(key, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(span, record)
                raise
            dur = exit_(span, record)
            if split is not None and self.active[key] == 0:
                sub = "%s.%s" % (key, split(result))
                self.incl[sub] = self.incl.get(sub, 0.0) + dur
            return result

        return traced


def install(tracer: Tracer, package):
    """Wrap the layers of ``package`` (the imported mathieumat) in place."""
    # Not getattr(package, layer): the package rebinds "normalize" to the
    # function of that name.
    modules = {layer: importlib.import_module("%s.%s" % (package.__name__, layer))
               for layer in LAYERS}
    wrappers = {}           # id(original function) -> wrapper
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrappers[id(obj)] = tracer.wrap("%s.%s" % (layer, name), layer,
                                                obj, record=True)
        for cls_name, methods in HOT_METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                key = "%s.%s" % (layer, cls_name)
                if meth != "__init__":
                    key += "." + meth
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(tracer.wrap(key, layer, raw.__func__, False))
                else:
                    wrapped = tracer.wrap(key, layer, raw, False)
                setattr(cls, meth, wrapped)
    # Rebind every name and dict entry that refers to a wrapped function.
    for mod in [package, *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, name, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if inspect.isfunction(v) and id(v) in wrappers:
                        obj[k] = wrappers[id(v)]
