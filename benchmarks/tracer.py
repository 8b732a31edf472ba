"""Spans around the public functions of each convendo layer.

Installing the tracer wraps every function listed in ``targets`` and puts
the wrapper in place of the original under every name any convendo module
bound it to, so calls from one module into another are seen too. Spans
(name, start, end, parent) are kept in flat arrays in memory; self time is
a span's duration minus the durations of its children. Uninstalling puts
the originals back.
"""

import json
import time
from array import array

import numpy as np

SUITE_FUNCS = {"core": "run_core_suite", "gl": "run_gl_suite",
               "radial": "run_radial_suite", "kernel": "run_kernel_suite"}


def _size1(args):
    return len(args[0].breakpoints)


def _size2(args):
    return len(args[0].breakpoints) + len(args[1].breakpoints)


def targets(C):
    """(owner, attribute, span name, size function) for every traced call.

    Breakpoint counts are recorded for the two transforms whose scaling
    exponent is reported.
    """
    funcs = [(C.cli, "cmd_eval"), (C.serialize, "fn_from_json"),
             (C.serialize, "endo_from_json"), (C.serialize, "write_eval_csv"),
             (C.expr, "expr_eval"), (C.expr, "ray_domain"),
             (C.measures, "orbit_quadrature"),
             (C.radial, "radial_eval"), (C.radial, "canonical_rotation"),
             (C.gl, "gl_eval"), (C.gl, "scale_compose_eval"),
             (C.pwl, "legendre"), (C.pwl, "inf_convolve"), (C.pwl, "pwl_add"),
             (C.pwl, "pwl_max"),
             (C.kernel1d, "kernel_endo_eval"), (C.kernel1d, "kernel_decompose"),
             (C.kernel1d, "kernel_extract"),
             (C.probes, "is_convex_sampled"), (C.probes, "gw_probe")]
    funcs += [(C.suites, f) for f in SUITE_FUNCS.values()]
    funcs += [(C.rand, n) for n, v in sorted(vars(C.rand).items())
              if callable(v) and not n.startswith("_")
              and getattr(v, "__module__", None) == C.rand.__name__]
    sizes = {"legendre": _size1, "inf_convolve": _size2}
    out = [(mod, name, f"{mod.__name__.split('.')[-1]}.{name}", sizes.get(name))
           for mod, name in funcs]
    out += [(C.pwl.PwlFunction, "__init__", "pwl.PwlFunction", None),
            (C.kernel1d.Kernel1D, "__call__", "kernel1d.Kernel1D.__call__", None)]
    return out


class Tracer:
    def __init__(self, C):
        self.C = C
        self.names = []                      # span name by id
        self.ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.sizes = {}                      # span index -> breakpoint count
        self.kee_depth = [0]                 # open kernel_endo_eval spans
        self.psi_in_kee = [0]                # kernel calls made inside them
        self._undo = []

    # -- install / uninstall ---------------------------------------------------

    def __enter__(self):
        modules = [getattr(self.C, m) for m in vars(self.C)]
        modules.append(__import__("convendo"))
        for owner, attr, span, size_of in targets(self.C):
            orig = getattr(owner, attr)
            wrapper = self._wrap(span, orig, size_of)
            if isinstance(owner, type):
                self._set(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, orig, wrapper)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                val[k] = wrapper
                                self._undo.append((val.__setitem__, k, orig))
        return self

    def _set(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), key, orig))

    def __exit__(self, *exc):
        for setter, key, orig in reversed(self._undo):
            setter(key, orig)
        self._undo.clear()
        return False

    def _wrap(self, span, fn, size_of):
        sid = self.ids.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        name_a, start_a, end_a, parent_a = self.name, self.start, self.end, self.parent
        stack, sizes, clock = self.stack, self.sizes, time.perf_counter
        depth = self.kee_depth if span == "kernel1d.kernel_endo_eval" else None
        counter = self.psi_in_kee if span == "kernel1d.Kernel1D.__call__" else None
        kee_depth = self.kee_depth

        def traced(*args, **kwargs):
            i = len(end_a)
            name_a.append(sid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            if size_of is not None:
                sizes[i] = size_of(args)
            if depth is not None:
                depth[0] += 1
            if counter is not None and kee_depth[0]:
                counter[0] += 1
            stack.append(i)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()
                if depth is not None:
                    depth[0] -= 1

        return traced

    # -- metrics -----------------------------------------------------------------

    def _arrays(self):
        return tuple(np.asarray(a) for a in (self.name, self.start, self.end, self.parent))

    def metrics(self, traced_s, untraced_s):
        name, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def mask(*spans):
            ids = [self.ids[s] for s in spans if s in self.ids]
            return np.isin(name, ids)

        def calls(span):
            return int(mask(span).sum())

        def self_s(*spans):
            return float(self_t[mask(*spans)].sum())

        def incl_s(span):
            return float(dur[mask(span)].sum())

        def us_per_call(span):
            n = calls(span)
            return incl_s(span) / n * 1e6 if n else 0.0

        def k_exponent(span):
            """Slope of log(median time) against log(breakpoint count)."""
            idx = np.nonzero(mask(span))[0]
            by_k = {}
            for i in idx:
                by_k.setdefault(self.sizes[int(i)], []).append(dur[i])
            if len(by_k) < 2:
                return 0.0
            ks = np.array(sorted(by_k), dtype=float)
            ts = np.array([np.median(by_k[k]) for k in sorted(by_k)])
            return float(np.polyfit(np.log(ks), np.log(ts), 1)[0])

        json_ids = [self.ids[s] for s in ("serialize.fn_from_json", "serialize.endo_from_json")
                    if s in self.ids]
        outer_json = np.isin(name, json_ids) & ~np.isin(parent_name, json_ids)
        kee = calls("kernel1d.kernel_endo_eval")
        rand_spans = [s for s in self.names if s.startswith("rand.")]

        values = {
            "cli.cmd_eval.self_s": (self_s("cli.cmd_eval"), "s"),
            "serialize.from_json.s": (float(dur[outer_json].sum()), "s"),
            "serialize.write_eval_csv.s": (incl_s("serialize.write_eval_csv"), "s"),
            "expr.expr_eval.calls": (calls("expr.expr_eval"), "count"),
            "expr.expr_eval.self_s": (self_s("expr.expr_eval"), "s"),
            "expr.ray_domain.calls": (calls("expr.ray_domain"), "count"),
            "measures.orbit_quadrature.calls": (calls("measures.orbit_quadrature"), "count"),
            "measures.orbit_quadrature.self_s": (self_s("measures.orbit_quadrature"), "s"),
            "radial.radial_eval.calls": (calls("radial.radial_eval"), "count"),
            "radial.radial_eval.us_per_call": (us_per_call("radial.radial_eval"), "us"),
            "radial.canonical_rotation.self_s": (self_s("radial.canonical_rotation"), "s"),
            "gl.gl_eval.calls": (calls("gl.gl_eval"), "count"),
            "gl.gl_eval.us_per_call": (us_per_call("gl.gl_eval"), "us"),
            "gl.scale_compose_eval.us_per_call": (us_per_call("gl.scale_compose_eval"), "us"),
            "pwl.legendre.us_per_call": (us_per_call("pwl.legendre"), "us"),
            "pwl.legendre.k_exponent": (k_exponent("pwl.legendre"), "exponent"),
            "pwl.inf_convolve.k_exponent": (k_exponent("pwl.inf_convolve"), "exponent"),
            "pwl.pwl_add.us_per_call": (us_per_call("pwl.pwl_add"), "us"),
            "pwl.pwl_max.us_per_call": (us_per_call("pwl.pwl_max"), "us"),
            "pwl.PwlFunction.constructs": (calls("pwl.PwlFunction"), "count"),
            "pwl.PwlFunction.self_s": (self_s("pwl.PwlFunction"), "s"),
            "kernel1d.kernel_endo_eval.us_per_call":
                (us_per_call("kernel1d.kernel_endo_eval"), "us"),
            "kernel1d.psi_per_eval": (self.psi_in_kee[0] / kee if kee else 0.0, "calls/eval"),
            "kernel1d.kernel_decompose.s": (incl_s("kernel1d.kernel_decompose"), "s"),
            "kernel1d.kernel_extract.s": (incl_s("kernel1d.kernel_extract"), "s"),
            "probes.is_convex_sampled.calls": (calls("probes.is_convex_sampled"), "count"),
            "probes.is_convex_sampled.self_s": (self_s("probes.is_convex_sampled"), "s"),
            "probes.gw_probe.self_s": (self_s("probes.gw_probe"), "s"),
        }
        for suite, func in SUITE_FUNCS.items():
            values[f"suites.{suite}.s"] = (incl_s(f"suites.{func}"), "s")
        values["rand.self_s"] = (self_s(*rand_spans), "s")
        values["trace.overhead_s"] = (traced_s - untraced_s, "s")
        values["trace.untraced_s"] = (untraced_s, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def write(self, stem, metrics):
        """Spans as ``<stem>.npz`` and the per-layer metrics as ``<stem>.json``."""
        name, start, end, parent = self._arrays()
        sized = np.array(sorted(self.sizes.items()), dtype=np.int64).reshape(-1, 2)
        np.savez_compressed(f"{stem}.npz", names=np.array(self.names), name=name,
                            start=start, end=end, parent=parent, sized=sized)
        with open(f"{stem}.json", "w") as fh:
            json.dump(metrics, fh, indent=1, sort_keys=True)
