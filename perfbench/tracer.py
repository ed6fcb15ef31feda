"""Outside-in tracing of zetalab's layers.

The tracer replaces each public function of special, quad, spectrum,
states and operators with a wrapper that records a span (name, start,
end, parent, one size count, exception name) in memory.  It patches
every zetalab.* namespace that binds the function, so copies made by
``from .special import zeta`` are caught as well.  CumulativeIntegral's
constructor and its query_*_many methods are wrapped on the class, and
the integrand handed to a top-level integrate_* call is wrapped so its
calls, points and time are counted.  Nothing inside zetalab changes:
calls pass their arguments and results through untouched.

What the outside view cannot see is anything private: gram's outer
driver calls quad._adaptive_panels directly and count_zeros calls
special._zeta_pair, so that time lands in states.gram and spectrum
self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

import numpy as np

LAYERS = ("special", "quad", "spectrum", "states", "operators")
_QUAD_ENTRIES = ("integrate_finite", "integrate_semi_infinite",
                 "integrate_nested", "truncation_point")


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.size = array("q")
        self.errors: dict[int, str] = {}
        self._stack = [-1]
        self._quad_depth = 0

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, size_of=None, quad_entry=False):
        """A wrapper that records one span per call of fn.  size_of maps
        (args, kwargs, result) to the span's size count."""
        nid = self._intern(name)
        is_quad = name.startswith("quad.")
        perf = time.perf_counter
        names = self.names
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.size.append(0)
            self.end.append(0.0)
            if quad_entry and self._quad_depth == 0 and args:
                owner = names[self.name_id[stack[-1]]] if stack[-1] >= 0 else "op"
                args = (self._integrand(owner, args[0]),) + args[1:]
            stack.append(idx)
            if is_quad:
                self._quad_depth += 1
            self.start.append(perf())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self.end[idx] = perf()
                stack.pop()
                if is_quad:
                    self._quad_depth -= 1
            if size_of is not None:
                self.size[idx] = int(size_of(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _integrand(self, owner: str, f):
        return self.wrap(f"{owner}.integrand", f,
                         lambda a, k, out: np.size(a[0]) if a else 1)

    # -- installation ---------------------------------------------------

    def install(self):
        """Patch every zetalab namespace; returns an undo callable."""
        import zetalab.quad as quad

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "zetalab" or name.startswith("zetalab.")]
        sizes = {
            "special.bessel_j0": lambda a, k, out: np.size(a[0]),
            "spectrum.find_zeros": lambda a, k, out: len(out),
            "states.psi": lambda a, k, out: out.evals,
            "operators.tridiag_eigh": lambda a, k, out: a[0].dim,
            "operators.laguerre_coefficients":
                lambda a, k, out: a[1] if len(a) > 1 else k["K"],
        }
        for q in _QUAD_ENTRIES:
            sizes["quad." + q] = (
                (lambda a, k, out: out.evals) if q != "truncation_point"
                else (lambda a, k, out: out[2]))
        undo = []
        for layer in LAYERS:
            mod = sys.modules[f"zetalab.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, obj, sizes.get(name),
                                    quad_entry=layer == "quad" and attr in _QUAD_ENTRIES)
                undo += _rebind(modules, obj, wrapped)
        # scipy's root finder is reached only through spectrum's binding.
        spectrum = sys.modules["zetalab.spectrum"]
        undo += _rebind([spectrum], spectrum.brentq,
                        self.wrap("spectrum.brentq", spectrum.brentq))

        cls = quad.CumulativeIntegral
        for attr, name, size_of in (
            ("__init__", "quad.cumulative.build",
             lambda a, k, out: a[0].evals),
            ("query_lo_many", "quad.cumulative.query",
             lambda a, k, out: len(a[1])),
            ("query_hi_many", "quad.cumulative.query",
             lambda a, k, out: len(a[1])),
        ):
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, orig, size_of))
            undo.append((cls, attr, orig))

        def uninstall():
            for holder, attr, orig in reversed(undo):
                setattr(holder, attr, orig)

        return uninstall

    # -- output ---------------------------------------------------------

    def write(self, path: str):
        """Dump the spans as gzip CSV: id, name, start, end, parent, size,
        error."""
        names, errors = self.names, self.errors
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,size,error\n")
            fh.writelines(
                f"{i},{names[n]},{a!r},{b!r},{p},{k},{errors.get(i, '')}\n"
                for i, (n, a, b, p, k) in enumerate(zip(
                    self.name_id, self.start, self.end, self.parent,
                    self.size)))

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer counts and times, per pass, derived from the spans."""
        n = len(self.start)
        names = [self.names[i] for i in self.name_id]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_t = [dur[i] - child[i] for i in range(n)]
        parent_name = [names[self.parent[i]] if self.parent[i] >= 0 else ""
                       for i in range(n)]

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        size: dict[str, int] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            nm = names[i]
            calls[nm] = calls.get(nm, 0) + 1
            self_s[nm] = self_s.get(nm, 0.0) + self_t[i]
            size[nm] = size.get(nm, 0) + self.size[i]
            layer = nm.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += self_t[i]

        def c(nm):
            return calls.get(nm, 0)

        def st(*nms):
            return sum(self_s.get(nm, 0.0) for nm in nms)

        integrand = [i for i in range(n) if names[i].endswith(".integrand")]
        top_quad = [i for i in range(n)
                    if names[i][5:] in _QUAD_ENTRIES
                    and names[i].startswith("quad.")
                    and not parent_name[i].startswith("quad.")]
        integrand_calls = len(integrand)
        integrand_points = sum(self.size[i] for i in integrand)
        integrand_s = sum(dur[i] for i in integrand)
        quad_conv = sum(
            1 for i, e in self.errors.items()
            if e == "ConvergenceError" and names[i].startswith("quad.")
            and not parent_name[i].startswith("quad."))
        line = "spectrum.critical_line_real_form"
        scan_points = sum(1 for i in range(n) if names[i] == line
                          and parent_name[i] == "spectrum.find_zeros")
        refine = sum(1 for i in range(n) if names[i] == line
                     and parent_name[i] == "spectrum.brentq")
        zeros_found = size.get("spectrum.find_zeros", 0)
        builds = [nm for nm in calls if nm.startswith("operators.build_")]
        top_builds = sum(1 for i in range(n)
                         if names[i].startswith("operators.build_")
                         and not parent_name[i].startswith("operators.build_"))
        psi_calls = c("states.psi")

        m = {
            "special.zeta.calls": c("special.zeta"),
            "special.zeta.self_s": st("special.zeta"),
            "special.eta.calls": c("special.eta"),
            "special.gamma.calls": c("special.gamma"),
            "special.bessel_j0.calls": c("special.bessel_j0"),
            "special.bessel_j0.points": size.get("special.bessel_j0", 0),
            "special.bessel_j0.self_s": st("special.bessel_j0"),
            "special.laguerre.calls": c("special.laguerre"),
            "special.laguerre.self_s": st("special.laguerre"),
            "special.self_s": layer_self["special"],
            "quad.calls": len(top_quad),
            "quad.evals": sum(self.size[i] for i in top_quad),
            "quad.integrand_calls": integrand_calls,
            "quad.integrand_points": integrand_points,
            "quad.integrand_s": integrand_s,
            "quad.driver_s": sum(dur[i] for i in top_quad) - integrand_s,
            "quad.cumulative.builds": c("quad.cumulative.build"),
            "quad.cumulative.query_calls": c("quad.cumulative.query"),
            "quad.cumulative.query_points": size.get("quad.cumulative.query", 0),
            "quad.cumulative.query_s": st("quad.cumulative.query"),
            "quad.convergence_errors": quad_conv,
            "spectrum.scan_points": scan_points,
            "spectrum.line_evals": c(line),
            "spectrum.zeros_found": zeros_found,
            "spectrum.count_zeros.calls": c("spectrum.count_zeros"),
            "spectrum.self_s": layer_self["spectrum"],
            "states.psi.calls": psi_calls,
            "states.psi.self_s": st("states.psi", "states.psi_tilde",
                                    "states.psi.integrand"),
            "states.gram.calls": c("states.gram"),
            "states.gram.self_s": st("states.gram"),
            "states.self_s": layer_self["states"],
            "operators.coefficients.calls": c("operators.laguerre_coefficients"),
            "operators.coefficients.count": size.get(
                "operators.laguerre_coefficients", 0),
            "operators.coefficients.self_s": st(
                "operators.laguerre_coefficients",
                "operators.laguerre_coefficients.integrand"),
            "operators.build.calls": top_builds,
            "operators.build.self_s": st(*builds, "operators.fermi_of_T"),
            "operators.tridiag_eigh.calls": c("operators.tridiag_eigh"),
            "operators.tridiag_eigh.dim_sum": size.get("operators.tridiag_eigh", 0),
            "operators.tridiag_eigh.self_s": st("operators.tridiag_eigh"),
            "operators.self_s": layer_self["operators"],
        }
        m = {k: v / passes for k, v in m.items()}
        # Ratios are per call or per zero, not per pass.
        m["quad.points_per_call"] = _ratio(integrand_points, integrand_calls)
        m["spectrum.refine_evals_per_zero"] = _ratio(refine, zeros_found)
        m["states.psi.evals_per_call"] = _ratio(size.get("states.psi", 0),
                                                psi_calls)
        return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _rebind(modules, orig, wrapped):
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, orig))
    return undo
