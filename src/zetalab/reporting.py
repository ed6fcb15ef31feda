"""Machine-readable check reports and run manifests.

Every verification emits one JSON object per line with a fixed field
order and fixed float formatting (17 significant digits), so identical
command lines produce byte-identical report streams.  The final
manifest line carries wall-clock timings and is therefore the one line
excluded from byte-for-byte comparisons.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# Checks with tol >= INFORMATIONAL never gate the exit code; they exist
# to put a measured number on the record.
INFORMATIONAL = 1e300


def fmt_float(x) -> str:
    return "%.17g" % float(x)


def fmt_complex(z) -> str:
    z = complex(z)
    return '{"re":%s,"im":%s}' % (fmt_float(z.real), fmt_float(z.imag))


@dataclass(frozen=True)
class CheckReport:
    name: str
    inputs: dict
    computed: complex
    reference: complex
    abs_err: float
    rel_err: float | None
    tol: float
    ok: bool
    provenance: str

    def __post_init__(self):
        if self.provenance not in ("paper", "derived-oracle", "trivial"):
            raise ValueError(f"bad provenance {self.provenance!r}")

    def to_line(self) -> str:
        items = ",".join(
            "%s:%s" % (json.dumps(str(k)), json.dumps(str(v)))
            for k, v in sorted(self.inputs.items())
        )
        return (
            '{"name":%s,"inputs":{%s},"computed":%s,"reference":%s,'
            '"abs_err":%s,"rel_err":%s,"tol":%s,"pass":%s,"provenance":%s}'
            % (
                json.dumps(self.name),
                items,
                fmt_complex(self.computed),
                fmt_complex(self.reference),
                fmt_float(self.abs_err),
                "null" if self.rel_err is None else fmt_float(self.rel_err),
                fmt_float(self.tol),
                "true" if self.ok else "false",
                json.dumps(self.provenance),
            )
        )

    def scaled(self, factor) -> CheckReport:
        """This check re-gated at tol * factor by check's own pass rule;
        an exact (tol 0) or INFORMATIONAL check keeps its tol."""
        if not 0 < self.tol < INFORMATIONAL:
            return self
        inputs = dict(self.inputs)
        mode = inputs.pop("mode")
        return check(self.name, self.computed, self.reference,
                     self.tol * factor, self.provenance, mode, inputs)


def check(name, computed, reference, tol, provenance, mode="abs",
          inputs=None) -> CheckReport:
    """Build a report from a computed/reference pair.

    mode declares which error gates the check: "abs" or "rel".  The
    mode is recorded in the inputs map so the emitted line is
    self-describing.  Against a zero reference rel_err is None (printed
    null), and a rel-mode check fails.
    """
    computed = complex(computed)
    reference = complex(reference)
    abs_err = abs(computed - reference)
    rel_err = abs_err / abs(reference) if reference else None
    if mode not in ("abs", "rel"):
        raise ValueError(f"bad mode {mode!r}")
    gate = abs_err if mode == "abs" else rel_err
    finite = math.isfinite(abs_err) and (rel_err is None
                                         or math.isfinite(rel_err))
    ok = finite and gate is not None and gate <= tol
    inp = {str(k): str(v) for k, v in (inputs or {}).items()}
    inp["mode"] = mode
    return CheckReport(name, inp, computed, reference, abs_err, rel_err,
                       float(tol), bool(ok), provenance)


def flag(name, ok, provenance, inputs=None) -> CheckReport:
    """Boolean check (property held / expected error raised)."""
    return check(name, 1.0 if ok else 0.0, 1.0, 0.0, provenance,
                 mode="abs", inputs=inputs)


@dataclass
class RunManifest:
    version: str
    command: str
    tol_scale: float
    suites: list = field(default_factory=list)  # (name, wall_s, npass, nfail)

    def add(self, name, wall_s, npass, nfail):
        self.suites.append((name, wall_s, npass, nfail))

    @property
    def passed(self) -> int:
        return sum(s[2] for s in self.suites)

    @property
    def failed(self) -> int:
        return sum(s[3] for s in self.suites)

    def to_line(self) -> str:
        per = ",".join(
            '{"suite":%s,"wall_s":%s,"passed":%d,"failed":%d}'
            % (json.dumps(n), fmt_float(w), p, f)
            for n, w, p, f in self.suites
        )
        return (
            '{"manifest":{"version":%s,"command":%s,"tol_scale":%s,'
            '"suites":[%s],"passed":%d,"failed":%d,"total":%d}}'
            % (
                json.dumps(self.version),
                json.dumps(self.command),
                fmt_float(self.tol_scale),
                per,
                self.passed,
                self.failed,
                self.passed + self.failed,
            )
        )
