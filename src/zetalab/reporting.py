"""The one encoder of printed lines, and the check reports it writes.

Every line zetalab prints is a JSON value written by dumps, or a csv
row of the values dumps writes: one rule for an int, a float (17
significant digits), a complex number, a null and a list, so identical
command lines produce byte-identical output.  The manifest line that
the CLI's check runner writes last carries wall-clock timings and is
therefore the one line excluded from byte-for-byte comparisons.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

# Checks with tol >= INFORMATIONAL never gate the exit code; they exist
# to put a measured number on the record.
INFORMATIONAL = 1e300


def fmt_float(x) -> str:
    return "%.17g" % float(x)


def dumps(value) -> str:
    """value as JSON: None, bools and strings as json writes them, an
    integer with %d, any other real number by fmt_float, a complex number
    as {"re":...,"im":...}, a dict in insertion order, and any other
    iterable as a list."""
    if value is None or isinstance(value, (bool, str)):
        return json.dumps(value)
    if isinstance(value, numbers.Integral):
        return "%d" % value
    if isinstance(value, numbers.Real):
        return fmt_float(value)
    if isinstance(value, numbers.Complex):
        return dumps({"re": value.real, "im": value.imag})
    if isinstance(value, dict):
        return "{%s}" % ",".join("%s:%s" % (json.dumps(k), dumps(v))
                                 for k, v in value.items())
    return "[%s]" % ",".join(dumps(v) for v in value)


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
        return dumps({
            "name": self.name,
            "inputs": {str(k): str(v) for k, v in sorted(self.inputs.items())},
            "computed": complex(self.computed),
            "reference": complex(self.reference),
            "abs_err": self.abs_err, "rel_err": self.rel_err,
            "tol": self.tol, "pass": self.ok, "provenance": self.provenance})

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
