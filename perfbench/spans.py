"""Per-layer spans recorded from outside the library.

``install`` replaces each public function named in ``SPANS`` with a timing
wrapper in every module that binds it (``contact`` imports
``reparametrize`` by name, ``moduli`` imports ``act_on_curve`` and
``conormal_semigroup``, the package re-exports most of them), and methods
on their class.  Span names follow ``<module>.<function>`` so the
library's own spans can later take over without renaming a metric.

A span's self time is its duration minus the time covered by the spans
it directly caused; its inclusive time is counted only for the outermost
active span of that name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# span name -> (module, attribute path); a dotted path means a method
SPANS = {
    "series.series_compose": ("legcurve.series", "series_compose"),
    "series.series_reverse": ("legcurve.series", "series_reverse"),
    "series.series_nth_root": ("legcurve.series", "series_nth_root"),
    "curves.reparametrize": ("legcurve.curves", "reparametrize"),
    "germs.evaluate_on_series": ("legcurve.germs", "evaluate_on_series"),
    "germs.substitute": ("legcurve.germs", "substitute"),
    "germs.invert_unit": ("legcurve.germs", "invert_unit"),
    "contact.compose": ("legcurve.contact", "compose"),
    "contact.require_contact": ("legcurve.contact", "require_contact"),
    "contact.solve_contact": ("legcurve.contact", "solve_contact"),
    "contact.act_on_curve": ("legcurve.contact", "act_on_curve"),
    "contact.forget_transform": ("legcurve.contact", "forget_transform"),
    "oracle.conormal_semigroup": ("legcurve.oracle", "conormal_semigroup"),
    "oracle.restriction": ("legcurve.oracle", "ConormalOracle.restriction"),
    "oracle.realize_order": ("legcurve.oracle", "realize_order"),
    "moduli.normal_form": ("legcurve.moduli", "normal_form"),
    "moduli.canonical_point": ("legcurve.moduli", "canonical_point"),
    "expansion.monomial_series": ("legcurve.expansion", "ExpansionContext.monomial_series"),
    "expansion.entry_closed_form": ("legcurve.expansion", "ExpansionContext.entry_closed_form"),
    "expansion.determinant": ("legcurve.expansion", "determinant"),
}

# counters and gauges filled by the observers below
PIVOTS = "oracle.pivots"
INSERTED = "oracle.inserted"
FULL_FALLBACKS = "oracle.full_fallbacks"
STEPS = "moduli.steps"
MAX_COEFF_BITS = "series.max_coeff_bits"
MAX_TERMS = "sympoly.max_terms"


def _bits(value) -> int:
    value = Fraction(value)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Span totals for the current pass; ``snapshot`` and ``reset`` per pass."""

    def __init__(self):
        # the wrappers hold these two; no span is open between passes
        self._depth: Counter = Counter()
        self._children: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.gauges: dict[str, int] = {}

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "gauges": dict(self.gauges),
        }

    def gauge(self, name: str, value: int) -> None:
        if value > self.gauges.get(name, 0):
            self.gauges[name] = value

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def wrap(self, name: str, fn, observe=None):
        children = self._children
        depth = self._depth
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            children.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                if outer:
                    self.incl_s[name] += elapsed
                if children:
                    children[-1][0] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return functools.update_wrapper(span, fn)


# -- observers: counts at the same boundaries as the spans ----------------------


def _observe_reparametrize(tracer, args, kwargs, curve):
    tracer.gauge(MAX_COEFF_BITS, max(_bits(c) for c in curve.coefficients.values()))


def _observe_normal_form(tracer, args, kwargs, form):
    tracer.counts[STEPS] += len(form.steps)


def _observe_determinant(tracer, args, kwargs, poly):
    tracer.gauge(MAX_TERMS, len(poly.terms))


OBSERVERS = {
    "curves.reparametrize": _observe_reparametrize,
    "moduli.normal_form": _observe_normal_form,
    "expansion.determinant": _observe_determinant,
}


def _oracle_init(tracer, original):
    """Count monomials inserted, pivots kept and full-oracle fallbacks of
    ``realize_order`` (a ``ConormalOracle`` built there without a monomial
    list)."""

    def __init__(self, curve, bound=None, monomials=None):
        if monomials is None and tracer.active("oracle.realize_order"):
            tracer.counts[FULL_FALLBACKS] += 1
        before = tracer.calls["oracle.restriction"]
        original(self, curve, bound, monomials)
        tracer.counts[INSERTED] += tracer.calls["oracle.restriction"] - before
        tracer.counts[PIVOTS] += len(self.rows)

    return functools.update_wrapper(__init__, original)


# -- installation and the binding-site audit ---------------------------------------


class AuditError(RuntimeError):
    pass


def _library_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "legcurve" or key.startswith("legcurve."))]


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, attribute) of the library that holds ``original``."""
    return [(mod, key) for mod in _library_modules()
            for key, value in list(vars(mod).items()) if value is original]


def _stale_bindings(originals) -> list[str]:
    """Attributes of any loaded module still holding an unwrapped original."""
    ids = {id(fn) for fn in originals}
    stale = []
    for key, mod in list(sys.modules.items()):
        if mod is None:
            continue
        try:
            items = list(vars(mod).items())
        except TypeError:
            continue
        stale.extend(f"{key}.{attr}" for attr, value in items if id(value) in ids)
    return stale


class Installation:
    """The wrappers in place, with what they replaced, until ``uninstall``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patches: list[tuple[object, str, object]] = []
        self.sites: dict[str, list[str]] = {}

    def _patch(self, owner, attr, replacement, label):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)
        self.sites.setdefault(label, []).append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def install(self) -> "Installation":
        originals = []
        for name, (module_name, path) in SPANS.items():
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[attr]
                originals.append(original)
                self._patch(cls, attr, self.tracer.wrap(name, original), name)
                continue
            original = getattr(module, path)
            originals.append(original)
            wrapper = self.tracer.wrap(name, original, OBSERVERS.get(name))
            for owner, attr in _bindings(original):
                self._patch(owner, attr, wrapper, name)
        oracle_cls = sys.modules["legcurve.oracle"].ConormalOracle
        init = vars(oracle_cls)["__init__"]
        self._patch(oracle_cls, "__init__", _oracle_init(self.tracer, init), "oracle.ConormalOracle")
        originals.append(init)
        stale = _stale_bindings(originals)
        if stale:
            self.uninstall()
            raise AuditError(f"unwrapped bindings remain: {stale}")
        return self

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, previous = self.patches.pop()
            setattr(owner, attr, previous)
