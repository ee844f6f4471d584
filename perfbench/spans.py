"""Spans around the public functions of each p1torsion layer.

The tracer wraps functions from outside the program: it replaces a function
in its defining module and in every p1torsion module that imported it by
name, so ``from .specfun import lerch_prime_neg`` call sites are traced too.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from time import perf_counter

# (module, attribute, span name).  An attribute "Class.method" wraps a
# method; several attributes may share one span name.
SPANS = [
    ("numerics", "ConstExpr.eval", "numerics.eval"),
    ("series", "LaurentSeries.__mul__", "series.mul"),
    ("series", "LaurentSeries.invert", "series.invert"),
    ("series", "LaurentSeries.evaluate", "series.evaluate"),
    ("series", "star", "series.star"),
    ("chowring", "BaseClass.__mul__", "chowring.base_mul"),
    ("chowring", "check_grr_cancellation", "chowring.check_grr_cancellation"),
    ("torsionform", "t_ell_series", "torsionform.t_ell_series"),
    ("torsionform", "torsion_form", "torsionform.torsion_form"),
    ("specfun", "hurwitz_zeta", "specfun.hurwitz_zeta"),
    ("specfun", "lerch_prime_neg", "specfun.lerch_prime_neg"),
    ("specfun", "lerch_neg", "specfun.lerch_neg"),
    ("specfun", "stieltjes_gamma1", "specfun.stieltjes_gamma1"),
    ("specfun", "r_rot_value", "specfun.r_rot_value"),
    ("specfun", "si", "specfun.sici"),
    ("specfun", "ci", "specfun.sici"),
    ("quadrature", "integrate", "quadrature.integrate"),
    ("quadrature", "bilateral_sum", "quadrature.bilateral_sum"),
    ("torsion", "torsion_infinitesimal", "torsion.torsion_infinitesimal"),
    ("torsion", "torsion_group", "torsion.torsion_group"),
    ("torsion", "tdchs_value", "torsion.tdchs_value"),
    ("torsion", "i_class_value", "torsion.i_class"),
    ("torsion", "i_class_direct", "torsion.i_class"),
    ("torsion", "r_tilde0", "torsion.r_tilde0"),
    ("torsion", "torsion_two_param", "torsion.torsion_two_param"),
    ("scurrent", "s_pairing_integral", "scurrent.s_pairing_integral"),
]

CLI_COMMANDS = ("torsion", "torsion-form", "grr-check", "height", "scurrent",
                "two-param")

ACCEPTANCE_CHECKS = (
    "height", "degree0-torsion", "t2-coefficient", "structural-cancellation",
    "scurrent-paths", "tdchs-displays", "asymptotics", "defining-property",
    "scaling", "grr-cancellation", "two-param", "fiber-integration")


class Tracer:
    """Records one span per wrapped call: name, start, end and parent."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {}
        self.root_s = 0.0  # time covered by spans that have no parent
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []
        self.enabled = True  # off while the worker checks an output

    def call(self, name, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            if parent is None:
                self.root_s += duration
                parent_id = None
            else:
                parent[1] += duration
                parent_id = parent[0]
            self.spans.append((frame[0], parent_id, name, start, end))

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every function in SPANS, the CLI entry point and the
        acceptance checks."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("p1torsion.")}
        for module_name, attr, span in SPANS:
            module = package["p1torsion." + module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapper = self.wrap(span, self._counting(span, original))
                for key, value in list(cls.__dict__.items()):
                    if value is original:  # e.g. __rmul__ = __mul__
                        self._replace(cls, key, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, self._counting(span, original))
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

        cli = package["p1torsion.cli"]
        main = cli.main

        def traced_main(argv=None):
            return self.call(f"cli.{argv[0]}", main, (argv,), {})

        self._replace(cli, "main", traced_main)

        acceptance = package.get("p1torsion.acceptance")
        if acceptance is not None:
            checks = acceptance.ALL_CHECKS
            original_checks = list(checks)
            checks[:] = [(name, self.wrap(f"acceptance.{name}", fn))
                         for name, fn in original_checks]
            self._undo.append((checks, None, original_checks))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if attr is None:
                owner[:] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def _counting(self, span, fn):
        """Count integrand and term evaluations of the numeric oracles."""
        if span == "quadrature.integrate":
            def integrate(spec, *args, **kwargs):
                f = spec.f

                def counted(r):
                    self.count("quadrature.integrate.integrand_evals")
                    return f(r)

                return fn(dataclasses.replace(spec, f=counted), *args, **kwargs)
            return integrate
        if span == "quadrature.bilateral_sum":
            def bilateral_sum(term, *args, **kwargs):
                def counted(k):
                    self.count("quadrature.bilateral_sum.term_evals")
                    return term(k)

                return fn(counted, *args, **kwargs)
            return bilateral_sum
        return fn

    def dump(self, path):
        """Write the spans as {"names": [...], "spans": [[id, parent,
        name index, start, end], ...]}."""
        names: dict[str, int] = {}
        rows = []
        for span_id, parent, name, start, end in self.spans:
            index = names.setdefault(name, len(names))
            rows.append([span_id, parent, index, round(start, 7), round(end, 7)])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows}, fh,
                      separators=(",", ":"))
