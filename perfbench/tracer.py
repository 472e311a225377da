"""Layer-boundary tracer for ``heegaard``, kept outside the program.

``Tracer.install()`` wraps the public entry points of each module.  Class
methods are patched on the class.  A module-level function is rebound in
every ``heegaard`` module that holds it, because ``from .x import f`` copies
the function into the importing module and a call through that copy would
otherwise be missed silently (``heegaard.quotients.solve_exact``,
``heegaard.cli.strong_connection`` and the like).

Two kinds of wrapper:

* a *span* records name, start, end and parent in flat arrays, and adds its
  duration to the parent's covered time, so self time = duration - covered.
  A call made inside a span of the same name belongs to that span.
* a *leaf* (``Coeff`` arithmetic, ``ThetaMatrix.entry``: tens of thousands
  of calls per job) only adds to a call count and a time sum, and to the
  covered time of the enclosing span.  Leaves must not call each other.

The tracer is installed in a forked job child, which exits after one job,
so nothing is ever unpatched.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []   # [name, covered seconds, span index]

    # -- wrappers ------------------------------------------------------------

    def span(self, fn, name, extra=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        arguments; ``extra(stats, args, result)`` adds layer counters."""
        stack, stats = self._stack, self.stats

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if stack and stack[-1][0] == label:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(self._name_id(label))
            self.span_parent.append(stack[-1][2] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [label, 0.0, idx]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                stats[label + ".calls"] += 1
                stats[label + ".self_s"] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if extra is not None:
                extra(stats, args, result)
            return result

        return wrapper

    def leaf(self, fn, name, extra=None):
        stack, stats = self._stack, self.stats
        calls, self_s = name + ".calls", name + ".self_s"

        def wrapper(*args):
            t0 = _clock()
            result = fn(*args)
            dt = _clock() - t0
            stats[calls] += 1
            stats[self_s] += dt
            if stack:
                stack[-1][1] += dt
            if extra is not None:
                extra(stats, args, result)
            return result

        return wrapper

    def _name_id(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from heegaard import (algebra, bundles, cli, coeff, exactla, fock,
                              phases, quotients, serialize)

        self._method(phases.ThetaMatrix, "entry", "phases.entry", leaf=True)
        self._method(coeff.Coeff, "__mul__", "coeff.mul", _coeff_parts, leaf=True)
        self._method(coeff.Coeff, "__add__", "coeff.add", leaf=True)

        self._method(algebra.AlgebraElement, "__mul__", _mul_name, _term_pairs)
        self._method(algebra.AlgebraElement, "with_context", "algebra.with_context")
        self._method(algebra.AlgebraElement, "__eq__", "algebra.eq")

        self._function(bundles, "strong_connection", "bundles.strong_connection")
        self._method(bundles.TensorElement, "simplify", "bundles.simplify",
                     _summands)
        self._method(bundles.TensorElement, "contract", "bundles.contract")
        self._function(bundles, "chern_galois_projector", "bundles.projector",
                       _projector_entries)

        self._function(quotients, "cocycle_check", "quotients.cocycle_check")
        self._function(quotients, "glue", "quotients.glue")
        self._function(quotients, "is_compatible", "quotients.is_compatible")

        self._function(exactla, "solve_exact", "exactla.solve", _solve_counts)

        self._function(fock, "fock_generator", "fock.generator")
        self._method(fock.SparseOperator, "norm", "fock.norm", _norm_dim)
        self._function(fock, "relation_residual", "fock.residual")
        self._function(fock, "class_invariant", "fock.invariant")

        for fname in ("to_json", "element_to_obj", "tensor_to_obj",
                      "projector_to_obj"):
            self._function(serialize, fname, "serialize.emit",
                           _emit_bytes if fname == "to_json" else None)
        for fname in ("from_json", "theta_from_obj", "element_from_obj"):
            self._function(serialize, fname, "serialize.parse")

        self._function(cli, "main", "cli.main")

    def _method(self, cls, attr, name, extra=None, leaf=False):
        fn = cls.__dict__[attr]
        wrap = self.leaf if leaf else self.span
        setattr(cls, attr, wrap(fn, name, extra))

    def _function(self, module, attr, name, extra=None):
        fn = getattr(module, attr)
        wrapper = self.span(fn, name, extra)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "heegaard" or mod_name.startswith("heegaard."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)


# -- layer counters ------------------------------------------------------------

def _coeff_parts(stats, args, result):
    a, b = args
    stats["coeff.mul.operand_parts"] += (
        2 if a.parts is None else len(a.parts) + len(b.parts))


def _mul_name(args):
    return "algebra.mul_sphere" if args[0].ctx.kind == "sphere" else "algebra.mul_plain"


def _term_pairs(stats, args, result):
    stats["algebra.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _summands(stats, args, result):
    stats["bundles.simplify.summands_in"] += len(args[0].summands)
    stats["bundles.simplify.summands_out"] += len(result.summands)


def _projector_entries(stats, args, result):
    stats["bundles.projector.entries"] += result.size ** 2


def _solve_counts(stats, args, result):
    columns, target = args[0], args[1]
    keys = set(target)
    for col in columns:
        keys.update(col)
    stats["exactla.solve.columns"] += len(columns)
    stats["exactla.solve.keys"] += len(keys)
    stats["exactla.solve.inconsistent"] += result is None


def _norm_dim(stats, args, result):
    stats["fock.norm.dim_max"] = max(stats["fock.norm.dim_max"], args[0].dim)


def _emit_bytes(stats, args, result):
    stats["serialize.emit.bytes"] += len(result.encode())
