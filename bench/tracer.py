"""Span tracing of ratgen's public functions, from outside the package.

:class:`Tracer` replaces each traced function with a wrapper in every
loaded ``ratgen`` module that holds a reference to it (``from .parser
import format_poly`` makes a second reference in ``cli``), so calls made
inside the package are seen too.  A wrapper records a span (name, start,
end, parent span, job id), the call count and the self time: the span's
duration minus the time its child spans cover.  Counting work sizes (terms,
coefficient bits) happens after the span ends and is charged to nobody.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator


def _terms(polys) -> int:
    return sum(len(p) for p in polys)


def _max_bits(polys) -> int:
    return max((abs(c).bit_length() for p in polys for _, c in p.items()), default=0)


def _count_format(tracer: Tracer, args, result) -> None:
    tracer.counts["parser.format_poly.terms"] += len(args[0])


def _count_expansion(tracer: Tracer, args, result) -> None:
    tracer.counts["recurrence.expand_family.out_terms"] += _terms(result)
    key = "recurrence.expand_family.max_coeff_bits"
    tracer.counts[key] = max(tracer.counts[key], _max_bits(result))


def _count_power(tracer: Tracer, args, result) -> None:
    tracer.counts["recurrence.raise_denominator.out_terms"] += _terms(result)


# (module, attribute, counter); "Class.method" patches a method.
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("ratgen.parser", "parse_poly", None),
    ("ratgen.parser", "split_in_t", None),
    ("ratgen.parser", "format_poly", _count_format),
    ("ratgen.recurrence", "raise_denominator", _count_power),
    ("ratgen.recurrence", "expand_family", _count_expansion),
    ("ratgen.recurrence", "expand_inverse", None),
    ("ratgen.recurrence", "convolve_numerator", None),
    ("ratgen.recurrence", "identity_residual", None),
    ("ratgen.series", "cauchy_mul", None),
    ("ratgen.series", "geometric_inverse", None),
    ("ratgen.series", "multinomial_inverse", None),
    ("ratgen.poly", "Polynomial.evaluate", None),
    ("ratgen.families", "build_parts", None),
)


class Tracer:
    """Spans and per-name call counts and self times, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.keep_spans = True
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[list] = []  # [span id, seconds covered by children]

    def reset(self) -> None:
        """Zero the counters; spans are kept until written."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(self.spans) if self.keep_spans else -1, 0.0]
            if self.keep_spans:
                self.spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            self.calls[name] += 1
            self.self_s[name] += end - start - frame[1]
            if self.keep_spans:
                self.spans[frame[0]] = (name, start, end,
                                        parent[0] if parent else None, self.job)
            if count is not None:
                count(self, args, result)
            if parent is not None:
                parent[1] += perf_counter() - start
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every traced function for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        for module, attr, count in TRACED:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = sys.modules[module]
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, fn_name)
            name = f"{module.removeprefix('ratgen.')}.{fn_name}"
            wrapper = self.wrap(name, original, count)
            holders = [owner] if owner_name else [
                m for n, m in list(sys.modules.items())
                if (n == "ratgen" or n.startswith("ratgen.")) and m is not None
                and getattr(m, fn_name, None) is original
            ]
            for holder in holders:
                undo.append((holder, fn_name, original))
                setattr(holder, fn_name, wrapper)
        try:
            yield
        finally:
            for holder, fn_name, original in reversed(undo):
                setattr(holder, fn_name, original)

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        n = 0
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:  # its call raised
                    continue
                name, start, end, parent, job = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
                n += 1
        return n
