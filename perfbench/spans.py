"""In-memory span tracer and the instrumentation of latmc's public names.

A span records one call into a layer: name, start, end, parent span and the
benchmark operation it belongs to.  Generator draws are too frequent to keep
one span each, so generator proxies add their time and call count to an
aggregate keyed by the draw and the enclosing span; that time still counts
as covered by a child when the enclosing span's self time is computed.

Instrumentation replaces names where latmc's callers look them up (module
attributes and target-instance methods) only inside ``Tracer.installed()``,
so untraced rounds run the unmodified code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import numpy as np

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.covered = []  # per span: time covered by child spans and draws
        self.stack = []
        self.leaf = defaultdict(lambda: [0, 0.0])  # (draw, parent name) -> [calls, s]
        self.counts = defaultdict(int)
        self.op = -1
        self.bookkeeping_s = 0.0

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.covered.append(0.0)
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        now = time.perf_counter()
        span = self.spans[index]
        span[2] = now
        self.stack.pop()
        if span[3] >= 0:
            self.covered[span[3]] += now - span[1]

    def exclude(self, started):
        """Charge the time since ``started`` to no layer (tracer bookkeeping)."""
        spent = time.perf_counter() - started
        self.bookkeeping_s += spent
        if self.stack:
            self.covered[self.stack[-1]] += spent

    def draw(self, name, fn, args, kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        spent = time.perf_counter() - t0
        parent = self.spans[self.stack[-1]][0] if self.stack else ""
        entry = self.leaf[(name, parent)]
        entry[0] += 1
        entry[1] += spent
        if self.stack:
            self.covered[self.stack[-1]] += spent
        return out

    def wrap(self, fn, name, before=None, after=None):
        """Span around ``fn``.  The counting hooks ``before(args)`` and
        ``after(out)`` run outside the span and are charged to no layer."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                started = time.perf_counter()
                before(args)
                tracer.exclude(started)
            index = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                started = time.perf_counter()
                after(out)
                tracer.exclude(started)
            return out

        return traced

    # -- reduction ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, self.covered):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return out

    def draw_totals(self, parent=None):
        calls, seconds = 0, 0.0
        for (_, parent_name), (n, s) in self.leaf.items():
            if parent is None or parent_name == parent:
                calls += n
                seconds += s
        return calls, seconds

    def check_nesting(self):
        """Spans whose interval is not inside their parent's interval."""
        bad = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    bad.append((i, name, p[0]))
        return bad

    def dump(self, path):
        payload = {
            "span_fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "draws": [[n, p, c, s] for (n, p), (c, s) in sorted(self.leaf.items())],
            "counts": dict(self.counts),
            "bookkeeping_s": self.bookkeeping_s,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    # -- instrumentation of latmc ----------------------------------------

    @contextlib.contextmanager
    def installed(self, targets=()):
        """Patch latmc's lookup sites for the duration of the block;
        ``targets`` are target instances the benchmark itself built."""
        patches = self._module_patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        for mod, attr, replacement in patches:
            setattr(mod, attr, replacement)
        for target in targets:
            self.instrument_target(target)
        try:
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
            for target in targets:
                target.__dict__.pop("f_batch", None)
                target.__dict__.pop("grad_batch", None)

    def instrument_target(self, target):
        count = self._count_points
        target.f_batch = self.wrap(target.f_batch, "targets.f_batch", before=count)
        target.grad_batch = self.wrap(target.grad_batch, "targets.grad_batch", before=count)
        return target

    def _count_points(self, args):
        self.counts["targets.points"] += int(np.shape(args[0])[0])

    def _count_rows(self, args):
        self.counts["proposals.rows"] += int(np.prod(np.shape(args[0])[:-1]))

    def _count_degenerate(self, args):
        """Rows whose current value's CDF interval has zero width, read from
        the wrapper's own inputs (cdf rows and current indices)."""
        cdf, x0 = args[0], np.asarray(args[1])
        upper = np.take_along_axis(cdf, x0[..., None], axis=-1)[..., 0]
        below = np.take_along_axis(cdf, np.maximum(x0 - 1, 0)[..., None], axis=-1)[..., 0]
        lower = np.where(x0 > 0, below, 0.0)
        self.counts["proposals.rows"] += int(x0.size)
        self.counts["proposals.degenerate_rows"] += int(np.count_nonzero(upper - lower <= 0.0))

    def _count_accepts(self, result):
        self.counts["samplers.accepted"] += int(np.count_nonzero(result.accepted))
        self.counts["samplers.attempted"] += int(result.accepted.size)

    def traced_run_chains(self, run_chains):
        return self.wrap(run_chains, "samplers.run_chains", after=self._count_accepts)

    def _module_patches(self):
        from latmc import cli, harness, samplers, tuning

        wrap = self.wrap
        tracer = self

        def build_target(params):
            return tracer.instrument_target(harness_build_target(params))

        def chain_rng(base_seed, stream):
            return GeneratorProxy(harness_chain_rng(base_seed, stream), tracer)

        harness_build_target = harness.build_target
        harness_chain_rng = harness.chain_rng
        run_chains = self.traced_run_chains(samplers.run_chains)
        ess = wrap(harness.ess_multichain, "diagnostics.ess")
        factorize = "precondition.factorize"
        calibrate = "precondition.calibrate_w"
        return [
            (samplers, "sample_rows_inverse_cdf",
             wrap(samplers.sample_rows_inverse_cdf, "proposals.inverse_cdf", before=self._count_rows)),
            (samplers, "over_relax_rows_from_cdf",
             wrap(samplers.over_relax_rows_from_cdf, "proposals.over_relax_sample")),
            (samplers, "over_relax_log_prob_rows",
             wrap(samplers.over_relax_log_prob_rows, "proposals.over_relax_logprob",
                  before=self._count_degenerate)),
            (harness, "run_chains", run_chains),
            (tuning, "run_chains", run_chains),
            (harness, "build_target", wrap(build_target, "targets.build")),
            (harness, "chain_rng", chain_rng),
            (harness, "build_preconditioner", wrap(harness.build_preconditioner, "harness.build_preconditioner")),
            (harness, "calibrate_w_gradient_diff", wrap(harness.calibrate_w_gradient_diff, calibrate)),
            (harness, "calibrate_w_energy_diff", wrap(harness.calibrate_w_energy_diff, calibrate)),
            (harness, "factorize", wrap(harness.factorize, factorize)),
            (harness, "lambda_shift", wrap(harness.lambda_shift, factorize)),
            (harness, "exact_quadratic_preconditioner",
             wrap(harness.exact_quadratic_preconditioner, factorize)),
            (harness, "first_order_preconditioner", wrap(harness.first_order_preconditioner, factorize)),
            (harness, "ess_multichain", ess),
            (tuning, "ess_multichain", ess),
            (harness, "tv_distance", wrap(harness.tv_distance, "diagnostics.tv")),
            (harness, "moment_report", wrap(harness.moment_report, "diagnostics.moments")),
            (harness, "exact_moments", wrap(harness.exact_moments, "diagnostics.moments")),
            (harness, "enumerate_joint", wrap(harness.enumerate_joint, "targets.enumerate_joint")),
            (harness, "read_chain_csv", wrap(harness.read_chain_csv, "harness.read_chain_csv")),
            (harness, "staged_grid_search", wrap(harness.staged_grid_search, "tuning.staged_grid_search")),
            (cli, "run_experiment", wrap(cli.run_experiment, "harness.run_experiment")),
            (cli, "recompute_metrics", wrap(cli.recompute_metrics, "harness.recompute_metrics")),
            (cli, "tune_command", wrap(cli.tune_command, "harness.tune_command")),
            (cli, "main", wrap(cli.main, "cli.main")),
        ]


class GeneratorProxy:
    """A numpy Generator whose draws are timed and counted by a tracer."""

    __slots__ = ("_g", "_t")

    def __init__(self, generator, tracer):
        self._g = generator
        self._t = tracer

    def random(self, *args, **kwargs):
        return self._t.draw("random", self._g.random, args, kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._t.draw("standard_normal", self._g.standard_normal, args, kwargs)

    def integers(self, *args, **kwargs):
        return self._t.draw("integers", self._g.integers, args, kwargs)

    def spawn(self, n):
        return [GeneratorProxy(child, self._t) for child in self._g.spawn(n)]

    def __getattr__(self, name):
        return getattr(self._g, name)
