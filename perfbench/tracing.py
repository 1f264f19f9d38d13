"""In-memory tracing of calls into the hebsim layers.

The tracer wraps public functions and methods of the ``hebsim`` modules at
run time (nothing under ``src/`` changes) and records three kinds of data:

* spans for coarse layer calls (``cli.main``, ``engine.run_epoch``,
  ``mdp.solve``...): name, start, end and parent span, kept in memory
  until the run ends;
* busy time and call counts for hot per-block calls (``BlockStore.append``,
  strategies' ``generate_block`` / ``publish``).  They are too frequent to
  keep one span each; their time is still charged to the enclosing span so
  that self times stay exact;
* call counts for the hottest inner functions (``successors``,
  ``terminal_value``, ``binom_pmf``...), which are counted, not timed.

A span's self time is its duration minus the time of its child spans and
timed calls.  Timed calls must not contain spans (none of the wrapped hot
calls does).
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.root = Span("root", None)
        self._stack: list[Span] = [self.root]
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.publish_hits = 0

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn: Callable, on_return: Callable = None) -> Callable:
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            s = Span(name, parent)
            stack.append(s)
            s.start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                s.end = _clock()
                stack.pop()
                parent.child_s += s.end - s.start
                spans.append(s)
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def timed(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        busy = self.busy
        calls = self.calls

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                busy[name] += dt
                calls[name] += 1
                stack[-1].child_s += dt

        return wrapper

    def timed_publish(self, fn: Callable) -> Callable:
        """``timed`` for ``publish``, also counting polls that returned blocks."""
        inner = self.timed("protocols.publish", fn)
        tracer = self

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            if out:
                tracer.publish_hits += 1
            return out

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_during(self, name: str, counter: str, fn: Callable) -> Callable:
        """Add to ``calls[name]`` the calls of ``counter`` made while ``fn``
        runs: two lookups per call of ``fn``, none per counted call."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            before = calls[counter]
            try:
                return fn(*args, **kwargs)
            finally:
                calls[name] += calls[counter] - before

        return wrapper

    # -- queries -------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def per_call_us(self, name: str) -> float:
        n = self.calls[name]
        return self.busy[name] / n * 1e6 if n else 0.0

    def dump(self) -> list[dict]:
        """Spans as records; ``parent`` is an index into the list or None."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)),
            }
            for s in self.spans
        ]


def _set(obj, attr: str, value) -> None:
    # classes need type.__setattr__; modules and frozen dataclass instances
    # (ProtocolSpec) take object.__setattr__
    if isinstance(obj, type):
        setattr(obj, attr, value)
    else:
        object.__setattr__(obj, attr, value)


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]):
    """Set ``obj.attr = value`` for each target; restore the old values on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, value in targets:
            _set(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            _set(obj, attr, value)


def layer_patches(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """Every hebsim boundary the traced run instruments."""
    from hebsim import chain, cli, engine, mdp, metrics, protocols

    t = tracer

    def count_states(result) -> None:
        t.calls["mdp.states"] += result.states

    store = chain.BlockStore
    epoch_stats = t.span("chain.epoch_stats", chain.epoch_stats)
    min_factor = t.span("mdp.min_factor", mdp.min_factor)
    out: list[tuple[object, str, Callable]] = [
        (store, "append", t.timed("chain.append", store.append)),
        (store, "main_chain_length", t.counted("chain.main_chain_length", store.main_chain_length)),
        (store, "tip_ids", t.counted("chain.tip_ids", store.tip_ids)),
        # engine and the balance functions each imported epoch_stats by name
        (engine, "epoch_stats", epoch_stats),
        (protocols, "epoch_stats", epoch_stats),
        # iter_game_results and the pool worker look run_epoch up at call time
        (engine, "run_epoch", t.span("engine.run_epoch", engine.run_epoch)),
        (metrics, "expected_weight", t.span("metrics.expected_weight", metrics.expected_weight)),
        (metrics, "binom_pmf", t.counted("metrics.binom_pmf", metrics.binom_pmf)),
        (mdp, "min_factor", min_factor),
        (cli, "min_factor", min_factor),
        (mdp, "best_response", t.span("mdp.probe", mdp.best_response)),
        (mdp, "solve", t.span("mdp.solve", mdp.solve, on_return=count_states)),
        (mdp, "policy_value", t.span("mdp.policy_value", mdp.policy_value)),
        # rollout steps are the successors calls made inside rollout_rewards
        (mdp, "rollout_rewards", t.counted_during(
            "mdp.rollout.steps", "mdp.successors", t.span("mdp.rollout", mdp.rollout_rewards)
        )),
        (mdp, "successors", t.counted("mdp.successors", mdp.successors)),
        (mdp, "terminal_value", t.counted("mdp.terminal_value", mdp.terminal_value)),
        (cli, "main", t.span("cli.main", cli.main)),
    ]
    # the other metrics functions the CLI calls, so cli.main's self time
    # excludes every metrics call
    for name in ("epsilon", "normalized_weight_curve", "pow_only_bound", "permissiveness"):
        out.append((metrics, name, t.span(f"metrics.{name}", getattr(metrics, name))))
    # ProtocolSpec holds its balance function; the engine calls it from there
    for spec in protocols._PROTOCOLS.values():
        out.append((spec, "balance_fn", t.span("protocols.balance_fn", spec.balance_fn)))
    for cls in vars(protocols).values():
        if not isinstance(cls, type) or cls.__module__ != protocols.__name__:
            continue
        own = vars(cls)  # inherited methods are wrapped once, on the base class
        if "generate_block" in own:
            out.append(
                (cls, "generate_block", t.timed("protocols.generate_block", own["generate_block"]))
            )
        if "publish" in own:
            out.append((cls, "publish", t.timed_publish(own["publish"])))
    return out
