"""Outside-in tracing of the ssgpr package from the benchmark's own files.

The package is not edited. ``Tracer.installed()`` replaces each traced
function or method with a timing wrapper for the duration of a ``with``
block and restores the originals afterwards. Functions are rebound under
every name that holds them in any loaded ``ssgpr`` module, because
``gpr``, ``protocols``, ``offline`` and ``session`` import their
collaborators with ``from ... import``; methods are replaced on the class.

Each thread keeps its own span stack and aggregates, so no lock is taken
on the hot path. A span's self time is its duration minus the durations
of the traced calls made directly inside it on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "ssgpr"


def _payload_bytes(args) -> int:
    # Channel.send(self, tag, payload): 16-byte header plus 64-bit words.
    return 16 + 8 * int(np.size(args[2]))


def _matmul_macs(args) -> int:
    a, b = np.shape(args[0]), np.shape(args[1])
    return a[0] * a[1] * b[-1]


def _exp_elements(args) -> int:
    return int(args[1].values.size)


# (module, attribute or "Class.method", takes a PartyRuntime first,
#  extra quantity counted per call, keep every span in the span log)
TARGETS = [
    ("data", "split_scenario", False, None, True),
    ("gpr", "pp_kernel", True, None, True),
    ("gpr", "pp_gpr_construct", True, None, True),
    ("gpr", "pp_gpr_predict", True, None, True),
    ("protocols", "ss_mul", True, None, True),
    ("protocols", "ss_matmul", True, None, True),
    ("protocols", "ss_dist", True, None, True),
    ("protocols", "pp_exp", True, _exp_elements, True),
    ("protocols", "ss_reciprocal", True, None, True),
    ("protocols", "ss_sqrt", True, None, True),
    ("protocols", "pp_cholesky_ldl", True, None, True),
    ("protocols", "pp_forward", True, None, True),
    ("protocols", "pp_backward", True, None, True),
    ("protocols", "pp_matinv", True, None, True),
    ("session", "PartyRuntime.trunc_values", False, None, False),
    ("offline", "serve_assistant", False, None, True),
    ("offline", "AssistantClient.get_triple", False, None, False),
    ("offline", "AssistantClient.get_matrix_triple", False, None, False),
    ("offline", "AssistantClient.get_exp_mask", False, None, False),
    ("offline", "AssistantClient.trunc", False, None, False),
    ("transport", "Channel.send", False, _payload_bytes, False),
    ("transport", "Channel.recv", False, None, False),
    ("sharing", "SharedArray.__init__", False, None, False),
    ("ring", "ring_matmul", False, _matmul_macs, False),
    ("ring", "ring_mul", False, None, False),
]


class ThreadTrace:
    """Spans and per-name aggregates recorded on one thread."""

    def __init__(self, ident: int):
        self.ident = ident
        self.party = None
        self.stack = []
        self.agg = {}          # name -> [calls, inclusive s, self s]
        self.extra = {}        # name -> summed extra quantity
        self.rounds = {}       # name -> summed peer rounds
        self.call_rounds = {}  # name -> set of per-call peer rounds
        self.spans = []        # (id, parent id, name, start, end, self s)
        self.root = None

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]


class Tracer:
    """Wraps the package's public functions and collects per-thread spans."""

    def __init__(self):
        self.threads: list[ThreadTrace] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> ThreadTrace:
        try:
            return self._local.st
        except AttributeError:
            st = ThreadTrace(threading.get_ident())
            self._local.st = st
            with self._lock:
                self.threads.append(st)
            return st

    def _wrap(self, name, fn, has_rt, extra, keep):
        state, ids, clock = self._state, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            if parent is None and st.root is None:
                st.root = name
            frame = [0.0, next(ids)]
            stack.append(frame)
            if has_rt:
                rt = args[0]
                st.party = rt.party
                r0 = rt.stats.rounds
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                a = st.agg.get(name)
                if a is None:
                    a = st.agg[name] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[0]
                if has_rt:
                    r = rt.stats.rounds - r0
                    st.rounds[name] = st.rounds.get(name, 0) + r
                    st.call_rounds.setdefault(name, set()).add(r)
                if extra is not None:
                    st.extra[name] = st.extra.get(name, 0) + extra(args)
                if keep:
                    st.spans.append((frame[1], parent[1] if parent else 0, name,
                                     t0, t1, dur - frame[0]))
        return traced

    @contextmanager
    def installed(self):
        """Trace every target for the duration of the block."""
        undo = []
        try:
            for module, attr, has_rt, extra, keep in TARGETS:
                mod = sys.modules[f"{PACKAGE}.{module}"]
                name = f"{module}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig, has_rt, extra, keep))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, has_rt, extra, keep)
                for other in [m for k, m in sys.modules.items()
                              if k == PACKAGE or k.startswith(PACKAGE + ".")]:
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapped)
                            undo.append((other, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # Aggregates over the traced block's threads; ``party`` keeps only the
    # threads of that compute server.

    def _threads(self, party):
        return [t for t in self.threads if party is None or t.party == party]

    def total_calls(self, name: str, party=None) -> int:
        return sum(t.calls(name) for t in self._threads(party))

    def total_seconds(self, name: str, party=None) -> float:
        return sum(t.seconds(name) for t in self._threads(party))

    def total_self_seconds(self, name: str, party=None) -> float:
        return sum(t.self_seconds(name) for t in self._threads(party))

    def total_extra(self, name: str, party=None) -> int:
        return sum(t.extra.get(name, 0) for t in self._threads(party))

    def party_rounds(self, party: int, name: str) -> int:
        return sum(t.rounds.get(name, 0) for t in self._threads(party))

    def call_rounds(self, name: str) -> set:
        out = set()
        for t in self.threads:
            out |= t.call_rounds.get(name, set())
        return out

    def span_log(self) -> list[dict]:
        return [{"thread": t.ident, "party": t.party, "root": t.root,
                 "spans": [dict(zip(("id", "parent", "name", "start", "end", "self_s"), s))
                           for s in t.spans]}
                for t in self.threads]
