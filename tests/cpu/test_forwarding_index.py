"""The store-forwarding index against a reference scan of the window.

``Core._forward`` looks up the per-address index of in-window STORE/
STCX ops.  These tests drive random same-address interleavings of
store, store-conditional, load and load-linked ops on two processors,
with LVP mispredict squashes and SLE aborts among them, and check at
every forward that the index gives what a reversed scan of the whole
window gives, and that the index always mirrors the window.
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu.core import Core
from repro.cpu.isa import MicroOp, OpKind
from repro.cpu.program import BlockBuilder
from repro.system.system import System
from repro.system.techniques import configure_technique
from tests.harness import ScriptWorkload

#: Three words: two share a line, the third is on its own line.
WORDS = (0x4000, 0x4008, 0x4100)


def scan_forward(core: Core, addr: int, w) -> int | None:
    """Reference: the reversed window scan the index replaced."""
    for other in reversed(core.window):
        if other.seq >= w.seq:
            continue
        if other.op.kind is OpKind.STORE and other.op.addr == addr:
            return other.op.value
        if other.op.kind is OpKind.STCX and other.op.addr == addr:
            return None
    return core.sb.forward(addr)


def window_index(core: Core) -> dict[int, list]:
    """The index the window implies: STORE/STCX ops by address, oldest first."""
    index: dict[int, list] = {}
    for w in core.window:
        if w.op.kind in (OpKind.STORE, OpKind.STCX):
            index.setdefault(w.op.addr, []).append(w)
    return index


def check_index(core: Core) -> None:
    assert core._stores == window_index(core)
    if not core.window:
        assert not core._stores


@contextlib.contextmanager
def checked_core(counts: dict[str, int]):
    """Patch ``Core`` so every forward and every state change is checked."""
    forward, pump, squash_from = Core._forward, Core.pump, Core.squash_from

    def checked_forward(self, addr, w):
        check_index(self)
        got = forward(self, addr, w)
        assert got == scan_forward(self, addr, w)
        counts["forwards"] += 1
        return got

    def checked_pump(self):
        pump(self)
        check_index(self)

    def checked_squash_from(self, w, resume_time, reason):
        squash_from(self, w, resume_time, reason)
        check_index(self)

    with mock.patch.object(Core, "_forward", checked_forward), \
            mock.patch.object(Core, "pump", checked_pump), \
            mock.patch.object(Core, "squash_from", checked_squash_from):
        yield


def thread_program(steps):
    """A thread program from ``steps``; every step terminates (no spin loops)."""

    def prog(tid, config, rng):
        b = BlockBuilder()
        for kind, word, arg in steps:
            addr = WORDS[word]
            if kind == "store":
                b.store(addr, arg)
            elif kind == "stcx":
                # A store-conditional whose outcome nothing reads: with no
                # control flag, fetch runs on past it, so younger loads of
                # the same word meet it in the window.
                block = b.take() if b.pending else []
                block.append(MicroOp(OpKind.STCX, addr=addr, value=arg, pc=0x780 + word))
                yield block
            elif kind == "load":
                b.load(addr, b.fresh())
            elif kind == "load_ctl":
                b.load_ctl(addr)
                yield b.take()
            elif kind == "alu":
                for _ in range(arg):
                    b.alu(latency=2)
            else:  # "region": the larx/stcx idiom, a body, the silent release
                b.larx(addr, pc=0x700 + word)
                observed = yield b.take()
                b.stcx(addr, observed + 1, pc=0x700 + word,
                       meta={"sle_fallback": ("add", 1)})
                yield b.take()
                for _ in range(arg):
                    b.store(WORDS[(word + 1) % len(WORDS)], arg)
                    b.load(addr, b.fresh())
                b.store(addr, observed)
        if b.pending:
            yield b.take()
        b.end()
        yield b.take()

    return prog


KINDS = ("store", "store", "stcx", "load", "load", "load_ctl", "alu", "region")

step = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, len(WORDS) - 1),
    st.integers(1, 4),
)


def run(config, threads) -> tuple[System, dict[str, int]]:
    counts = {"forwards": 0}
    cfg = configure_technique(config, "emesti+lvp+sle")
    system = System(cfg, ScriptWorkload(*(thread_program(t) for t in threads)), seed=0)
    with checked_core(counts):
        system.run(max_cycles=5_000_000, max_events=2_000_000)
    for core in system.cores:
        assert core.finished and not core.window and not core._stores
    return system, counts


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(threads=st.lists(st.lists(step, max_size=40), min_size=2, max_size=2))
def test_index_matches_window_scan(tiny_config, threads):
    run(tiny_config, threads)


def test_random_interleavings_reach_squashes_and_aborts(tiny_config):
    """The same checks on fixed programs that do squash and abort."""
    rng = random.Random(7)
    totals = {"forwards": 0, "lvp": 0, "sle": 0}
    for _ in range(6):
        threads = [
            [(rng.choice(KINDS), rng.randrange(len(WORDS)), rng.randint(1, 4))
             for _ in range(40)]
            for _ in range(2)
        ]
        system, counts = run(tiny_config, threads)
        totals["forwards"] += counts["forwards"]
        for i in range(2):
            totals["lvp"] += system.stats.get(f"core{i}.squash.lvp")
            totals["sle"] += system.stats.get(f"core{i}.squash.sle")
    assert totals["forwards"] > 0
    assert totals["lvp"] > 0
    assert totals["sle"] > 0
