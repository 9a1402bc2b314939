"""``FunctionalEngine.run``'s straight-line blocks against the
handler-stepping reference loop.

From a block leader that the run has entered often enough, ``run()``
executes the straight run of ALU ops, loads and stores up to a branch
as one generated function (``functional._build_block``).  Every
program here loops past the hot threshold, so its blocks are built and
run; each case then checks the end state against
``test_functional_loop.reference_run``, and the targeted ones check
what must keep a block from running or make it leave early: code
flips, actions, faults, page-memo misses, stores into code, the
watchdog, fast-path polls and an observer.  A block whose code a flip
or store changed runs, from its second failed check in a run, as a
run-local variant built from the current bytes; those cases check the
variant against the same reference.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injectors.campaign import run_campaign
from repro.isa import layout
from repro.isa.assembler import assemble
from repro.isa.registers import ISA_NAMES, MR64, register_set
from repro.kernel.loader import build_system_image
from repro.uarch import functional
from repro.uarch.cpu import KERNEL_MODE
from repro.uarch.exceptions import DetectTrap, FaultKind, SimException
from repro.uarch.functional import (FaultAction, FunctionalEngine,
                                    trigger_tables)
from repro.uarch.snapshot import capture_functional, restore_functional
from tests.test_differential import _REGS, random_program
from tests.test_functional_loop import (ROM, _end_state, _image,
                                        _rom_regions, reference_run)

PAGE = layout.PAGE_SIZE
#: enough trips through a loop for its blocks to be built and run
TRIPS = 12
assert TRIPS > 2 * functional._HOT_ENTRIES

EXIT = """
    li   r1, 0
    li   r2, 0
    syscall
"""


def _write(symbol: str, nbytes: int) -> str:
    return f"""
    la   r2, {symbol}
    li   r3, {nbytes}
    li   r1, 1
    syscall
"""


def _binds_a_variant(page, off, pc, regs) -> bool:
    """Whether ``run()`` calls ``_build_block`` for a variant: the
    leader already holds a built block, whose code check failed."""
    word = int.from_bytes(page[off:off + 4], "little")
    return functional._DECODE_CACHE.get(
        (regs.xlen, pc, word)).__class__ is tuple


@pytest.fixture
def spy(monkeypatch):
    """A fresh decode cache, and counts of the block calls and of the
    instructions blocks ran, side exits included; the same counts of
    the run-local variants (``variant_calls``, ...); each block built
    (``blocks``) and each variant bound (``variants``)."""
    monkeypatch.setattr(functional, "_DECODE_CACHE", {})
    seen = SimpleNamespace(calls=0, instructions=0, exits=0, blocks=[],
                           variants=[], variant_calls=0,
                           variant_instructions=0, variant_exits=0)
    build = functional._build_block

    def counted(block, prefix: str):
        fn, n = block[0], block[1]

        def call(*args):
            nxt = fn(*args)
            for name, count in (("calls", 1),
                                ("instructions", n if nxt >= 0 else ~nxt),
                                ("exits", nxt < 0)):
                setattr(seen, prefix + name,
                        getattr(seen, prefix + name) + count)
            return nxt

        return (call,) + block[1:]

    def counted_build(page, off, pc, regs):
        variant = _binds_a_variant(page, off, pc, regs)
        block = build(page, off, pc, regs)
        if block is None:
            return None
        (seen.variants if variant else seen.blocks).append(block)
        return counted(block, "variant_" if variant else "")

    monkeypatch.setattr(functional, "_build_block", counted_build)
    return seen


def _blocks() -> dict:
    """The built blocks in the decode cache: ``{pc: block}``."""
    return {key[1]: value for key, value in functional._DECODE_CACHE.items()
            if len(key) == 3 and value.__class__ is tuple}


def _program(src: str, isa: str = MR64):
    return assemble(src, isa, name="blocks")


def _engine(program, kernel: str = "sim", state=None,
            **kwargs) -> FunctionalEngine:
    engine = FunctionalEngine(build_system_image(program), kernel=kernel,
                              **kwargs)
    if state is not None:
        restore_functional(engine, state)
    return engine


def _both(build, reference=reference_run) -> dict:
    """The end state of ``run()`` on one engine from *build()*, after
    checking it equals *reference*'s on another."""
    engine = build()
    result = engine.run()
    got = _end_state(engine, result.status.value, result.fault_kind)
    assert got["output"] == result.output
    other = build()
    want = _end_state(other, *reference(other))
    if reference is dest_reference_run:
        got["dest"] = (engine.last_dest, engine._counters)
        want["dest"] = (other.last_dest, other._counters)
    assert got == want
    return got


def _checkpoint(program, kernel: str = "sim") -> dict:
    """The state at the program's first instruction, with its pages
    frozen as a checkpoint's are."""
    return capture_functional(_engine(program, kernel))


LOOP = f"""
.text
_start:
    la   r6, buf
    li   r4, {TRIPS}
    li   r5, 0
    li   r7, 3
loop:
    add  r5, r5, r4
    xor  r7, r7, r5
    slli r8, r7, 3
    sw   r8, 0(r6)
    lbu  r9, 1(r6)
    lh   r10, 2(r6)
    add  r5, r5, r9
    sub  r5, r5, r10
    sh   r5, 4(r6)
    addi r4, r4, -1
    bnez r4, loop
{_write("buf", 8)}
{EXIT}
.data
buf: .space 8
"""


@pytest.mark.parametrize("kernel", ["sim", "host"])
@pytest.mark.parametrize("isa", ISA_NAMES)
def test_loop_blocks_match_the_reference(spy, isa, kernel):
    program = _program(LOOP, isa)
    state = _both(lambda: _engine(program, kernel))
    assert state["status"] == "completed"
    assert _blocks()[program.symbols["loop"]][1] == 11
    assert spy.instructions >= 11 * (TRIPS - functional._HOT_ENTRIES - 1)


SHORT = f"""
.text
_start:
    li   r4, {TRIPS}
loop:
    addi r4, r4, -1
    bnez r4, loop
{EXIT}
"""


def test_cold_and_short_leaders_build_no_block(spy):
    """A leader entered fewer times than the threshold only counts its
    entries; a hot one with too short a straight run caches None."""
    program = _program(SHORT)
    _both(lambda: _engine(program, "host"))
    entries = {key[1]: value for key, value
               in functional._DECODE_CACHE.items() if len(key) == 3}
    # the pc after the loop's branch, entered once
    assert entries[program.symbols["loop"] + 8] == 1
    assert entries[program.symbols["loop"]] is None
    assert spy.calls == 0


COUNTER = f"""
.text
_start:
    li   r4, {TRIPS}
    li   r5, 0
    li   r6, 0
loop:
    addi r5, r5, 1
    addi r6, r6, 2
    addi r4, r4, -1
    bnez r4, loop
    la   r2, out
    sw   r5, 0(r2)
    sw   r6, 4(r2)
{_write("out", 8)}
{EXIT}
.data
out: .space 8
"""

#: the commit index of the loop head's visit *i* in COUNTER
def _visit(i: int, step: int = 0) -> int:
    return 3 + 4 * i + step


def _counter_output(state: dict) -> tuple:
    out = state["output"]
    return (int.from_bytes(out[:4], "little"),
            int.from_bytes(out[4:], "little"))


@pytest.mark.parametrize("frozen", [False, True], ids=["fresh", "restored"])
def test_commit_flip_into_a_built_blocks_word(spy, frozen):
    """Flipping the second word of the loop's block after the block was
    built: the code check keeps the block from running the old word,
    from the flip's own trip on."""
    program = _program(COUNTER)
    state = _checkpoint(program) if frozen else None
    target = program.symbols["loop"] + 4
    late = 8

    def flip(engine):
        # addi r6, r6, 2 -> addi r6, r6, 6 (immediate bit 2)
        engine.memory.write_int(
            target, engine.memory.read_int(target, 4) ^ 4, 4)

    def build():
        engine = _engine(program, state=state)
        engine.schedule(FaultAction("commit", _visit(late), flip))
        return engine

    end = _both(build)
    assert _counter_output(end) == (TRIPS, 2 * late + 6 * (TRIPS - late))
    # built on the loop's fourth entry, run up to the flip's trip only
    assert spy.calls == late - functional._HOT_ENTRIES - 1


def _flipped_counter(isa: str, state, late: int, imm: int = 6):
    """A build of COUNTER whose loop head's visit *late* flips the
    loop's second word, ``addi r6, r6, 2``, into ``addi r6, r6,
    <imm>``."""
    program = _program(COUNTER, isa)
    target = program.symbols["loop"] + 4
    mask = _word("addi r6, r6, 2", isa) ^ _word(f"addi r6, r6, {imm}", isa)

    def flip(engine):
        engine.memory.write_int(
            target, engine.memory.read_int(target, 4) ^ mask, 4)

    def build():
        engine = _engine(program, state=state)
        engine.schedule(FaultAction("commit", _visit(late), flip))
        return engine

    return build


@pytest.mark.parametrize("frozen", [False, True], ids=["fresh", "restored"])
@pytest.mark.parametrize("isa", ISA_NAMES)
def test_a_flipped_block_runs_as_a_variant(spy, isa, frozen):
    """After a flip into the built block's second word, the trip after
    the flip's fails the block's code check and runs word by word; from
    the second failed entry on, the leader runs one variant of the
    flipped bytes, bound once, and the old block never runs again."""
    late = 6
    state = _checkpoint(_program(COUNTER, isa)) if frozen else None
    end = _both(_flipped_counter(isa, state, late))
    assert _counter_output(end) == (TRIPS, 2 * late + 6 * (TRIPS - late))
    assert spy.calls == late - functional._HOT_ENTRIES - 1
    assert [variant[1] for variant in spy.variants] == [4]
    assert spy.variant_calls == TRIPS - late - 2
    assert spy.variant_instructions == 4 * spy.variant_calls


def test_the_decode_cache_holds_shape_factories_not_variants(spy):
    """Blocks are bound from factories compiled once per block shape
    and kept in the decode cache.  A flip to another immediate keeps
    the shape of the loop's block, so each run's variant shares the
    block's code, bound from its factory with no compile; the variant
    itself stays out of the cache and dies with its run."""
    for imm in (6, 10):
        _flipped_counter(MR64, None, 6, imm)().run()
    factories = {key: value for key, value
                 in functional._DECODE_CACHE.items()
                 if len(key) == 2 and key[1].__class__ is tuple}
    # every factory binds some block the runs built: none is the
    # variants' own
    assert factories and {
        key for key, factory in factories.items() for block in spy.blocks
        if block[0].__code__ in factory.__code__.co_consts} == set(factories)
    first, second = spy.variants
    (loop,) = [block for block in spy.blocks if block[2] == first[2]]
    assert first[0].__code__ is second[0].__code__ is loop[0].__code__
    assert first[0] is not second[0] and first[0].__closure__ is not None
    # the cached blocks are the built ones, none of them a variant
    cached = [value[1:] for value in functional._DECODE_CACHE.values()
              if value.__class__ is tuple and len(value) == 8]
    assert sorted(cached) == sorted(block[1:] for block in spy.blocks)


@pytest.mark.parametrize("frozen", [False, True], ids=["fresh", "restored"])
@pytest.mark.parametrize("isa", ISA_NAMES)
def test_a_variant_whose_bytes_change_again(spy, isa, frozen):
    """Every trip stores a new immediate into the word after its store,
    inside the loop's block: the second failed entry binds a variant,
    the next finds the variant's bytes changed too, and the leader runs
    word by word from then on; no second variant is bound."""
    one, two = _word("addi r5, r5, 1", isa), _word("addi r5, r5, 2", isa)
    src = f"""
.text
_start:
    la   r2, patch
    li   r3, {one}
    li   r8, {two - one}
    li   r4, {TRIPS}
    li   r5, 0
loop:
    add  r3, r3, r8
    sw   r3, 0(r2)
patch:
    addi r5, r5, 1
    addi r4, r4, -1
    bnez r4, loop
    la   r2, out
    sw   r5, 0(r2)
{_write("out", 4)}
{EXIT}
.data
out: .space 4
"""
    program = _program(src, isa)
    state = _checkpoint(program) if frozen else None
    end = _both(lambda: _engine(program, state=state))
    assert int.from_bytes(end["output"], "little") == sum(
        range(2, TRIPS + 2))
    assert len(spy.variants) == 1 and spy.variant_calls == 1
    assert spy.calls == 0


@pytest.mark.parametrize("new", ["div", "illegal"])
@pytest.mark.parametrize("isa", ISA_NAMES)
def test_a_variant_ends_before_a_handler_or_illegal_word(spy, monkeypatch,
                                                         isa, new):
    """A WI flip, at the eighth word of a trip, turns LOOP's sixth
    word into a handler kind (``div``) or an illegal word: the variant
    holds the five words before it, and the word runs on the word-by-
    word path, ``div`` through its handler, the illegal word raising
    ILLEGAL_INSTRUCTION at its own pc.  The illegal word ends the run
    on the next trip, so there the variant binds on the first failed
    code check."""
    program = _program(LOOP, isa)
    target = program.symbols["loop"] + 20
    word = _word("div r11, r5, r4", isa) if new == "div" else 0xFFFF_FFFF
    late = 6
    if new == "illegal":
        monkeypatch.setattr(functional, "_VARIANT_FAILS", 1)

    def build():
        engine = _engine(program)
        # five instructions before the loop, then eleven a trip
        engine.schedule(FaultAction(
            "commit", 5 + 11 * late + 7,
            lambda e: e.memory.write_int(target, word, 4)))
        return engine

    end = _both(build)
    assert [variant[1] for variant in spy.variants] == [5]
    if new == "div":
        assert end["status"] == "completed"
        assert spy.variant_calls == TRIPS - late - 2
    else:
        assert end["status"] == "sim-exception"
        assert end["fault_kind"] is FaultKind.ILLEGAL_INSTRUCTION
        assert end["ms"][0] == target
        assert spy.variant_calls == 1


def test_commit_action_inside_a_block(spy):
    """An action due at the third instruction of a built block's trip:
    that trip runs instruction by instruction, and the blocks after it
    count on from the right commit index."""
    program = _program(COUNTER)
    first = _visit(9, 2)      # addi r4, r4, -1 of visit 9
    second = _visit(10, 1)

    def build():
        engine = _engine(program)
        engine.schedule(FaultAction(
            "commit", first, lambda e: e.regs.__setitem__(
                5, e.regs[5] ^ 0x100)))
        engine.schedule(FaultAction(
            "commit", second, lambda e: e.regs.__setitem__(
                6, e.regs[6] ^ 0x40)))
        return engine

    end = _both(build)
    assert _counter_output(end) == (TRIPS ^ 0x100, (2 * TRIPS) ^ 0x40)
    # every trip from the block's build on but the two with an action
    assert spy.calls == TRIPS - functional._HOT_ENTRIES - 1 - 2


def dest_reference_run(engine: FunctionalEngine) -> tuple:
    """:func:`reference_run` with the ``user_dest`` stream too: after a
    user-mode instruction that writes a register, ``last_dest`` is set
    and the stream's due actions fire."""
    ms = engine.ms
    commit_t, dest_t = trigger_tables(engine._actions)
    counters = engine._counters
    host = engine.kernel_mode_kind == "host"
    try:
        while not ms.halted:
            if engine.executed >= engine.max_instructions:
                return "timeout", None
            record = engine._fetch()
            instr, handler, dest, is_syscall = (record[0], record[1],
                                                record[5], record[12])
            for action in commit_t.get(counters["commit"], ()):
                action.apply(engine)
            counters["commit"] += 1
            if is_syscall and host:
                ms.pc += 4
                engine._host_syscall()
            else:
                ms.pc = handler(instr, ms, engine._core)
            engine.executed += 1
            if dest and ms.mode != KERNEL_MODE:
                engine.last_dest = dest
                for action in dest_t.get(counters["user_dest"], ()):
                    action.apply(engine)
                counters["user_dest"] += 1
    except SimException as exc:
        return "sim-exception", exc.kind
    except DetectTrap:
        return "detected", None
    return "completed", None


@pytest.mark.parametrize("kernel", ["sim", "host"])
@pytest.mark.parametrize("isa", ISA_NAMES)
def test_user_dest_actions_inside_blocks(spy, isa, kernel):
    """``user_dest`` actions due inside trips 7 and 9 of LOOP's block
    (eight register writes and two stores a trip) see the register the
    instruction before them wrote, and flip it.  A ``commit`` action at
    trip 5's branch clears ``last_dest``, and one at trip 7's head sees
    the ``last_dest`` and counters that trip 6, a block, left.  Every
    other trip from the block's build on runs as a block, and the run's
    counters and ``last_dest`` end as the stepping reference's."""
    program = _program(LOOP, isa)
    seen = []

    def record_and_flip(engine):
        seen.append((engine.last_dest, engine.executed, engine.ms.pc))
        engine.regs[engine.last_dest] ^= 1

    def clear(engine):
        engine.last_dest = 0

    def record(engine):
        seen.append((engine.last_dest, dict(engine._counters)))

    def build():
        seen.clear()
        engine = _engine(program, kernel)
        # five register writes before the loop, then eight a trip
        for when in (5 + 8 * 7 + 3, 5 + 8 * 9 + 6, 10 ** 6):
            engine.schedule(FaultAction("user_dest", when, record_and_flip))
        # five instructions before the loop, then eleven a trip
        engine.schedule(FaultAction("commit", 5 + 11 * 5 + 10, clear))
        engine.schedule(FaultAction("commit", 5 + 11 * 7, record))
        return engine

    build().run()
    got = list(seen)
    assert got[0] == (4, {"commit": 5 + 11 * 7, "user_dest": 5 + 8 * 7})
    assert spy.calls == TRIPS - functional._HOT_ENTRIES - 1 - 3
    end = _both(build, dest_reference_run)
    assert got == seen and len(got) == 3
    assert end["status"] == "completed"


def test_kernel_mode_blocks_count_no_user_dest(spy):
    """The sim kernel's word-copy loop runs as a block for a 64-byte
    write: its register writes are not the user's, so the ``user_dest``
    stream and ``last_dest`` stand still across it."""
    src = f"""
.text
_start:
    li   r4, 7
{_write("buf", 64)}
    li   r5, 3
{EXIT}
.data
buf: .space 64
"""
    program = _program(src)
    seen = []

    def build():
        seen.clear()
        engine = _engine(program)
        engine.schedule(FaultAction("user_dest", 10 ** 6, None))
        # li r4; la r2 (two words); li r3; li r1; the kernel's result in
        # r1 is not a user write; then li r5
        engine.schedule(FaultAction(
            "user_dest", 5,
            lambda e: seen.append((e.last_dest, dict(e._counters)))))
        return engine

    build().run()
    got = list(seen)
    assert spy.calls > 0 and got[0][0] == 5
    _both(build, dest_reference_run)
    assert seen == got


#: an address the loop's load or store turns to, and the fault it raises
BAD = {"kernel-page": (layout.KERNEL_DATA_BASE, FaultKind.PRIVILEGE_FAULT),
       "unmapped": (0x4000_0000, FaultKind.ACCESS_FAULT),
       "read-only": (ROM, FaultKind.ACCESS_FAULT)}


@pytest.mark.parametrize("op, bad", [
    ("lw", "kernel-page"), ("lw", "unmapped"), ("sw", "kernel-page"),
    ("sw", "unmapped"), ("sw", "read-only")])
@pytest.mark.parametrize("kernel", ["sim", "host"])
def test_memory_fault_inside_a_block(spy, op, bad, kernel):
    """In its third-last trip the loop's load or store address turns
    into a kernel-only, unmapped or read-only page: the block leaves
    before the access, which raises with the pc and counters at it.
    The bad page is in the page memo and holds bytes, so only the
    privilege or write test keeps the block from the access."""
    addr, kind = BAD[bad]
    access = "lw   r8, 0(r7)" if op == "lw" else "sw   r5, 0(r7)"
    src = f"""
.text
_start:
    la   r6, buf
    li   r12, {layout.USER_DATA_BASE ^ addr}
    li   r4, {TRIPS}
    li   r5, 0
    li   r8, 0
loop:
    slti r9, r4, 3
    sub  r9, r0, r9
    and  r9, r9, r12
    xor  r7, r6, r9
bad:
    {access}
    add  r5, r5, r8
    addi r4, r4, -1
    bnez r4, loop
{EXIT}
.data
buf: .word 7
"""
    program, _ = _image(src)
    assert program.symbols["buf"] == layout.USER_DATA_BASE

    def build():
        engine = FunctionalEngine(_image(src, _rom_regions())[1],
                                  kernel=kernel)
        if bad != "unmapped":
            engine.memory.write(addr, b"\x5a")
            assert engine.memory.page_region(addr) is not None
        return engine

    end = _both(build)
    assert end["status"] == "sim-exception"
    assert end["fault_kind"] is kind
    assert end["ms"][0] == program.symbols["bad"]
    assert spy.exits == 1
    assert spy.calls == TRIPS - 2 - functional._HOT_ENTRIES


EDGE = layout.USER_DATA_BASE + PAGE - 10
FAR = layout.USER_DATA_BASE + 5 * PAGE

SIDE_EXITS = f"""
.text
_start:
    li   r6, {EDGE + 10}
    li   r7, 0x5A5A5A5A
    sw   r7, 0(r6)
    li   r6, {EDGE}
    li   r10, {FAR}
    li   r11, {PAGE}
    li   r4, {TRIPS}
    li   r5, 0
loop:
    lw   r8, 0(r6)
    add  r5, r5, r8
    sh   r5, 2(r6)
    lw   r9, 8(r10)
    add  r5, r5, r9
    sw   r5, 0(r10)
    add  r10, r10, r11
    addi r6, r6, 1
    addi r4, r4, -1
    bnez r4, loop
    la   r2, out
    sw   r5, 0(r2)
{_write("out", 4)}
{EXIT}
.data
out: .space 4
"""


@pytest.mark.parametrize("frozen", [False, True], ids=["fresh", "restored"])
def test_page_crossing_and_first_touch_accesses_leave_the_block(spy,
                                                                frozen):
    """The loop's first load and store walk across a page end, into a
    page that is not all zeros, and it loads from and stores to a page
    no one has touched on every trip: each leaves the block for the
    instruction-by-instruction path."""
    program = _program(SIDE_EXITS)
    state = _checkpoint(program) if frozen else None
    end = _both(lambda: _engine(program, state=state))
    assert end["status"] == "completed"
    assert spy.exits >= TRIPS - functional._HOT_ENTRIES - 1
    assert FAR + (TRIPS - 1) * PAGE in end["pages"]


def _word(line: str, isa: str) -> int:
    return int.from_bytes(
        assemble(f".text\n_start:\n    {line}\n", isa)
        .section(".text").data[:4], "little")


@pytest.mark.parametrize("frozen", [False, True], ids=["fresh", "restored"])
@pytest.mark.parametrize("isa", ISA_NAMES)
def test_store_into_the_blocks_own_code(spy, isa, frozen):
    """Every trip rewrites the word after its store, inside the same
    block, between two immediates: the block ends after the store, so
    the new word runs, and the next entry's code check sees it."""
    one, two = _word("addi r5, r5, 1", isa), _word("addi r5, r5, 2", isa)
    src = f"""
.text
_start:
    la   r2, patch
    li   r3, {one}
    li   r8, {one ^ two}
    li   r4, {TRIPS}
    li   r5, 0
loop:
    xor  r3, r3, r8
    sw   r3, 0(r2)
patch:
    addi r5, r5, 1
    addi r4, r4, -1
    bnez r4, loop
    la   r2, out
    sw   r5, 0(r2)
{_write("out", 4)}
{EXIT}
.data
out: .space 4
"""
    program = _program(src, isa)
    state = _checkpoint(program) if frozen else None
    end = _both(lambda: _engine(program, state=state))
    assert int.from_bytes(end["output"], "little") == 3 * TRIPS // 2
    assert spy.exits > 0


@pytest.mark.parametrize("limit", range(100, 112))
def test_watchdog_inside_a_block(spy, limit):
    """The watchdog count falls at every position of LOOP's 11-word
    block in turn; the run stops at exactly that count."""
    program = _program(LOOP)
    end = _both(lambda: _engine(program, max_instructions=limit))
    assert end["status"] == "timeout"
    assert end["executed"] == limit
    assert spy.calls > 0


class _Polls:
    """A fast-path hook that records the state at every poll."""

    def __init__(self, interval: int) -> None:
        self.interval = interval
        self.next_check = interval
        self.seen: list = []

    def poll(self, engine):
        self.seen.append((engine.executed, engine.ms.pc, list(engine.regs),
                          dict(engine._counters)))
        self.next_check = engine.executed + self.interval
        return None


@pytest.mark.parametrize("interval", [13, 17, 23])
def test_polls_inside_blocks(spy, interval):
    """Polls fall due inside LOOP's 11-word block: the block does not
    run over one, and every poll sees the state the instruction-by-
    instruction loop (an observer attached) shows it."""
    program = _program(LOOP)

    def polled(observer=None):
        engine = _engine(program)
        engine.schedule(FaultAction("commit", -1, lambda e: None))
        engine.fastpath = _Polls(interval)
        engine.observer = observer
        engine.run()
        return engine.fastpath.seen

    fast = polled()
    slow = polled(SimpleNamespace(step=lambda engine: None))
    assert fast == slow
    assert [seen[0] for seen in fast] == [
        interval * (i + 1) for i in range(len(fast))]
    assert spy.calls > 0


def test_an_observer_runs_no_block(spy):
    """With an observer attached, no leader is counted and no block
    runs: the observer steps after every instruction."""
    program = _program(LOOP)
    steps = []

    def build():
        engine = _engine(program)
        engine.observer = SimpleNamespace(
            step=lambda e: steps.append(e.executed))
        return engine

    end = _both(build)
    assert spy.calls == 0 and not _blocks()
    assert not any(len(key) == 3 for key in functional._DECODE_CACHE)
    assert steps == list(range(1, end["executed"] + 1))


#: trips of the outer loop wrapped around a random program
OUTER = 8


def _looped(source: str) -> str:
    """*source* (from ``random_program``) with its random ops and its
    inner loop wrapped in an outer loop counted in r12."""
    lines = source.split("\n")
    head = 3 + len(_REGS)    # .text, _start:, la r3, one li per register
    tail = lines.index("    la   r2, out")
    assert lines[head - 1].startswith("    li   r")
    return "\n".join(lines[:head] + [f"    li   r12, {OUTER}", "outer:"]
                     + lines[head:tail]
                     + ["    addi r12, r12, -1", "    bnez r12, outer"]
                     + lines[tail:])


@settings(max_examples=12, deadline=None)
@given(source=random_program(), isa=st.sampled_from(ISA_NAMES),
       kernel=st.sampled_from(["sim", "host"]))
def test_looped_random_programs_match_the_reference(source, isa, kernel):
    program = assemble(_looped(source), isa, name="random")
    end = _both(lambda: _engine(program, kernel,
                                max_instructions=100_000))
    assert end["status"] == "completed"
    xlen = register_set(isa).xlen
    assert any(key[:2] == (xlen, program.symbols["outer"])
               and value.__class__ is tuple
               for key, value in functional._DECODE_CACHE.items()
               if len(key) == 3)


@pytest.mark.parametrize("model", ["WOI", "WI"])
@pytest.mark.parametrize("workload", ["sha", "crc32"])
def test_variants_change_no_campaign_result(monkeypatch, workload, model):
    """pvf code-flip campaigns give byte-identical results with the
    run-local variants bound and with none ever bound."""
    binds = []
    build = functional._build_block

    def counted_build(page, off, pc, regs):
        if _binds_a_variant(page, off, pc, regs):
            binds.append(pc)
        return build(page, off, pc, regs)

    def campaign() -> str:
        monkeypatch.setattr(functional, "_DECODE_CACHE", {})
        return json.dumps(run_campaign(
            workload, "cortex-a72", injector="pvf", model=model, n=32,
            seed=1, use_cache=False).to_json())

    monkeypatch.setattr(functional, "_build_block", counted_build)
    with_variants = campaign()
    assert binds
    binds.clear()
    monkeypatch.setattr(functional, "_VARIANT_FAILS", functional._NEVER)
    assert campaign() == with_variants
    assert not binds
