"""Command IR: builder, engine mapping, validation, barriers."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.program import (
    ENGINES,
    KINDS,
    Command,
    CommandKind,
    Engine,
    Program,
    ProgramBuilder,
)


class TestEngineMapping:
    @pytest.mark.parametrize(
        "kind,engine",
        [
            (CommandKind.LOAD_INPUT, Engine.LOAD),
            (CommandKind.LOAD_WEIGHT, Engine.LOAD),
            (CommandKind.HALO_RECV, Engine.LOAD),
            (CommandKind.COMPUTE, Engine.COMPUTE),
            (CommandKind.STORE_OUTPUT, Engine.STORE),
            (CommandKind.HALO_SEND, Engine.STORE),
            (CommandKind.BARRIER, Engine.CTRL),
        ],
    )
    def test_kind_to_engine(self, kind, engine):
        cmd = Command(cid=0, core=0, kind=kind)
        assert cmd.engine is engine

    def test_is_dma(self):
        assert Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT).is_dma
        assert not Command(cid=0, core=0, kind=CommandKind.COMPUTE).is_dma
        assert not Command(cid=0, core=0, kind=CommandKind.BARRIER).is_dma


class TestBuilder:
    def test_sequential_ids(self):
        b = ProgramBuilder(2)
        a = b.add(0, CommandKind.LOAD_INPUT, num_bytes=10)
        c = b.add(1, CommandKind.COMPUTE, macs=5)
        assert (a, c) == (0, 1)

    def test_deps_deduped_and_sorted(self):
        b = ProgramBuilder(1)
        x = b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        y = b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        z = b.add(0, CommandKind.COMPUTE, deps=[y, x, x], macs=1)
        assert b.build().command(z).deps == (x, y)

    def test_tail_tracking(self):
        b = ProgramBuilder(2)
        assert b.tail(0, Engine.LOAD) is None
        x = b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        assert b.tail(0, Engine.LOAD) == x
        assert b.tail(0, Engine.COMPUTE) is None

    def test_barrier_emits_one_per_core(self):
        b = ProgramBuilder(3)
        for core in range(3):
            b.add(core, CommandKind.COMPUTE, macs=1)
        cids = b.barrier(cycles=100.0)
        assert len(cids) == 3
        program = b.build()
        for cid in cids:
            cmd = program.command(cid)
            assert cmd.kind is CommandKind.BARRIER
            assert cmd.cycles == 100.0
            # every barrier command depends on the pre-barrier frontier,
            # not on sibling barrier commands.
            assert set(cmd.deps) == {0, 1, 2}

    def test_frontier_spans_engines(self):
        b = ProgramBuilder(1)
        l = b.add(0, CommandKind.LOAD_INPUT, num_bytes=1)
        c = b.add(0, CommandKind.COMPUTE, macs=1)
        s = b.add(0, CommandKind.STORE_OUTPUT, num_bytes=1)
        assert b.frontier() == [l, c, s]


class TestValidation:
    def test_forward_dep_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, macs=1),
            ],
        )
        with pytest.raises(ValueError):
            program.validate()

    def test_bad_core_rejected(self):
        program = Program(
            num_cores=1,
            commands=[Command(cid=0, core=3, kind=CommandKind.COMPUTE, macs=1)],
        )
        with pytest.raises(ValueError):
            program.validate()

    def test_non_dense_ids_rejected(self):
        program = Program(
            num_cores=1,
            commands=[Command(cid=5, core=0, kind=CommandKind.COMPUTE, macs=1)],
        )
        with pytest.raises(ValueError):
            program.validate()

    def test_negative_payload_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT, num_bytes=-1)
            ],
        )
        with pytest.raises(ValueError):
            program.validate()

    def test_self_dep_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
            ],
        )
        with pytest.raises(ValueError, match="depends on itself"):
            program.validate()

    def test_dangling_dep_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, deps=(7,), macs=1),
            ],
        )
        with pytest.raises(ValueError, match="dangling"):
            program.validate()

    def test_duplicate_dep_entries_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(
                    cid=1, core=0, kind=CommandKind.COMPUTE, deps=(0, 0), macs=1
                ),
            ],
        )
        with pytest.raises(ValueError, match="duplicate dependency"):
            program.validate()

    def test_duplicate_cid_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
            ],
        )
        with pytest.raises(ValueError, match="dense"):
            program.validate()

    def test_negative_cycles_rejected(self):
        program = Program(
            num_cores=1,
            commands=[
                Command(cid=0, core=0, kind=CommandKind.BARRIER, cycles=-1.0)
            ],
        )
        with pytest.raises(ValueError, match="negative cycles"):
            program.validate()

    def test_payload_on_wrong_kind_rejected(self):
        for cmd in (
            Command(cid=0, core=0, kind=CommandKind.COMPUTE, num_bytes=8),
            Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT, macs=8),
            Command(cid=0, core=0, kind=CommandKind.BARRIER, num_bytes=8),
        ):
            program = Program(num_cores=1, commands=[cmd])
            with pytest.raises(ValueError, match="carries"):
                program.validate()


def _walk_violation(program):
    """The per-command validation walk the index replaced (verbatim
    rules and messages): the first violation's message, or ``None``."""
    n = len(program.commands)
    for i, cmd in enumerate(program.commands):
        if cmd.cid != i:
            return f"command id {cmd.cid} at position {i} (ids must be dense and unique)"
        if not 0 <= cmd.core < program.num_cores:
            return f"{cmd}: bad core index"
        if len(set(cmd.deps)) != len(cmd.deps):
            return f"{cmd}: duplicate dependency entries"
        for dep in cmd.deps:
            if dep == cmd.cid:
                return f"{cmd}: depends on itself"
            if dep < 0:
                return f"{cmd}: negative dependency"
            if dep >= n:
                return f"{cmd}: dangling dependency {dep}"
            if dep > cmd.cid:
                return f"{cmd}: dependency {dep} is not earlier"
        if cmd.cycles < 0:
            return f"{cmd}: negative cycles"
        if cmd.is_dma:
            if cmd.num_bytes < 0:
                return f"{cmd}: negative bytes"
            if cmd.macs:
                return f"{cmd}: DMA command carries MACs"
        elif cmd.kind is CommandKind.COMPUTE:
            if cmd.macs < 0:
                return f"{cmd}: negative macs"
            if cmd.num_bytes:
                return f"{cmd}: compute command carries bytes"
        elif cmd.kind is CommandKind.BARRIER:
            if cmd.num_bytes or cmd.macs:
                return f"{cmd}: barrier carries a payload"
    return None


def _mutate(draw, cmd, n, num_cores):
    """One random defect (or a harmless reshuffle) applied to ``cmd``."""
    kind = draw(
        st.sampled_from(
            [
                "unsorted", "duplicate", "self", "negative", "dangling", "forward",
                "core", "bytes", "macs", "cycles", "negative_payload", "cid",
            ]
        )
    )
    deps = cmd.deps
    if kind == "unsorted":
        return dataclasses.replace(cmd, deps=tuple(reversed(deps)))
    if kind == "duplicate" and deps:
        return dataclasses.replace(cmd, deps=deps + (draw(st.sampled_from(deps)),))
    if kind == "self":
        return dataclasses.replace(cmd, deps=deps + (cmd.cid,))
    if kind == "negative":
        return dataclasses.replace(cmd, deps=(draw(st.integers(-3, -1)),) + deps)
    if kind == "dangling":
        return dataclasses.replace(cmd, deps=deps + (n + draw(st.integers(0, 3)),))
    if kind == "forward" and cmd.cid + 1 < n:
        return dataclasses.replace(cmd, deps=deps + (draw(st.integers(cmd.cid + 1, n - 1)),))
    if kind == "core":
        bad = draw(st.sampled_from([-1, num_cores, num_cores + 2]))
        return dataclasses.replace(cmd, core=bad)
    if kind == "bytes":
        return dataclasses.replace(cmd, num_bytes=draw(st.integers(1, 64)))
    if kind == "macs":
        return dataclasses.replace(cmd, macs=draw(st.integers(1, 64)))
    if kind == "cycles":
        return dataclasses.replace(cmd, cycles=-draw(st.floats(0.5, 10.0)))
    if kind == "negative_payload":
        field = draw(st.sampled_from(["num_bytes", "macs"]))
        return dataclasses.replace(cmd, **{field: -draw(st.integers(1, 9))})
    if kind == "cid":
        return dataclasses.replace(cmd, cid=draw(st.integers(-1, n + 1)))
    return cmd


@st.composite
def mutated_programs(draw):
    """A valid builder program (possibly empty or one command) with up
    to three random defects."""
    num_cores = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    builder = ProgramBuilder(num_cores)
    for i in range(n):
        kind = draw(st.sampled_from(KINDS))
        deps = draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else []
        builder.add(
            draw(st.integers(0, num_cores - 1)),
            kind,
            deps=deps,
            num_bytes=draw(st.integers(0, 64)) if kind.is_dma else 0,
            macs=draw(st.integers(0, 64)) if kind is CommandKind.COMPUTE else 0,
            cycles=draw(st.sampled_from([0.0, 5.0])),
        )
    commands = list(builder._commands)
    for _ in range(draw(st.integers(0, 3)) if commands else 0):
        pos = draw(st.integers(0, n - 1))
        commands[pos] = _mutate(draw, commands[pos], n, num_cores)
    return Program(num_cores=num_cores, commands=commands)


class TestIndexValidation:
    """``validate()`` is building the :class:`ProgramIndex`: its array
    checks must reject exactly what the per-command walk rejected, with
    the walk's message for the first ill-formed command."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_programs())
    def test_raises_exactly_when_the_walk_does(self, program):
        expected = _walk_violation(program)
        if expected is None:
            program.validate()
        else:
            with pytest.raises(ValueError) as info:
                program.validate()
            assert str(info.value) == expected

    def test_columns_mirror_the_commands(self):
        b = ProgramBuilder(2)
        a = b.add(0, CommandKind.LOAD_INPUT, num_bytes=10)
        c = b.add(1, CommandKind.COMPUTE, deps=[a], macs=7)
        b.barrier(3.0)
        b.add(0, CommandKind.STORE_OUTPUT, deps=[c, a], num_bytes=4, cycles=2.0)
        program = b.build()
        index = program.index()
        cmds = program.commands
        assert [KINDS[k] for k in index.kind] == [x.kind for x in cmds]
        assert [ENGINES[e] for e in index.engine] == [x.engine for x in cmds]
        assert index.core.tolist() == [x.core for x in cmds]
        assert index.num_bytes.tolist() == [x.num_bytes for x in cmds]
        assert index.macs.tolist() == [x.macs for x in cmds]
        assert index.cycles.tolist() == [x.cycles for x in cmds]
        ptr, flat = index.dep_ptr.tolist(), index.dep_flat.tolist()
        assert [tuple(flat[ptr[i]:ptr[i + 1]]) for i in range(len(cmds))] == [
            x.deps for x in cmds
        ]

    def test_cached_until_the_command_list_changes(self):
        b = ProgramBuilder(2)
        b.add(1, CommandKind.COMPUTE, macs=1)
        program = b.build()
        index = program.index()
        assert program.index() is index
        program.commands.append(Command(cid=1, core=0, kind=CommandKind.COMPUTE))
        grown = program.index()
        assert grown is not index and grown.num_commands == 2
        program.commands = list(program.commands)
        assert program.index() is not grown
        program.num_cores = 1
        with pytest.raises(ValueError, match="bad core index"):
            program.validate()

    @pytest.mark.parametrize(
        "cmd,field",
        [
            (Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT, num_bytes=2**70), "num_bytes"),
            (Command(cid=0, core=2**64, kind=CommandKind.COMPUTE), "core"),
            (Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(-(2**70),)), "deps"),
        ],
        ids=["bytes", "core", "deps"],
    )
    def test_fields_beyond_64_bits_are_named_errors(self, cmd, field):
        with pytest.raises(ValueError, match=f"{field} do.* not fit in 64 bits"):
            Program(num_cores=1, commands=[cmd]).validate()

    def test_index_holds_no_reference_to_the_program(self):
        import gc

        b = ProgramBuilder(1)
        b.add(0, CommandKind.COMPUTE, macs=1)
        program = b.build()
        referents = gc.get_referents(program.index())
        assert not any(r is program or r is program.commands for r in referents)


class TestAggregates:
    def build_program(self):
        b = ProgramBuilder(2)
        b.add(0, CommandKind.LOAD_INPUT, num_bytes=100, layer="a")
        b.add(0, CommandKind.COMPUTE, macs=50, layer="a")
        b.add(0, CommandKind.STORE_OUTPUT, num_bytes=40, layer="a")
        b.add(1, CommandKind.LOAD_WEIGHT, num_bytes=30, layer="a")
        return b.build()

    def test_total_macs(self):
        assert self.build_program().total_macs() == 50

    def test_total_bytes(self):
        p = self.build_program()
        assert p.total_bytes() == 170
        assert p.total_bytes([CommandKind.LOAD_INPUT]) == 100

    def test_core_bytes(self):
        p = self.build_program()
        assert p.core_bytes(0) == 140
        assert p.core_bytes(1) == 30

    def test_count(self):
        assert self.build_program().count(CommandKind.COMPUTE) == 1

    def test_per_engine_queue_order(self):
        p = self.build_program()
        queues = p.per_engine_queues()
        load_q = queues[(0, Engine.LOAD)]
        assert [c.cid for c in load_q] == [0]
