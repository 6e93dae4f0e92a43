"""Structure pass: RPR2xx on hand-built broken programs."""

import pytest

from repro.compiler.program import Command, CommandKind, Program
from repro.models import ZOO
from repro.verify import Severity, check_structure
from repro.verify import structure

from tests.sim.test_scheduler_equivalence import CONFIGS, _program_for


def prog(*commands, num_cores=2):
    return Program(num_cores=num_cores, commands=list(commands))


def codes(result):
    return sorted({d.code for d in result.diagnostics})


class TestWellFormed:
    def test_clean_program(self):
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.LOAD_INPUT, num_bytes=4),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, deps=(0,), macs=8),
                Command(
                    cid=2, core=0, kind=CommandKind.STORE_OUTPUT, deps=(1,), num_bytes=4
                ),
            )
        )
        assert result.ok and not result.diagnostics
        assert result.stats["commands"] == 3
        assert result.stats["edges"] == 2

    def test_duplicate_cid(self):
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
            )
        )
        assert "RPR204" in codes(result)

    def test_bad_core(self):
        result = check_structure(
            prog(Command(cid=0, core=5, kind=CommandKind.COMPUTE, macs=1))
        )
        assert "RPR205" in codes(result)

    def test_self_dep(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(0,), macs=1))
        )
        assert "RPR202" in codes(result)

    def test_dangling_dep(self):
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(9,), macs=1)
            )
        )
        assert "RPR201" in codes(result)
        assert not result.ok

    def test_forward_dep_is_warning(self):
        # A forward edge to a command on a *different* queue is suspicious
        # but executable; the pass flags it without failing the program.
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=0, kind=CommandKind.LOAD_INPUT, num_bytes=4),
            )
        )
        forward = [d for d in result.diagnostics if d.code == "RPR201"]
        assert forward and all(d.severity is Severity.WARNING for d in forward)


class TestPayloads:
    def test_bytes_on_compute(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.COMPUTE, num_bytes=4))
        )
        assert "RPR206" in codes(result)

    def test_macs_on_dma(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.LOAD_WEIGHT, macs=4))
        )
        assert "RPR206" in codes(result)

    def test_payload_on_barrier(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.BARRIER, num_bytes=4))
        )
        assert "RPR206" in codes(result)

    def test_negative_cycles(self):
        result = check_structure(
            prog(Command(cid=0, core=0, kind=CommandKind.BARRIER, cycles=-2.0))
        )
        assert "RPR206" in codes(result)


class TestDeadlock:
    def test_queue_cycle_detected(self):
        # Two commands share the compute queue of core 0: #0 is ahead of
        # #1 in program order but depends on it -- #0 waits for #1 to
        # complete while #1 waits behind #0 at the queue head.  Deadlock.
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, macs=1),
            )
        )
        assert "RPR203" in codes(result)
        assert not result.ok

    def test_cross_queue_forward_dep_no_cycle(self):
        # The same forward edge across two different queues does not
        # deadlock: the load can run first.
        result = check_structure(
            prog(
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=1, kind=CommandKind.COMPUTE, macs=1),
            )
        )
        assert "RPR203" not in codes(result)


class TestKahnShortcut:
    """Kahn's sort runs only when position order might not be a
    topological order (see ``structure._ordered_forward``)."""

    def test_forward_edges_only_skip_the_sort(self):
        ordered = prog(
            Command(cid=0, core=0, kind=CommandKind.COMPUTE, macs=1),
            Command(cid=1, core=0, kind=CommandKind.COMPUTE, deps=(0, -3), macs=1),
        )
        assert structure._ordered_forward(ordered)

    @pytest.mark.parametrize(
        "commands",
        [
            # a forward dependency
            (
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
                Command(cid=1, core=1, kind=CommandKind.COMPUTE, macs=1),
            ),
            # a self dependency
            (Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(0,), macs=1),),
            # ids that are not positions
            (
                Command(cid=1, core=0, kind=CommandKind.COMPUTE, macs=1),
                Command(cid=0, core=0, kind=CommandKind.COMPUTE, deps=(1,), macs=1),
            ),
        ],
        ids=["forward", "self", "permuted"],
    )
    def test_anything_else_runs_the_sort(self, commands):
        assert not structure._ordered_forward(prog(*commands))

    @pytest.mark.parametrize("options", CONFIGS, ids=[o.label for o in CONFIGS])
    @pytest.mark.parametrize("model", [m.name for m in ZOO])
    def test_zoo_result_identical_with_and_without_shortcut(
        self, model, options, monkeypatch
    ):
        program, _ = _program_for(model, options)
        assert structure._ordered_forward(program)
        shortcut = check_structure(program)
        monkeypatch.setattr(structure, "_ordered_forward", lambda program: False)
        assert check_structure(program) == shortcut
