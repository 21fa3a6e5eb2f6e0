"""One ``RunConfig``: a run's options are declared, checked and reported
in one place, whichever door they come through.

The doors are :class:`LocalEngine`, ``LocalEngine.from_plan``,
:func:`resolve_backend`, the two backend constructors and ``repro run``.
These tests keep it one place: a door that re-declares an option, a rule
that one door forgets, a CLI flag that never reaches the engine or an
option that is silently dropped each fail here.
"""

import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.apps import load_application
from repro.cli import _run_config, build_parser, main
from repro.core.plan import collocated_plan
from repro.dsps.engine import LocalEngine
from repro.dsps.graph import ExecutionGraph
from repro.errors import ExecutionError
from repro.hardware import server_a, server_b
from repro.metrics import load_report
from repro.runtime import (
    DegradeContext,
    FaultPlan,
    InlineBackend,
    OverloadConfig,
    ProcessPoolBackend,
    resolve_backend,
)
from repro.runtime.config import RunConfig

FIELDS = [f.name for f in fields(RunConfig)]


@pytest.fixture(scope="module")
def wc():
    topology, profiles = load_application("wc")
    graph = ExecutionGraph(topology, {n: 1 for n in topology.components}, group_size=1)
    return topology, profiles, collocated_plan(graph)


@pytest.fixture(scope="module")
def doors(wc):
    """Every door as "build it from these options and run nothing": a
    rule may fire when the door is built or when its run starts, and
    reads the same either way."""
    topology, _, plan = wc
    spec = LocalEngine(topology).spec
    return {
        "LocalEngine": lambda **o: LocalEngine(topology, **o).run(0),
        "from_plan": lambda **o: LocalEngine.from_plan(plan, **o).run(0),
        "resolve_backend": lambda backend="process", **o: resolve_backend(
            backend, **o
        ).execute(spec, 0),
        "InlineBackend": lambda **o: InlineBackend(**o).execute(spec, 0),
        "ProcessPoolBackend": lambda **o: ProcessPoolBackend(**o).execute(spec, 0),
    }


EVERY = (
    "LocalEngine",
    "from_plan",
    "resolve_backend",
    "InlineBackend",
    "ProcessPoolBackend",
)
BY_NAME = EVERY[:3]  # doors that take a backend by name
ENGINE = EVERY[:2]  # doors that supervise and reconfigure


class TestDoorsDeclareNothingTwice:
    #: The only fields a door may name itself: its subject (a backend
    #: name *or instance*) and the engine's positional ``batch_size``.
    DOORS = {
        LocalEngine.__init__: {"backend", "batch_size"},
        LocalEngine.from_plan: {"backend"},
        resolve_backend: {"backend"},
        InlineBackend.__init__: set(),
        ProcessPoolBackend.__init__: set(),
    }

    @pytest.mark.parametrize("door", DOORS, ids=lambda door: door.__qualname__)
    def test_signature_names_no_field(self, door):
        parameters = inspect.signature(door).parameters
        assert set(parameters) & set(FIELDS) <= self.DOORS[door]
        assert any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        ), "run options arrive as **options"

    @pytest.mark.parametrize("spelled", ["its default", "None"])
    @pytest.mark.parametrize("door", EVERY)
    def test_accepts_every_field(self, door, spelled, doors):
        defaults = RunConfig()
        options = {
            name: getattr(defaults, name) if spelled == "its default" else None
            for name in FIELDS
        }
        options["backend"] = "inline"
        if door not in BY_NAME:
            del options["backend"]
        doors[door](**options)

    def test_there_are_no_more_options_than_before(self):
        assert len(FIELDS) <= 16


#: (bad options, exception, message, the doors the option exists at).
# fmt: off
RULES = [
    ({"dataplane": "rdma"}, ExecutionError, "unknown dataplane 'rdma'", EVERY),
    ({"vectorized": "turbo"}, ExecutionError, "unknown vectorized mode 'turbo'", EVERY),
    ({"backend": "threads"}, ExecutionError, "unknown backend 'threads'", BY_NAME),
    # The modes are two-valued: "on" is as unknown as "turbo", not an alias.
    ({"vectorized": "on"}, ExecutionError, "unknown vectorized mode 'on'", EVERY),
    # What the code works out is not an option: fusion follows placement,
    # and the shm plane always runs the adaptive dictionary rule.  Nor is
    # what never acted: a kernel's output crosses at its edge's cut, so
    # per-edge AIMD batch sizing had nothing left to size.
    ({"fuse": "auto"}, TypeError, "unexpected keyword argument 'fuse'", EVERY),
    ({"string_dict": "auto"}, TypeError, "unexpected keyword argument 'string_dict'", EVERY),
    ({"adaptive_batch": True}, TypeError, "unexpected keyword argument 'adaptive_batch'", EVERY),
    ({"batching": True}, TypeError, "unexpected keyword argument 'batching'", EVERY),
    ({"n_workers": 0}, ExecutionError, "n_workers must be >= 1, got 0", EVERY),
    ({"batch_size": 0}, ExecutionError, "batch_size must be >= 1, got 0", EVERY),
    ({"queue_capacity": 0}, ExecutionError, "queue_capacity must be positive, got 0", EVERY),
    ({"queue_budget": -64}, ExecutionError, "queue_budget must be positive, got -64", EVERY),
    ({"timeout_s": 0}, ExecutionError, "timeout_s must be positive, got 0", EVERY),
    ({"heartbeat_timeout_s": -1.0}, ExecutionError, "heartbeat_timeout_s must be positive, got -1.0", EVERY),
    ({"epoch_interval": 0}, ExecutionError, "epoch interval must be >= 1, got 0", ENGINE),
    ({"recovery_policy": "degrade"}, ExecutionError, "policy 'degrade' needs a DegradeContext", ENGINE),
    ({"recovery_policy": "reboot"}, ExecutionError, "unknown recovery policy 'reboot'", ENGINE),
    ({"overload": {"shed_mode": "random"}}, ExecutionError, "overload control steps at epoch barriers: pass epoch_interval", EVERY),
    ({"reconfig": object()}, ExecutionError, "live reconfiguration requires epoch barriers: pass epoch_interval", ENGINE),
    ({"bogus": 1}, TypeError, "unexpected keyword argument 'bogus'", EVERY),
]
# fmt: on


class TestEveryRuleThroughEveryDoor:
    @pytest.mark.parametrize(
        "options,error,message,through",
        RULES,
        ids=lambda value: "+".join(value) if isinstance(value, dict) else None,
    )
    def test_same_error_from_each(self, options, error, message, through, doors):
        for door in through:
            with pytest.raises(error, match=re.escape(message)) as caught:
                doors[door](**options)
            assert type(caught.value) is error, door

    def test_engine_options_lie_over_an_instance(self, wc):
        topology, _, _ = wc
        backend = ProcessPoolBackend(n_workers=2, dataplane="pickle")
        engine = LocalEngine(
            topology, backend=backend, queue_budget=512, epoch_interval=100
        )
        assert engine.backend is backend
        config = engine.config
        assert (config.backend, config.n_workers) == ("process", 2)
        assert config.dataplane == "pickle"
        assert (config.queue_budget, config.epoch_interval) == (512, 100)
        assert backend.config.epoch_interval is None  # the instance stays as built

    @pytest.mark.parametrize("option", ["n_workers", "timeout_s", "heartbeat_timeout_s"])
    def test_instance_rejects_every_executor_option(self, option, wc):
        topology, _, _ = wc
        with pytest.raises(ExecutionError, match=f"^{option}= configures"):
            LocalEngine(topology, backend=ProcessPoolBackend(), **{option: 8})


class TestNormalizedOnce:
    def test_spellings_read_back_as_configs(self):
        config = RunConfig.of(overload={"shed_mode": "random"}, epoch_interval=10)
        assert config.overload == OverloadConfig(shed_mode="random")
        assert RunConfig.of(overload=True).overload == OverloadConfig()
        assert RunConfig.of(**dict.fromkeys(FIELDS)) == RunConfig()  # None: default
        assert RunConfig.of(overload=False).overload is None

    def test_to_dict_is_json_and_repeats(self, wc):
        _, profiles, _ = wc

        def build():
            return RunConfig.of(
                backend="process",
                overload=OverloadConfig(max_lag_ms=50.0, shed_mode="random"),
                fault_plan=FaultPlan.from_cli("seed=7,kinds=crash|stall,n=2,at=100"),
                recovery_policy="degrade",
                degrade=DegradeContext(profiles=profiles, machine=server_a(2)),
                epoch_interval=100,
            ).to_dict()

        first = build()
        assert list(first) == FIELDS
        assert json.loads(json.dumps(first)) == json.loads(json.dumps(build()))
        assert " at 0x" not in json.dumps(first)
        assert first["overload"]["max_lag_ms"] == 50.0
        assert first["fault_plan"]["kinds"] == ["crash", "stall"]
        assert first["degrade"]["profiles"] == "ProfileSet"
        assert first["degrade"]["machine"] == "MachineSpec"


# ---------------------------------------------------------------------------
# repro run: flag <-> field
# ---------------------------------------------------------------------------
#: flag -> (argv that sets it, argv of the run it is compared with, the
#: fields it must change — and no other).
# fmt: off
FLAG_FIELDS = {
    "--batch-size": (["--batch-size", "32"], [], {"batch_size": 32}),
    "--backend": (["--backend", "process"], [], {"backend": "process"}),
    "--workers": (["--workers", "3"], [], {"n_workers": 3}),
    "--vectorized": (["--vectorized", "off"], [], {"vectorized": "off"}),
    "--queue-capacity": (["--queue-capacity", "128"], [], {"queue_capacity": 128}),
    "--epoch-interval": (["--epoch-interval", "250"], [], {"epoch_interval": 250}),
    "--max-lag-ms": (["--max-lag-ms", "40"], [], {"overload": OverloadConfig(max_lag_ms=40.0)}),
    "--shed": (["--shed", "semantic"], [], {"overload": OverloadConfig(shed_mode="semantic")}),
    "--shed-rate": (
        ["--shed", "random", "--shed-rate", "0.25"],
        ["--shed", "random"],
        {"overload": OverloadConfig(shed_mode="random", shed_rate=0.25)},
    ),
    "--shed-seed": (
        ["--shed", "random", "--shed-seed", "9"],
        ["--shed", "random"],
        {"overload": OverloadConfig(shed_mode="random", shed_seed=9)},
    ),
    "--inject-faults": (
        ["--inject-faults", "seed=7,kinds=crash,n=1,at=150"],
        [],
        {"fault_plan": FaultPlan(seed=7, kinds=("crash",), n_faults=1, at_tuple=150)},
    ),
    "--recovery-policy": (["--recovery-policy", "retry"], [], {"recovery_policy": "retry"}),
    "--max-restarts": (["--max-restarts", "7"], [], {"max_restarts": 7}),
    "--watchdog-timeout": (["--watchdog-timeout", "5"], [], {"heartbeat_timeout_s": 5.0}),
    # --server / --sockets select the machine degrade replans against.
    "--server": (
        ["--recovery-policy", "degrade", "--server", "B"],
        ["--recovery-policy", "degrade"],
        {"degrade": lambda degrade: degrade.machine == server_b(4)},
    ),
    "--sockets": (
        ["--recovery-policy", "degrade", "--sockets", "2"],
        ["--recovery-policy", "degrade"],
        {"degrade": lambda degrade: degrade.machine == server_a(2)},
    ),
}
# fmt: on

#: The fields no ``repro run`` flag sets, each with the caller outside
#: ``tests/`` that does.  A field with neither a flag nor a line here is
#: an option nobody can reach: delete it, do not list it.
NO_FLAG = {
    "queue_budget": "Eq. 5's per-consumer budget; benchmarks/perf passes it",
    "dataplane": "the pickle reference plane; benchmarks/perf names shm",
    "ordered": "LR parity with the inline drain order; waits on ROADMAP item 1",
    "timeout_s": "the whole-run deadline",
}

#: Flags that say *what* to run or where to report it, not how.
NOT_OPTIONS = {
    "--help", "--events", "--adapt", "--replace-threshold", "--reoptimize-threshold",
    "--rate", "--shift-at", "--shift-words", "--emit-metrics",
}  # fmt: skip


class TestFlagToField:
    @staticmethod
    def config(argv, profiles):
        args = build_parser().parse_args(["run", "wc", *argv])
        return RunConfig.of(**_run_config(args, profiles))

    def test_every_run_flag_is_accounted_for(self):
        subcommands = next(
            a for a in build_parser()._actions if a.dest == "command"
        )
        flags = {
            action.option_strings[-1]
            for action in subcommands.choices["run"]._actions
            if action.option_strings
        }
        assert flags == set(FLAG_FIELDS) | NOT_OPTIONS

    def test_every_field_has_a_flag_or_a_named_caller(self):
        flagged = {name for _, _, fields_ in FLAG_FIELDS.values() for name in fields_}
        assert not flagged & set(NO_FLAG)
        assert flagged | set(NO_FLAG) == set(FIELDS)
        assert len(NO_FLAG) == 4

    @pytest.mark.parametrize("flag", FLAG_FIELDS)
    def test_flag_changes_its_fields_and_nothing_else(self, flag, wc):
        _, profiles, _ = wc
        argv, beside, expected = FLAG_FIELDS[flag]
        before, after = self.config(beside, profiles), self.config(argv, profiles)
        changed = {
            name for name in FIELDS if getattr(before, name) != getattr(after, name)
        }
        assert changed == set(expected)
        for name, value in expected.items():
            got = getattr(after, name)
            assert value(got) if callable(value) else got == value

    def test_degrade_gets_its_context(self, wc):
        _, profiles, _ = wc
        config = self.config(
            ["--recovery-policy", "degrade", "--sockets", "2"], profiles
        )
        assert config.degrade == DegradeContext(profiles=profiles, machine=server_a(2))

    def test_defaults_are_the_configs_own(self, wc):
        _, profiles, _ = wc
        assert self.config([], profiles) == RunConfig()

    @pytest.mark.parametrize("flag", ["--fuse", "--string-dict", "--adaptive-batch"])
    def test_deleted_flags_are_argparse_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["run", "wc", flag, "auto"])
        assert caught.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Bugfixes
# ---------------------------------------------------------------------------
class TestOptionsThatUsedToDoNothing:
    SILENT = [
        "run", "wc", "--events", "50", "--backend", "process", "--workers", "2",
        "--shed", "random",
    ]  # fmt: skip

    def test_watchdog_flag_does_not_bypass_the_barrier_rule(self, capsys):
        for argv in (self.SILENT, [*self.SILENT, "--watchdog-timeout", "5"]):
            assert main(argv) == 1
            assert (
                "overload control steps at epoch barriers" in capsys.readouterr().err
            )

    def test_shed_without_barriers_reads_the_same_on_every_path(self, capsys):
        said = set()
        for extra in ([], ["--backend", "process", "--watchdog-timeout", "5"]):
            argv = ["run", "wc", "--events", "50", "--shed", "random", *extra]
            assert main(argv) == 1
            said.add(capsys.readouterr().err)
        assert len(said) == 1
        assert "overload control steps at epoch barriers" in said.pop()

    @pytest.mark.parametrize("backend", [InlineBackend, ProcessPoolBackend])
    def test_overload_without_epochs_raises_at_execute(self, backend, wc):
        topology, _, _ = wc
        spec = LocalEngine(topology).spec
        with pytest.raises(ExecutionError, match="overload control steps at epoch"):
            backend(overload=True).execute(spec, 200)


class TestReportRemembersTheConfig:
    ARGV = [
        "run", "wc", "--events", "300", "--epoch-interval", "100", "--max-lag-ms", "50",
        "--shed", "random", "--workers", "2", "--queue-capacity", "256",
        "--recovery-policy", "retry", "--max-restarts", "2", "--watchdog-timeout", "7",
        "--inject-faults", "seed=7,kinds=crash,n=1,at=150",
    ]  # fmt: skip

    def test_failed_and_finished_reports_carry_the_same_config(
        self, tmp_path, monkeypatch, capsys
    ):
        finished, failed = tmp_path / "ok.json", tmp_path / "failed.json"
        assert main([*self.ARGV, "--emit-metrics", str(finished)]) == 0

        def crash(self, max_events):
            raise ExecutionError("boom")

        monkeypatch.setattr(LocalEngine, "run", crash)
        assert main([*self.ARGV, "--emit-metrics", str(failed)]) == 1
        capsys.readouterr()
        ok, bad = load_report(finished).meta, load_report(failed).meta
        assert bad.pop("failed") is True and bad.pop("error") == "ExecutionError"
        assert bad == ok
        assert (ok["app"], ok["epoch_interval"], ok["max_lag_ms"], ok["shed"]) == (
            "wc", 100, 50.0, "random",
        )  # fmt: skip
        config = ok["config"]
        assert list(config) == sorted(FIELDS)  # reports sort their keys
        assert config["epoch_interval"] == 100
        assert (config["n_workers"], config["queue_capacity"]) == (2, 256)
        assert (config["recovery_policy"], config["max_restarts"]) == ("retry", 2)
        assert config["heartbeat_timeout_s"] == 7.0
        assert config["fault_plan"]["at_tuple"] == 150
        assert config["overload"]["shed_mode"] == "random"

    def test_a_run_that_never_got_an_engine_says_so(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        argv = ["run", "wc", "--shed", "random", "--emit-metrics", str(target)]
        assert main(argv) == 1
        capsys.readouterr()
        meta = load_report(target).meta
        assert meta["failed"] is True and meta["config"] is None
        assert meta["shed"] == "random"


# ---------------------------------------------------------------------------
# Docs: one options table
# ---------------------------------------------------------------------------
def test_docs_options_table_lists_exactly_the_fields():
    page = Path(__file__).resolve().parent.parent / "docs" / "runtime.md"
    section = page.read_text().split("## Run options", 1)[1].split("\n## ", 1)[0]
    rows = [
        line.split("|")[1].strip().strip("`")
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert rows == FIELDS
