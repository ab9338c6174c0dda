"""Tests for the unified experiment layer (:mod:`repro.api`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.api import (
    BackendSpec,
    Experiment,
    ExperimentConfig,
    InstanceSpec,
    MinimizerSpec,
    SolverSpec,
)
from repro.api.measures import resolve_cost_measure
from repro.api.registry import (
    DuplicateNameError,
    Registry,
    UnknownNameError,
    get_backend,
    get_cipher,
    get_minimizer,
    get_partitioner,
    get_solver,
    list_backends,
    list_ciphers,
    list_cost_measures,
    list_minimizers,
    list_partitioners,
    list_solvers,
)
from repro.sat.solver import SolverStats


class TestRegistry:
    def test_register_get_and_list(self):
        registry = Registry("widget")
        registry.add("alpha", 1, description="first")
        registry.register("beta")(2)
        assert registry.get("alpha") == 1
        assert registry.get("beta") == 2
        assert registry.names() == ["alpha", "beta"]
        assert "alpha" in registry
        assert len(registry) == 2

    def test_decorator_returns_object_unchanged(self):
        registry = Registry("widget")

        @registry.register("thing")
        def factory():
            return 42

        assert factory() == 42
        assert registry.get("thing") is factory

    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.add("alpha", 1)
        with pytest.raises(DuplicateNameError):
            registry.add("alpha", 2)
        # and the original registration is untouched
        assert registry.get("alpha") == 1

    def test_duplicate_allowed_with_replace(self):
        registry = Registry("widget")
        registry.add("alpha", 1)
        registry.add("alpha", 2, replace=True)
        assert registry.get("alpha") == 2

    def test_unknown_name_is_value_error_listing_choices(self):
        registry = Registry("widget")
        registry.add("alpha", 1)
        with pytest.raises(UnknownNameError, match="alpha"):
            registry.get("nope")
        with pytest.raises(ValueError):
            registry.get("nope")

    def test_builtins_are_registered(self):
        assert "geffe-tiny" in list_ciphers()
        assert "cdcl" in list_solvers()
        assert {"tabu", "annealing", "hillclimb", "genetic"} <= set(list_minimizers())
        assert {"guiding-path", "scattering", "cube-and-conquer"} <= set(list_partitioners())
        assert {"serial", "process-pool", "simulated-cluster", "volunteer-grid"} <= set(
            list_backends()
        )
        assert {"conflicts", "decisions", "propagations", "wall_time", "weighted"} <= set(
            list_cost_measures()
        )

    def test_builtin_factories_build(self):
        generator = get_cipher("geffe-tiny")()
        assert generator.state_size > 0
        solver = get_solver("cdcl")()
        assert hasattr(solver, "solve")
        assert callable(get_minimizer("tabu"))
        assert callable(get_partitioner("scattering"))
        backend = get_backend("serial")()
        assert backend.name == "serial"

    def test_lookup_waits_for_builtins_another_thread_is_loading(self):
        # A fresh interpreter, so the built-ins are not loaded yet.  The first
        # built-in import is slowed down; a lookup from a second thread meanwhile
        # must wait for the registries to fill, not see them empty.
        script = textwrap.dedent(
            """
            import importlib, threading, time
            from repro.api import registry

            real_import = importlib.import_module
            started = threading.Event()

            def slow_import(name, package=None):
                if not started.is_set():
                    started.set()
                    time.sleep(0.5)
                return real_import(name, package)

            importlib.import_module = slow_import
            loader = threading.Thread(target=registry.list_ciphers)
            loader.start()
            assert started.wait(10)
            print(registry.get_backend("serial")().name)
            loader.join(10)
            assert not loader.is_alive()
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["serial"]


class TestCostMeasures:
    def test_stats_cost_routes_through_registry(self):
        stats = SolverStats(conflicts=1, decisions=2, propagations=3, wall_time=0.5)
        assert stats.cost("conflicts") == 1.0
        assert stats.cost("decisions") == 2.0
        assert stats.cost("propagations") == 3.0
        assert stats.cost("wall_time") == 0.5
        assert stats.cost("weighted") == 3.0 + 10.0 * 1 + 2.0 * 2
        assert resolve_cost_measure("weighted")(stats) == stats.cost("weighted")

    def test_unknown_measure_error_is_consistent(self, geffe_instance):
        from repro.core.predictive import PredictiveFunction

        stats = SolverStats()
        with pytest.raises(UnknownNameError):
            stats.cost("bogus")
        with pytest.raises(UnknownNameError):
            PredictiveFunction(geffe_instance.cnf, cost_measure="bogus")


class TestConfigRoundTrip:
    def test_default_config_round_trips(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_fully_populated_config_round_trips(self):
        cfg = ExperimentConfig(
            instance=InstanceSpec(cipher="bivium-tiny", seed=7, keystream_length=20, known_bits=2),
            solver=SolverSpec(name="cdcl", options={"var_decay": 0.9}),
            minimizer=MinimizerSpec(
                name="annealing", max_evaluations=30, max_seconds=5.0, options={"max_radius": 2}
            ),
            backend=BackendSpec(name="simulated-cluster", options={"cores": 16}),
            sample_size=25,
            cost_measure="conflicts",
            seed=3,
            decomposition=(4, 5, 6),
            decomposition_size=8,
            stop_on_sat=True,
            max_family_bits=12,
            technique="scattering",
            parts=6,
            members=4,
        )
        round_tripped = ExperimentConfig.from_dict(cfg.to_dict())
        assert round_tripped == cfg
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg
        # the JSON form is plain data
        json.loads(cfg.to_json())

    def test_decomposition_lists_normalised_to_tuples(self):
        cfg = ExperimentConfig(decomposition=[3, 1, 2])
        assert cfg.decomposition == (3, 1, 2)
        assert cfg == ExperimentConfig.from_dict(cfg.to_dict())

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentConfig keys"):
            ExperimentConfig.from_dict({"samplesize": 10})
        with pytest.raises(ValueError, match="unknown InstanceSpec keys"):
            InstanceSpec.from_dict({"cipherr": "geffe"})

    def test_replace_produces_new_config(self):
        cfg = ExperimentConfig()
        other = cfg.replace(sample_size=99)
        assert other.sample_size == 99
        assert cfg.sample_size == 50


@pytest.fixture(scope="module")
def tiny_decomposition():
    instance = InstanceSpec(cipher="geffe-tiny", seed=1).build()
    return tuple(instance.start_set[:4])


class TestExperimentFacade:
    BACKENDS = [
        ("serial", {}),
        ("process-pool", {"processes": 1}),
        ("simulated-cluster", {"cores": 4}),
        ("volunteer-grid", {"num_hosts": 4, "seed": 3}),
    ]

    def _config(self, backend: str, options: dict, decomposition) -> ExperimentConfig:
        return ExperimentConfig(
            instance=InstanceSpec(cipher="geffe-tiny", seed=1),
            backend=BackendSpec(name=backend, options=options),
            decomposition=decomposition,
            sample_size=8,
        )

    @pytest.mark.parametrize("backend,options", BACKENDS)
    def test_solve_on_every_backend(self, backend, options, tiny_decomposition):
        result = Experiment.from_config(
            self._config(backend, options, tiny_decomposition)
        ).solve()
        assert result.status == "SAT"
        assert result.data["num_subproblems"] == 2 ** len(tiny_decomposition)
        assert len(result.data["statuses"]) == result.data["num_subproblems"]
        assert result.data["recovered_state"] is not None
        json.loads(result.to_json())  # JSON-serialisable end to end

    def test_backends_agree_on_outcomes_and_costs(self, tiny_decomposition):
        baseline = None
        for backend, options in self.BACKENDS:
            result = Experiment.from_config(
                self._config(backend, options, tiny_decomposition)
            ).solve()
            observed = (result.status, result.data["statuses"], result.data["costs"])
            if baseline is None:
                baseline = observed
            else:
                assert observed == baseline

    def test_estimate_then_solve_run(self):
        cfg = ExperimentConfig(
            instance=InstanceSpec(cipher="geffe-tiny", seed=2),
            minimizer=MinimizerSpec(name="tabu", max_evaluations=5),
            sample_size=8,
            decomposition_size=4,
        )
        result = Experiment.from_config(cfg).run()
        assert result.kind == "run"
        assert result.data["estimate"]["method"] == "tabu"
        assert len(result.data["solve"]["statuses"]) <= 2**4
        assert result.status in ("SAT", "UNSAT", "UNKNOWN")

    def test_progress_events_are_emitted(self, tiny_decomposition):
        events = []
        experiment = Experiment.from_config(
            self._config("serial", {}, tiny_decomposition), progress=events.append
        )
        experiment.solve()
        phases = {event.phase for event in events}
        assert "solve" in phases
        assert any(event.completed == 2 ** len(tiny_decomposition) for event in events)

    def test_family_size_guard(self, tiny_decomposition):
        cfg = self._config("serial", {}, tiny_decomposition).replace(max_family_bits=2)
        with pytest.raises(ValueError, match="max_family_bits"):
            Experiment.from_config(cfg).solve()

    def test_stop_on_sat_truncates_identically(self, tiny_decomposition):
        runs = []
        for backend, options in [("serial", {}), ("process-pool", {"processes": 1})]:
            cfg = self._config(backend, options, tiny_decomposition).replace(stop_on_sat=True)
            result = Experiment.from_config(cfg).solve()
            runs.append(result.data["statuses"])
        assert runs[0] == runs[1]
        assert runs[0][-1] == "SAT"

    def test_partition_and_portfolio(self):
        cfg = ExperimentConfig(
            instance=InstanceSpec(cipher="geffe-tiny", seed=2),
            technique="scattering",
            parts=4,
            members=3,
        )
        experiment = Experiment.from_config(cfg)
        partition = experiment.partition(solve_parts=True)
        assert partition.kind == "partition"
        assert partition.data["num_cubes"] >= 2
        assert len(partition.data["costs"]) == partition.data["num_cubes"]
        portfolio = experiment.portfolio()
        assert portfolio.kind == "portfolio"
        assert len(portfolio.data["members"]) == 3
        assert portfolio.status == "SAT"

    def test_from_file(self, tmp_path):
        cfg = self._config("serial", {}, (4, 5))
        path = tmp_path / "exp.json"
        path.write_text(cfg.to_json())
        experiment = Experiment.from_file(path)
        assert experiment.config == cfg


class TestBackwardCompatibility:
    def test_legacy_imports_still_work(self):
        from repro import (  # noqa: F401
            CNF,
            PDSAT,
            CDCLSolver,
            DecompositionFamily,
            DecompositionSet,
            EstimationReport,
            GeneticMinimizer,
            HillClimbingMinimizer,
            PredictionResult,
            PredictiveFunction,
            SearchSpace,
            SimulatedAnnealingMinimizer,
            SolvingReport,
            TabuSearchMinimizer,
            make_inversion_instance,
            parse_dimacs,
            write_dimacs,
        )

    def test_cli_legacy_aliases(self):
        from repro.cli import CIPHER_PRESETS, METHOD_CHOICES

        assert "geffe-tiny" in CIPHER_PRESETS
        assert set(METHOD_CHOICES) == set(list_minimizers())
        generator = CIPHER_PRESETS["geffe-tiny"]()
        assert generator.state_size > 0

    def test_pdsat_estimate_unknown_method_raises_value_error(self, geffe_instance):
        from repro.core.pdsat import PDSAT

        pdsat = PDSAT(geffe_instance, sample_size=5)
        with pytest.raises(ValueError, match="unknown minimizer"):
            pdsat.estimate(method="gradient-descent")


class TestCliExperimentCommands:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for section in ("ciphers:", "solvers:", "minimizers:", "backends:", "cost-measures:"):
            assert section in output
        assert "geffe-tiny" in output

    def test_list_single_kind(self, capsys):
        from repro.cli import main

        assert main(["list", "--kind", "backends"]) == 0
        output = capsys.readouterr().out
        assert "simulated-cluster" in output
        assert "geffe-tiny" not in output

    def test_run_command(self, tmp_path, capsys):
        from repro.cli import main

        cfg = ExperimentConfig(
            instance=InstanceSpec(cipher="geffe-tiny", seed=1),
            minimizer=MinimizerSpec(name="tabu", max_evaluations=5),
            backend=BackendSpec(name="simulated-cluster", options={"cores": 4}),
            sample_size=8,
            decomposition_size=4,
        )
        config_path = tmp_path / "exp.json"
        config_path.write_text(cfg.to_json())
        out_path = tmp_path / "result.json"
        code = main(["run", "--config", str(config_path), "--output", str(out_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "solved" in output
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "run"
        assert payload["config"]["instance"]["cipher"] == "geffe-tiny"

    def test_run_command_missing_config(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--config", "/nonexistent/exp.json"])

    def test_run_command_unknown_solver_option(self, tmp_path):
        # A config naming an option CDCLConfig does not have (here
        # ``simplify``, which older configs may carry) ends the run with one
        # line on stderr.
        cfg = ExperimentConfig(
            instance=InstanceSpec(cipher="geffe-tiny", seed=1),
            solver=SolverSpec(options={"simplify": True}),
            minimizer=MinimizerSpec(max_evaluations=2),
            sample_size=4,
            decomposition_size=4,
        )
        config_path = tmp_path / "exp.json"
        config_path.write_text(cfg.to_json())
        src = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "--config", str(config_path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr.count("\n") == 1, completed.stderr
        assert "'simplify'" in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_solve_backend_flag(self, capsys):
        from repro.cli import main

        code = main(
            [
                "solve",
                "--cipher",
                "geffe-tiny",
                "--seed",
                "1",
                "--decomposition",
                "4,5,6",
                "--backend",
                "serial",
            ]
        )
        assert code == 0
        assert "sub-problems" in capsys.readouterr().out


#: A non-default solver spec: same solver, different restart schedule, so
#: different per-sub-problem costs.
TUNED_SOLVER = SolverSpec(name="cdcl", options={"restart_base": 32})


class TestCheckpointResumeFlow:
    """The --resume flag and the checkpoint_path config field, end to end."""

    def _config(self, tmp_path, **overrides) -> "ExperimentConfig":
        base = dict(
            instance=InstanceSpec(cipher="geffe-tiny", seed=1),
            backend=BackendSpec(name="serial"),
            decomposition=(1, 2, 3, 4, 5),
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_checkpoint_file_is_written_and_resumed(self, tmp_path):
        path = tmp_path / "solve.ckpt"
        cfg = self._config(tmp_path, checkpoint_path=str(path))
        first = Experiment.from_config(cfg).solve()
        assert path.exists()
        assert first.data["resumed_subproblems"] == 0

        second = Experiment.from_config(cfg).solve()
        assert second.data["resumed_subproblems"] == len(first.data["statuses"])
        assert second.data["statuses"] == first.data["statuses"]
        assert second.data["costs"] == first.data["costs"]
        assert second.status == first.status

    def test_partial_checkpoint_resumes_missing_subproblems_only(self, tmp_path):
        from repro.runner.scheduler import SchedulerCheckpoint

        path = tmp_path / "partial.ckpt"
        cfg = self._config(tmp_path, checkpoint_path=str(path))
        full = Experiment.from_config(self._config(tmp_path)).solve()

        # Keep only half the sub-problems in the checkpoint, then resume.
        Experiment.from_config(cfg).solve()
        checkpoint = SchedulerCheckpoint.load(path)
        kept = dict(sorted(checkpoint.results.items())[: len(checkpoint) // 2])
        SchedulerCheckpoint(results=kept).save(path)

        resumed = Experiment.from_config(cfg).solve()
        assert resumed.data["resumed_subproblems"] == len(kept)
        assert resumed.data["statuses"] == full.data["statuses"]
        assert resumed.data["costs"] == full.data["costs"]

    @pytest.mark.parametrize(
        "malformed",
        [lambda record: {}, lambda record: 5, lambda record: {**record, "status": "MAYBE"}],
        ids=["empty-record", "number", "unknown-status"],
    )
    def test_checkpoint_with_a_malformed_record_is_quarantined(self, tmp_path, malformed):
        from repro.runner.scheduler import SchedulerCheckpoint

        path = tmp_path / "solve.ckpt"
        cfg = self._config(tmp_path, checkpoint_path=str(path))
        first = Experiment.from_config(cfg).solve()
        checkpoint = SchedulerCheckpoint.load(path)
        task_id = next(iter(checkpoint.results))
        checkpoint.results[task_id] = malformed(checkpoint.results[task_id])
        checkpoint.save(path)

        fresh = Experiment.from_config(cfg).solve()
        assert fresh.data["resumed_subproblems"] == 0
        assert fresh.data["costs"] == first.data["costs"]
        assert (tmp_path / "solve.ckpt.corrupt").exists()
        assert SchedulerCheckpoint.load(path).metadata["completed"]

    def test_checkpoint_path_round_trips_through_json(self):
        cfg = ExperimentConfig(checkpoint_path="solve.ckpt")
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_checkpoint_from_other_solver_spec_is_rejected(self, tmp_path):
        """A checkpoint written under a non-default solver spec must not
        silently resume under the default: their per-sub-problem costs are
        incomparable."""
        path = tmp_path / "tuned.ckpt"
        tuned_cfg = self._config(
            tmp_path,
            checkpoint_path=str(path),
            solver=TUNED_SOLVER,
        )
        Experiment.from_config(tuned_cfg).solve()
        assert path.exists()

        default_cfg = self._config(tmp_path, checkpoint_path=str(path))
        with pytest.raises(ValueError, match="belongs to a different experiment"):
            Experiment.from_config(default_cfg).solve()

    def test_default_solver_checkpoint_has_no_solver_key(self, tmp_path):
        """Backward compatibility: default-spec runs omit the ``solver`` key,
        so checkpoints from before the key existed keep resuming (the same
        conditional pattern as ``preprocessor``)."""
        from repro.api import experiment_fingerprint
        from repro.runner.scheduler import SchedulerCheckpoint

        path = tmp_path / "default.ckpt"
        cfg = self._config(tmp_path, checkpoint_path=str(path))
        Experiment.from_config(cfg).solve()
        stamp = SchedulerCheckpoint.load(path).metadata["experiment"]
        assert "solver" not in stamp
        assert stamp == experiment_fingerprint(cfg, cfg.decomposition)

        # A pre-solver-key checkpoint (identical stamp) resumes cleanly.
        resumed = Experiment.from_config(cfg).solve()
        assert resumed.data["resumed_subproblems"] > 0

    def test_fingerprint_records_non_default_solver_spec(self):
        from repro.api import experiment_fingerprint

        base = self._config(None)
        tuned = self._config(None, solver=TUNED_SOLVER)
        assert "solver" not in experiment_fingerprint(base, base.decomposition)
        stamp = experiment_fingerprint(tuned, tuned.decomposition)
        assert stamp["solver"] == TUNED_SOLVER.to_dict()
        assert stamp["decomposition"] == sorted(tuned.decomposition)

    def test_run_cli_resume_flag(self, tmp_path, capsys):
        from repro.cli import main

        cfg = self._config(tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(cfg.to_json())
        checkpoint = tmp_path / "run.ckpt"

        assert main(["run", "--config", str(config_path), "--resume", str(checkpoint)]) == 0
        first = capsys.readouterr().out
        assert checkpoint.exists()
        assert "resumed" not in first

        assert main(["run", "--config", str(config_path), "--resume", str(checkpoint)]) == 0
        second = capsys.readouterr().out
        assert "resumed 32 sub-problems" in second

    def test_run_cli_backend_override(self, tmp_path, capsys):
        from repro.cli import main

        cfg = self._config(tmp_path)
        config_path = tmp_path / "exp.json"
        config_path.write_text(cfg.to_json())
        code = main(
            [
                "run", "--config", str(config_path),
                "--backend", "simulated-cluster", "--cores", "4",
            ]
        )
        assert code == 0
        assert "simulated-cluster: solved" in capsys.readouterr().out

    def test_solve_cli_resume_flag(self, tmp_path, capsys):
        from repro.cli import main

        checkpoint = tmp_path / "solve-cli.ckpt"
        argv = [
            "solve", "--cipher", "geffe-tiny", "--seed", "1",
            "--decomposition", "4,5,6", "--backend", "serial",
            "--resume", str(checkpoint),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert checkpoint.exists()
        assert main(argv) == 0
        assert "resumed 8 sub-problems" in capsys.readouterr().out


class TestPreprocessorSpec:
    """PR 5: the preprocessor registry and its spec/config plumbing."""

    def test_registry_lookup_and_listing(self):
        from repro.api import get_preprocessor, list_preprocessors

        assert "satelite" in list_preprocessors()
        preprocessor = get_preprocessor("satelite")()
        assert preprocessor.config.variable_elimination is True

    def test_spec_builds_with_options(self):
        from repro.api import PreprocessorSpec

        spec = PreprocessorSpec(name="satelite", options={"max_growth": 4})
        assert spec.build().config.max_growth == 4

    def test_spec_round_trips_through_config_json(self):
        from repro.api import ExperimentConfig, InstanceSpec, PreprocessorSpec

        cfg = ExperimentConfig(
            instance=InstanceSpec(cipher="geffe-tiny", seed=1),
            preprocessor=PreprocessorSpec(options={"max_occurrences": 12}),
        )
        clone = ExperimentConfig.from_json(cfg.to_json())
        assert clone == cfg
        assert clone.preprocessor.options == {"max_occurrences": 12}
        # Absent spec stays absent (and keeps old config files loadable).
        assert ExperimentConfig.from_dict({"instance": {"cipher": "geffe-tiny"}}).preprocessor is None

    def test_unknown_spec_keys_rejected(self):
        from repro.api import PreprocessorSpec

        with pytest.raises(ValueError, match="unknown PreprocessorSpec keys"):
            PreprocessorSpec.from_dict({"name": "satelite", "growth": 1})

    def test_experiment_run_with_preprocessor_recovers_the_state(self):
        from repro.api import Experiment, ExperimentConfig, InstanceSpec, PreprocessorSpec
        from repro.api.registry import get_cipher
        from repro.problems import make_inversion_instance

        start_set = make_inversion_instance(get_cipher("geffe-tiny")(), seed=1).start_set
        cfg = ExperimentConfig(
            instance=InstanceSpec(cipher="geffe-tiny", seed=1),
            preprocessor=PreprocessorSpec(),
            decomposition=tuple(start_set[:6]),
            sample_size=5,
        )
        raw = Experiment.from_config(cfg.replace(preprocessor=None)).run()
        simplified = Experiment.from_config(cfg).run()
        assert simplified.status == raw.status
        assert simplified.data["solve"]["statuses"] == raw.data["solve"]["statuses"]
        # The preprocessed run must still verify the recovered secret state on
        # the *original* generator (model reconstruction end to end).
        assert simplified.data["solve"]["recovered_state"] == raw.data["solve"]["recovered_state"]
        assert simplified.data["solve"]["recovered_state"] is not None

    def test_experiment_rejects_preprocessed_away_decomposition_variables(self):
        from repro.api import Experiment, ExperimentConfig, InstanceSpec, PreprocessorSpec

        # geffe-tiny's start set is variables 3..14; variables 1 and 2 are
        # keystream-adjacent and get fixed/dropped by preprocessing.  Asking
        # to decompose on them afterwards must fail loudly.
        experiment = Experiment.from_config(
            ExperimentConfig(
                instance=InstanceSpec(cipher="geffe-tiny", seed=1),
                preprocessor=PreprocessorSpec(),
                sample_size=5,
            )
        )
        with pytest.raises(ValueError, match="eliminated or fixed by preprocessing"):
            experiment.solve(decomposition=[1, 2])

    def test_pdsat_presolve_exposed(self):
        from repro.api.registry import get_cipher
        from repro.core.pdsat import PDSAT
        from repro.problems import make_inversion_instance
        from repro.sat.simplify import Preprocessor

        instance = make_inversion_instance(get_cipher("geffe-tiny")(), seed=1)
        pdsat = PDSAT(instance, sample_size=5, preprocessor=Preprocessor())
        assert pdsat.presolve is not None
        assert pdsat.cnf is pdsat.presolve.cnf
        assert pdsat.cnf.num_vars == instance.cnf.num_vars
        # Frozen contract: no start-set variable may have been eliminated.
        assert not (pdsat.presolve.eliminated_variables & set(instance.start_set))
        report = pdsat.solve_family(list(instance.start_set[:5]))
        assert report.num_sat >= 1
        for model in report.satisfying_models:
            state = instance.state_from_model(model)
            if instance.verify_state(state):
                break
        else:
            raise AssertionError("no reconstructed model verified the keystream")
