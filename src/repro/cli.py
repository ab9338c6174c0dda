"""Command-line interface: a thin argparse shell over :mod:`repro.api`.

Every sub-command builds an :class:`~repro.api.ExperimentConfig` from its flags
and hands it to the :class:`~repro.api.Experiment` facade; cipher presets,
metaheuristics, partitioning techniques, execution backends and cost measures
all come from the registries, so components registered by user code are
immediately addressable from the command line.

Sub-commands:

* ``list``      — show every registered component (ciphers, solvers,
  minimizers, partitioners, backends, cost measures);
* ``generate``  — build a keystream-inversion instance and write it as DIMACS;
* ``estimate``  — run the estimating mode (predictive-function minimisation);
* ``solve``     — run the solving mode on a given (or freshly estimated)
  decomposition set through a chosen execution backend;
* ``run``       — execute a full experiment described by a JSON config file;
* ``bench``     — benchmark the batched Monte Carlo estimation engine against
  the per-sample baseline and write a ``BENCH_*.json`` trajectory file;
* ``simplify``  — apply the SatELite-style preprocessor to a cipher instance
  or to any DIMACS file (``--input``), with per-rule reduction stats and
  frozen-variable support;
* ``partition`` — build a classical partitioning of an instance;
* ``portfolio`` — race the diversified CDCL portfolio;
* ``trace``     — the observability toolkit (:mod:`repro.trace`):
  ``trace record`` runs solve/simplify/estimate with binary event tracing,
  ``trace stats`` summarizes a trace, ``trace diff`` compares two traces
  (exit 1 on divergence — the CI determinism gate), ``trace export`` converts
  one to JSONL/CSV;
* ``serve``     — run the estimation-as-a-service job daemon
  (:mod:`repro.service`): an async job queue over a local socket with a
  content-addressed result cache, per-tenant quotas and checkpointed
  restart/resume (see ``docs/service.md``);
* ``submit`` / ``status`` / ``result`` / ``cancel`` — the matching client:
  submit an ``ExperimentConfig`` JSON as a job (``--watch`` streams progress,
  ``--attach-trace`` records a binary event trace, ``--max-seconds`` /
  ``--max-conflicts`` / ``--max-rss-mb`` attach a resource budget,
  ``--retries`` retries retriable errors with backoff), inspect jobs, fetch
  archived results, cancel queued/running work;
* ``chaos``     — run the seeded fault-injection scenarios from
  :mod:`repro.service.chaos` (worker crashes, hung jobs, corrupt journals,
  truncated checkpoints, dropped connections, kill -9 restarts) and check the
  service converges to bit-identical results (see ``docs/robustness.md``).

Examples::

    repro-sat list
    repro-sat generate --cipher geffe-tiny --seed 1 --output geffe.cnf
    repro-sat estimate --cipher bivium-small --seed 1 --method tabu --max-evaluations 60
    repro-sat solve --cipher geffe-tiny --seed 1 --decomposition-size 10 --cores 8
    repro-sat run --config exp.json --output result.json
    repro-sat run --config exp.json --backend process-pool --cores 4 --resume run.ckpt
    repro-sat bench --cipher a51-tiny --seed 3 --decomposition-size 8 --sample-size 100
    repro-sat portfolio --cipher bivium-tiny --seed 1 --sharing --portfolio tiny-4
    repro-sat simplify --cipher bivium-tiny --seed 1
    repro-sat simplify --input hard.cnf --frozen 1,2,3 --output hard.simplified.cnf
    repro-sat partition --cipher bivium-tiny --technique scattering --parts 8
    repro-sat portfolio --cipher bivium-tiny --seed 1
    repro-sat trace record --cipher bivium-tiny --seed 1 --mode estimate --trace-out run.trc
    repro-sat trace stats run.trc
    repro-sat trace diff run.trc other.trc
    repro-sat trace export run.trc --format csv --output run.csv
    repro-sat serve --state-dir service-state --workers 4 --max-active-per-tenant 8
    repro-sat submit --config exp.json --mode run --socket service-state/daemon.sock --watch
    repro-sat status --socket service-state/daemon.sock
    repro-sat result JOB_ID --wait --socket service-state/daemon.sock
    repro-sat cancel JOB_ID --socket service-state/daemon.sock
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.api import (
    BackendSpec,
    EstimatorSpec,
    Experiment,
    ExperimentConfig,
    InstanceSpec,
    MinimizerSpec,
    SharingSpec,
    UnknownNameError,
)
from repro.api.registry import (
    BACKENDS,
    CIPHERS,
    COST_MEASURES,
    MINIMIZERS,
    PARTITIONERS,
    PORTFOLIOS,
    PREPROCESSORS,
    SOLVERS,
    get_cipher,
    get_cost_measure,
    list_ciphers,
    list_minimizers,
)
from repro.ciphers.keystream import KeystreamGenerator
from repro.sat.dimacs import write_dimacs_file


def _method_choices() -> tuple[str, ...]:
    """Metaheuristics accepted by ``estimate`` / ``solve`` (registry-backed)."""
    return tuple(list_minimizers())


def _cipher_presets() -> dict[str, object]:
    """Cipher presets addressable from the command line (registry-backed)."""
    return {name: get_cipher(name) for name in list_ciphers()}


#: Deprecated alias kept for backward compatibility — the cipher registry is
#: the source of truth (``repro.api.registry.CIPHERS``).
CIPHER_PRESETS: dict[str, object] = _cipher_presets()

#: Deprecated alias kept for backward compatibility — the minimizer registry is
#: the source of truth (``repro.api.registry.MINIMIZERS``).
METHOD_CHOICES = _method_choices()


def _make_generator(name: str) -> KeystreamGenerator:
    try:
        factory = get_cipher(name)
    except UnknownNameError as error:
        raise SystemExit(str(error)) from None
    return factory()  # type: ignore[operator]


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cipher",
        default="geffe-tiny",
        help="cipher preset from the registry (see `repro-sat list`)",
    )
    parser.add_argument("--seed", type=int, default=0, help="secret-state seed")
    parser.add_argument(
        "--keystream-length", type=int, default=None, help="observed keystream bits"
    )
    parser.add_argument(
        "--known-bits",
        type=int,
        default=0,
        help="weakening: number of revealed trailing cells of the last register",
    )


def _instance_spec(args: argparse.Namespace) -> InstanceSpec:
    return InstanceSpec(
        cipher=args.cipher,
        seed=args.seed,
        keystream_length=args.keystream_length,
        known_bits=args.known_bits,
    )


def _experiment(args: argparse.Namespace, **overrides) -> Experiment:
    """Build the facade from the common CLI flags plus per-command overrides."""
    config = ExperimentConfig(
        instance=_instance_spec(args),
        estimator=EstimatorSpec(
            sample_size=getattr(args, "sample_size", 50),
            cost_measure=getattr(args, "cost_measure", "propagations"),
            incremental=not getattr(args, "no_incremental", False),
            batch_size=getattr(args, "batch_size", 1),
        ),
        seed=args.seed,
        **overrides,
    )
    try:
        # Fail fast on a bad measure name (the estimator spec is the single
        # source of truth for the measure the run will actually use).
        get_cost_measure(config.effective_estimator().cost_measure)
        experiment = Experiment.from_config(config)
        experiment.instance  # materialise now so bad cipher names exit cleanly
    except UnknownNameError as error:
        raise SystemExit(str(error)) from None
    return experiment


def _cmd_list(args: argparse.Namespace) -> int:
    registries = {
        "ciphers": CIPHERS,
        "solvers": SOLVERS,
        "minimizers": MINIMIZERS,
        "partitioners": PARTITIONERS,
        "backends": BACKENDS,
        "preprocessors": PREPROCESSORS,
        "portfolios": PORTFOLIOS,
        "cost-measures": COST_MEASURES,
    }
    selected = registries if args.kind == "all" else {args.kind: registries[args.kind]}
    for kind, registry in selected.items():
        print(f"{kind}:")
        for entry in registry.entries():
            description = f"  {entry.description}" if entry.description else ""
            print(f"  {entry.name:18s}{description}")
    return 0


def _cmd_list_ciphers(_: argparse.Namespace) -> int:
    for name in list_ciphers():
        generator = _make_generator(name)
        print(
            f"{name:14s} state = {generator.state_size:4d} bits, "
            f"registers = {generator.registers()}"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    instance = _experiment(args).instance
    print(instance.summary())
    if args.output:
        write_dimacs_file(instance.cnf, args.output)
        print(f"wrote DIMACS to {args.output}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    experiment = _experiment(
        args,
        minimizer=MinimizerSpec(
            name=args.method,
            max_evaluations=args.max_evaluations,
            max_seconds=args.max_seconds,
        ),
    )
    print(experiment.instance.summary())
    result = experiment.estimate()
    print(result.summary)
    print(f"X_best = {result.data['best_decomposition']}")
    if args.cores > 1:
        print(
            f"predicted on {args.cores} cores: "
            f"{result.data['best_value'] / args.cores:.4g}"
        )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    decomposition = None
    if args.decomposition:
        decomposition = tuple(int(v) for v in args.decomposition.split(","))
    experiment = _experiment(
        args,
        minimizer=MinimizerSpec(
            name=args.method,
            max_evaluations=args.max_evaluations,
            max_seconds=args.max_seconds,
        ),
        backend=BackendSpec(name=args.backend, options=_backend_options(args)),
        decomposition=decomposition,
        decomposition_size=args.decomposition_size,
        stop_on_sat=args.stop_on_sat,
        max_family_bits=args.max_family_bits,
        checkpoint_path=args.resume,
    )
    print(experiment.instance.summary())
    try:
        result = experiment.run()
    except ValueError as error:
        raise SystemExit(str(error)) from None
    estimate = result.data["estimate"]
    if estimate is not None:
        print(
            f"[{experiment.instance.name}] {estimate['method']}: "
            f"F_best = {estimate['best_value']:.4g} ({estimate['cost_measure']}), "
            f"|X_best| = {len(estimate['best_decomposition'])}"
        )
    solve = result.data["solve"]
    print(result.summary)
    if solve.get("resumed_subproblems"):
        print(
            f"resumed {solve['resumed_subproblems']} sub-problems from "
            f"{solve['checkpoint_path']}"
        )
    metadata = solve["backend_metadata"]
    if "makespan" in metadata:
        print(
            f"makespan on {metadata['cores']} simulated cores: {metadata['makespan']:.4g} "
            f"(efficiency {metadata['efficiency']:.2f})"
        )
    if solve["recovered_state"]:
        print(f"recovered state verified: {solve['recovered_state']}")
    return 0


def _backend_options(args: argparse.Namespace) -> dict[str, object]:
    if args.backend == "simulated-cluster":
        return {"cores": args.cores}
    if args.backend == "process-pool":
        return {"processes": args.cores}
    return {}


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.config)
    if not path.exists():
        raise SystemExit(f"config file not found: {path}")
    try:
        experiment = Experiment.from_file(path, progress=print if args.verbose else None)
    except (ValueError, KeyError) as error:
        raise SystemExit(f"invalid experiment config {path}: {error}") from None
    overrides: dict[str, object] = {}
    if args.backend is not None or args.cores is not None:
        name = args.backend or experiment.config.backend.name
        # Options from the config only carry over when the backend is unchanged.
        options: dict[str, object] = (
            dict(experiment.config.backend.options)
            if name == experiment.config.backend.name
            else {}
        )
        if args.cores is not None:
            worker_key = {"process-pool": "processes", "simulated-cluster": "cores"}.get(name)
            if worker_key is None:
                raise SystemExit(
                    f"--cores is not supported by the {name!r} backend "
                    f"(use process-pool or simulated-cluster)"
                )
            options[worker_key] = args.cores
        overrides["backend"] = BackendSpec(name=name, options=options)
    if args.resume is not None:
        overrides["checkpoint_path"] = args.resume
    if args.portfolio_sharing and experiment.config.sharing is None:
        # Opt into clause sharing with every knob at its default when the
        # config file carries no sharing block of its own.
        overrides["sharing"] = SharingSpec()
    if overrides:
        experiment = Experiment.from_config(
            experiment.config.replace(**overrides),
            progress=print if args.verbose else None,
        )
    print(experiment.instance.summary())
    if args.portfolio_sharing:
        # Race the clause-sharing portfolio instead of the estimate+solve
        # pipeline; export/import counters land in the result metadata.
        try:
            result = experiment.portfolio()
        except ValueError as error:
            raise SystemExit(str(error)) from None
        print(result.summary)
        print(
            f"rounds {result.data['rounds_executed']}, "
            f"decided in round {result.data['decided_round']}, "
            f"{result.data['exported']} exported / {result.data['imported']} imported"
        )
        if args.output:
            Path(args.output).write_text(result.to_json())
            print(f"wrote result JSON to {args.output}")
        return 0
    try:
        result = experiment.run()
    except ValueError as error:  # bad component names, family-size guard, ...
        raise SystemExit(str(error)) from None
    print(result.summary)
    solve = result.data["solve"]
    if solve.get("resumed_subproblems"):
        print(
            f"resumed {solve['resumed_subproblems']} sub-problems from "
            f"{solve['checkpoint_path']}"
        )
    if solve["recovered_state"]:
        print(f"recovered state verified: {solve['recovered_state']}")
    if args.output:
        Path(args.output).write_text(result.to_json())
        print(f"wrote result JSON to {args.output}")
    return 0


def _json_safe(value):
    """Replace non-finite floats with None so the emitted JSON is RFC-8259 valid."""
    if isinstance(value, dict):
        return {key: _json_safe(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [_json_safe(inner) for inner in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _default_checkpoints(sample_size: int) -> list[int]:
    """Doubling sample-size checkpoints ``1, 2, 4, ...`` ending at ``sample_size``."""
    marks = []
    n = 1
    while n < sample_size:
        marks.append(n)
        n *= 2
    marks.append(sample_size)
    return marks


def _cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark the batched estimation engine and emit a ``BENCH_*.json`` file."""
    import dataclasses

    from repro.sat.solver import SolverStatus
    from repro.stats.montecarlo import estimate_trajectory

    if args.decomposition_size < 1:
        raise SystemExit("--decomposition-size must be at least 1")
    if args.sample_size < 1:
        raise SystemExit("--sample-size must be at least 1")
    if args.verify_batch < 0:
        raise SystemExit("--verify-batch must be non-negative (0 skips the check)")
    if args.checkpoints:
        try:
            checkpoints = [int(n) for n in args.checkpoints.split(",")]
        except ValueError:
            raise SystemExit(
                f"--checkpoints must be comma-separated integers, got {args.checkpoints!r}"
            ) from None
        if any(n < 1 or n > args.sample_size for n in checkpoints):
            raise SystemExit(
                f"--checkpoints must lie in 1..{args.sample_size} (the sample size)"
            )
    else:
        checkpoints = _default_checkpoints(args.sample_size)

    instance = _experiment(args).instance
    print(instance.summary())
    decomposition = instance.start_set[: args.decomposition_size]
    d = len(decomposition)
    spec = EstimatorSpec(
        sample_size=args.sample_size,
        cost_measure=args.cost_measure,
        incremental=not args.no_incremental,
        sample_cache_size=args.cache_size,
        max_conflicts_per_sample=args.max_conflicts_per_sample,
    )

    # --- the batched engine -------------------------------------------------
    engine = spec.build(instance.cnf, seed=args.seed)
    started = time.perf_counter()
    engine_result = engine.evaluate(decomposition)
    engine_time = time.perf_counter() - started
    print(
        f"engine:   {engine_time:8.3f}s  {engine_result.summary()}  "
        f"({engine.num_solver_calls} solver calls, {engine.sample_cache_hits} cache hits)"
    )

    # --- the pre-batching baseline: fresh solver state per sample -----------
    baseline_time = None
    baseline_result = None
    baseline = None
    agreement = None
    speedup = None
    decided_pairs: list = []
    if not args.no_baseline:
        baseline_spec = dataclasses.replace(spec, incremental=False, sample_cache_size=None)
        baseline = baseline_spec.build(instance.cnf, seed=args.seed)
        started = time.perf_counter()
        baseline_result = baseline.evaluate(decomposition)
        baseline_time = time.perf_counter() - started
        # Same seed and decomposition -> identical sampled assignments, so the
        # runs can be compared observation by observation.  With a per-sample
        # budget, retained learned clauses legitimately shift which samples
        # finish in time, so UNKNOWNs may differ between the runs; soundness
        # requires only that no pair of *decided* observations contradicts.
        decided_pairs = [
            (engine_obs.status, baseline_obs.status)
            for engine_obs, baseline_obs in zip(
                engine_result.observations, baseline_result.observations
            )
            if engine_obs.status is not SolverStatus.UNKNOWN
            and baseline_obs.status is not SolverStatus.UNKNOWN
        ]
        # None (not a vacuous True) when every pair contained an UNKNOWN.
        agreement = (
            all(engine_s == baseline_s for engine_s, baseline_s in decided_pairs)
            if decided_pairs
            else None
        )
        speedup = baseline_time / engine_time if engine_time > 0 else float("inf")
        print(
            f"baseline: {baseline_time:8.3f}s  {baseline_result.summary()}"
        )
        print(
            f"speedup: x{speedup:.2f}, statuses agree: {agreement} "
            f"({len(decided_pairs)} decided pairs compared)"
        )

    # --- convergence trajectory of the engine run ---------------------------
    costs = [obs.cost for obs in engine_result.observations]
    trajectory = [
        {
            "n": est.sample_size,
            "mean": est.mean,
            "value": (1 << d) * est.mean,
            "half_width": est.half_width,
            "interval": list(est.interval),
            "relative_error": est.relative_error,
        }
        for est in estimate_trajectory(costs, checkpoints)
    ]

    # --- differential check of the bit-sliced batch keystream path ----------
    generator = instance.generator
    states = generator.random_states(args.verify_batch, seed=args.seed)
    started = time.perf_counter()
    batched = generator.keystream_batch(states, len(instance.keystream))
    batch_time = time.perf_counter() - started
    started = time.perf_counter()
    scalar = [generator.keystream_from_state(s, len(instance.keystream)) for s in states]
    scalar_time = time.perf_counter() - started
    # None (not a vacuous True) when there was nothing to compare.
    keystream_ok = batched == scalar if states else None

    def _engine_record(result, evaluator, wall_time):
        statuses = [obs.status.value for obs in result.observations]
        return {
            "wall_time": wall_time,
            "value": result.value,
            "mean_cost": result.mean_cost,
            "confidence_interval": list(result.confidence_interval),
            "num_solver_calls": evaluator.num_solver_calls,
            "sample_cache_hits": evaluator.sample_cache_hits,
            "statuses": {status: statuses.count(status) for status in sorted(set(statuses))},
        }

    record = {
        "kind": "montecarlo-estimation-bench",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "instance": _instance_spec(args).to_dict(),
        "instance_summary": instance.summary(),
        "estimator": spec.to_dict(),
        "decomposition": sorted(decomposition),
        "engine": _engine_record(engine_result, engine, engine_time),
        "baseline": (
            _engine_record(baseline_result, baseline, baseline_time)
            if baseline_result is not None
            else None
        ),
        "speedup": speedup,
        "statuses_agree": agreement,
        "decided_pairs_compared": (
            len(decided_pairs) if baseline_result is not None else None
        ),
        "trajectory": trajectory,
        "batch_keystream": {
            "batch_size": args.verify_batch,
            "batch_time": batch_time,
            "scalar_time": scalar_time,
            "matches_scalar": keystream_ok,
        },
    }

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = f"BENCH_montecarlo_{args.cipher}_s{args.seed}_d{d}_N{args.sample_size}_{stamp}"
    out_path = out_dir / f"{base}.json"
    suffix = 1
    while out_path.exists():  # same parameters twice within one second
        suffix += 1
        out_path = out_dir / f"{base}-{suffix}.json"
    out_path.write_text(json.dumps(_json_safe(record), indent=2, allow_nan=False))
    print(f"wrote {out_path}")
    if keystream_ok is False:  # pragma: no cover - differential-check failure
        raise SystemExit("batched keystream simulation disagrees with the scalar path")
    if agreement is False:  # pragma: no cover - differential-check failure
        raise SystemExit(
            "incremental engine and fresh-solver baseline reached contradictory "
            "decided statuses"
        )
    return 0


def _cmd_simplify(args: argparse.Namespace) -> int:
    """Preprocess a cipher instance or an arbitrary DIMACS file.

    Every malformed input — unreadable/unparsable DIMACS, frozen ids outside
    the formula, bad preprocessor options — exits with a clean one-line error
    (the underlying layers raise ``ValueError``, never ``KeyError`` or
    ``IndexError``).
    """
    from repro.api.registry import get_preprocessor
    from repro.sat.dimacs import parse_dimacs_file

    frozen: set[int] = set()
    if args.input is not None:
        path = Path(args.input)
        if not path.exists():
            raise SystemExit(f"DIMACS file not found: {path}")
        try:
            cnf = parse_dimacs_file(path, strict=args.strict)
        except ValueError as error:  # DimacsError is a ValueError subclass
            raise SystemExit(f"malformed DIMACS {path}: {error}") from None
        print(f"{path}: {cnf.num_vars} vars, {cnf.num_clauses} clauses")
    else:
        instance = _experiment(args).instance
        print(instance.summary())
        cnf = instance.cnf
        if args.freeze_state:
            frozen.update(instance.start_set)
    if args.frozen:
        try:
            frozen.update(int(v) for v in args.frozen.split(","))
        except ValueError:
            raise SystemExit(
                f"--frozen must be a comma-separated variable list, got {args.frozen!r}"
            ) from None

    options: dict[str, object] = {
        "max_growth": args.max_growth,
        "max_occurrences": args.max_occurrences,
        "max_resolvent_length": args.max_resolvent_length,
        "failed_literal_probing": args.probe,
        "blocked_clause_elimination": args.blocked_clauses,
    }
    try:
        preprocessor = get_preprocessor(args.preprocessor)(**options)
        result = preprocessor.preprocess(cnf, frozen=frozen)
    except (TypeError, ValueError) as error:  # bad options / frozen ids / registry name
        raise SystemExit(str(error)) from None
    if result.unsat:
        print("the instance was refuted by preprocessing")
    else:
        print(result.summary())
        print(
            f"reconstruction stack: {len(result.reconstruction)} entries "
            f"({len(result.eliminated_variables)} eliminated variables, "
            f"{len(result.fixed)} fixed)"
        )
    if args.output:
        write_dimacs_file(result.cnf, args.output)
        print(f"wrote simplified DIMACS to {args.output}")
    if args.stats_json:
        Path(args.stats_json).write_text(json.dumps(result.stats.to_dict(), indent=2))
        print(f"wrote reduction stats to {args.stats_json}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    experiment = _experiment(args, technique=args.technique, parts=args.parts)
    print(experiment.instance.summary())
    try:
        result = experiment.partition(solve_parts=args.solve)
    except UnknownNameError as error:
        raise SystemExit(str(error)) from None
    print(result.summary)
    if args.solve:
        print(
            f"solved {len(result.data['costs'])} parts: "
            f"total cost {result.data['total_cost']:.4g} ({args.cost_measure}), "
            f"{result.data['num_sat']} satisfiable, "
            f"imbalance x{result.data['imbalance']:.1f}"
        )
    return 0


def _cmd_portfolio(args: argparse.Namespace) -> int:
    overrides = {"members": args.members}
    if args.sharing:
        overrides["sharing"] = SharingSpec(
            portfolio=args.portfolio,
            slice_budget=args.slice_budget,
            max_rounds=args.sharing_rounds,
            max_lbd=args.sharing_lbd,
            max_size=args.sharing_size,
            inprocess_every=args.inprocess_every,
            seed=args.sharing_seed,
            executor=args.sharing_executor,
            replay=args.replay,
        )
    experiment = _experiment(args, **overrides)
    print(experiment.instance.summary())
    try:
        result = experiment.portfolio()
    except (UnknownNameError, ValueError) as error:
        raise SystemExit(str(error)) from None
    print(result.summary)
    for member in sorted(result.data["members"], key=lambda m: m["cost"]):
        line = f"  {member['name']:18s} {member['status']:7s} {member['cost']:.4g}"
        if args.sharing:
            line += (
                f"  exported {member['exported']}, imported {member['imported']}"
                f" ({member['imported_added']} added)"
            )
        print(line)
    if args.sharing:
        print(
            f"rounds {result.data['rounds_executed']}, decided in round "
            f"{result.data['decided_round']}, {result.data['exported']} exported / "
            f"{result.data['imported']} imported"
        )
    return 0


def _trace_record_cnf(args: argparse.Namespace):
    """The CNF to record plus its preferred decomposition variables."""
    from repro.sat.dimacs import parse_dimacs_file

    if args.input is not None:
        path = Path(args.input)
        if not path.exists():
            raise SystemExit(f"DIMACS file not found: {path}")
        try:
            cnf = parse_dimacs_file(path)
        except ValueError as error:
            raise SystemExit(f"malformed DIMACS {path}: {error}") from None
        print(f"{path}: {cnf.num_vars} vars, {cnf.num_clauses} clauses")
        return cnf, list(range(1, cnf.num_vars + 1))
    instance = _experiment(args).instance
    print(instance.summary())
    return instance.cnf, list(instance.start_set)


def _cmd_trace_record(args: argparse.Namespace) -> int:
    """Record one traced run (solve / simplify / estimate) to ``--trace-out``."""
    from repro.sat.solver import SolverBudget
    from repro.trace import read_trace, record_estimate, record_simplify, record_solve

    cnf, start_vars = _trace_record_cnf(args)
    out = Path(args.trace_out)
    budget = (
        SolverBudget(max_conflicts=args.max_conflicts)
        if args.max_conflicts is not None
        else None
    )
    try:
        if args.mode == "solve":
            result = record_solve(cnf, out, solver=args.solver, budget=budget)
            print(f"status: {result.status.value}")
        elif args.mode == "simplify":
            result = record_simplify(cnf, out)
            print(
                "refuted by preprocessing" if result.unsat else result.summary()
            )
        else:
            variables = start_vars[: args.decomposition_size]
            estimation = record_estimate(
                cnf,
                variables,
                out,
                sample_size=args.sample_size,
                seed=args.sample_seed,
                cores=args.cores,
                budget=budget,
            )
            print(
                f"F = {estimation.value:.4g} over {len(variables)} variables "
                f"({estimation.sample_size} samples)"
            )
    except ValueError as error:  # UnknownNameError included
        raise SystemExit(str(error)) from None
    header, events = read_trace(out)
    size = out.stat().st_size
    per_event = size / len(events) if events else float(size)
    print(
        f"wrote {out} ({header.kind}, {len(events)} events, {size} bytes, "
        f"{per_event:.2f} bytes/event)"
    )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    """Summarize a trace: counts, histograms, distributions, latencies."""
    from repro.trace import TraceError, format_summary, summarize_trace

    try:
        summary = summarize_trace(args.trace)
    except FileNotFoundError:
        raise SystemExit(f"trace file not found: {args.trace}") from None
    except TraceError as error:
        raise SystemExit(f"unreadable trace {args.trace}: {error}") from None
    print(json.dumps(_json_safe(summary)) if args.json else format_summary(summary))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    """Compare two traces; exit 1 when they diverge (CI determinism gate)."""
    from repro.trace import TraceError, diff_traces, format_diff

    try:
        diff = diff_traces(args.trace_a, args.trace_b)
    except FileNotFoundError as error:
        raise SystemExit(f"trace file not found: {error.filename}") from None
    except TraceError as error:
        raise SystemExit(f"unreadable trace: {error}") from None
    print(format_diff(diff, label_a=args.trace_a, label_b=args.trace_b))
    return 0 if diff.identical else 1


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Export a binary trace as JSONL or CSV."""
    from repro.trace import TraceError, export_trace
    from repro.trace.export import export_trace_string

    try:
        if args.output:
            count = export_trace(args.trace, args.output, format=args.format)
            print(f"exported {count} events to {args.output}")
        else:
            sys.stdout.write(export_trace_string(args.trace, format=args.format))
    except FileNotFoundError:
        raise SystemExit(f"trace file not found: {args.trace}") from None
    except (TraceError, ValueError) as error:
        raise SystemExit(str(error)) from None
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    if args.host is not None:
        return ServiceClient((args.host, args.port))
    if args.socket is None:
        raise SystemExit("no daemon address: pass --socket PATH (or --host/--port)")
    return ServiceClient(args.socket)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the job daemon in the foreground until interrupted."""
    from repro.service import ServiceConfig, ServiceDaemon

    config = ServiceConfig(
        state_dir=args.state_dir,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_active_per_tenant=args.max_active_per_tenant,
        max_queue_depth=args.max_queue_depth,
    )
    daemon = ServiceDaemon(config).start()
    print(f"repro-sat service: state in {daemon.state_dir}, listening on {daemon.address}")
    print("press Ctrl-C (or send the shutdown op) to stop")
    try:
        while daemon.started:
            time.sleep(0.2)
    except KeyboardInterrupt:
        print("shutting down (in-flight jobs are checkpointed and re-queued)...")
    finally:
        daemon.shutdown()
    print("daemon stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit an experiment config to a running daemon."""
    from repro.api.specs import ExperimentConfig
    from repro.service import ServiceError

    path = Path(args.config)
    if not path.exists():
        raise SystemExit(f"config file not found: {path}")
    try:
        config = ExperimentConfig.from_json(path.read_text()).to_dict()
    except (ValueError, KeyError) as error:
        raise SystemExit(f"invalid experiment config {path}: {error}") from None
    budget = {
        key: value
        for key, value in (
            ("wall_seconds", args.max_seconds),
            ("max_conflicts", args.max_conflicts),
            ("rss_mb", args.max_rss_mb),
        )
        if value is not None
    }
    client = _service_client(args)
    try:
        outcome = client.submit(
            args.mode,
            config,
            tenant=args.tenant,
            priority=args.priority,
            attach_trace=args.attach_trace,
            budget=budget or None,
            retries=args.retries,
        )
    except (ServiceError, OSError) as error:
        raise SystemExit(f"submit failed: {error}") from None
    job_id = outcome["job_id"]
    if outcome["cached"]:
        print(f"job {job_id}: cache hit ({outcome['key'][:12]}...), result is ready")
    elif outcome["deduplicated"]:
        print(f"job {job_id}: identical config already {outcome['state']}, coalesced")
    else:
        print(f"job {job_id}: {outcome['state']} (key {outcome['key'][:12]}...)")
    if args.watch and not outcome["cached"]:
        for message in client.watch(job_id):
            if message.get("done"):
                print(f"job {job_id}: {message['state']}")
            else:
                event = message["event"]
                suffix = (
                    f" [{event['completed']}/{event['total']}]" if event["total"] else ""
                )
                print(f"  {event['phase']}{suffix} {event['message']}".rstrip())
    return 0


def _cmd_job_status(args: argparse.Namespace) -> int:
    """Show one job (or every job) known to the daemon."""
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.job_id is not None:
            print(json.dumps(_json_safe(client.status(args.job_id)), indent=2))
        else:
            for job in client.jobs(tenant=args.tenant):
                print(
                    f"{job['job_id']}  {job['state']:<9}  {job['mode']:<8} "
                    f"tenant={job['tenant']} priority={job['priority']}"
                    + (f"  error={job['error']}" if job.get("error") else "")
                )
    except (ServiceError, OSError) as error:
        raise SystemExit(f"status failed: {error}") from None
    return 0


def _cmd_job_result(args: argparse.Namespace) -> int:
    """Fetch a finished job's archived result JSON."""
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.wait:
            client.wait(args.job_id, timeout=args.timeout)
        result = client.result(args.job_id)
    except (ServiceError, OSError, TimeoutError) as error:
        raise SystemExit(f"result failed: {error}") from None
    text = json.dumps(_json_safe(result), indent=2)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote result JSON to {args.output}")
    else:
        print(text)
    return 0


def _cmd_job_cancel(args: argparse.Namespace) -> int:
    """Cancel a queued or running job."""
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        outcome = client.cancel(args.job_id)
    except (ServiceError, OSError) as error:
        raise SystemExit(f"cancel failed: {error}") from None
    print(f"job {outcome['job_id']}: {outcome['state']}")
    return 0


#: Mirrors :data:`repro.service.chaos.SCENARIOS`; kept as a literal so that
#: building the argument parser never imports the service stack.
_CHAOS_SCENARIOS = (
    "worker-crash",
    "hung-job",
    "corrupt-journal",
    "truncated-checkpoint",
    "client-disconnect",
    "kill-restart",
)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the seeded fault-injection scenarios (docs/robustness.md)."""
    import tempfile

    if args.state_dir is not None:
        state_root = Path(args.state_dir)
        state_root.mkdir(parents=True, exist_ok=True)
        reports = _run_chaos(args, state_root)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
            reports = _run_chaos(args, Path(scratch))
    failed = [report for report in reports if not report.passed]
    for report in reports:
        marker = "PASS" if report.passed else "FAIL"
        print(f"{marker}  {report.name} (seed {report.seed})")
        for failure in report.failures:
            print(f"      - {failure}")
    print(f"{len(reports) - len(failed)}/{len(reports)} scenarios passed")
    return 1 if failed else 0


def _run_chaos(args: argparse.Namespace, state_root: Path):
    from repro.service.chaos import run_all, run_scenario

    if args.scenario == "all":
        return run_all(state_root, seed=args.seed)
    return [run_scenario(args.scenario, state_root, seed=args.seed)]


def _add_service_address_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", default=None, metavar="PATH", help="daemon unix-socket path"
    )
    parser.add_argument(
        "--host", default=None, help="daemon TCP host (instead of --socket)"
    )
    parser.add_argument("--port", type=int, default=0, help="daemon TCP port")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sat",
        description="Monte Carlo search for SAT partitionings (Semenov & Zaikin, PaCT 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list every registered component")
    list_cmd.add_argument(
        "--kind",
        choices=(
            "all",
            "ciphers",
            "solvers",
            "minimizers",
            "partitioners",
            "backends",
            "preprocessors",
            "portfolios",
            "cost-measures",
        ),
        default="all",
    )
    list_cmd.set_defaults(func=_cmd_list)

    list_ciphers_cmd = sub.add_parser(
        "list-ciphers", help="list the cipher presets with their state sizes"
    )
    list_ciphers_cmd.set_defaults(func=_cmd_list_ciphers)

    generate = sub.add_parser("generate", help="generate an inversion instance (DIMACS)")
    _add_instance_arguments(generate)
    generate.add_argument("--output", default=None, help="write the CNF to this DIMACS file")
    generate.set_defaults(func=_cmd_generate)

    estimate = sub.add_parser("estimate", help="run the estimating mode")
    _add_instance_arguments(estimate)
    estimate.add_argument("--method", choices=_method_choices(), default="tabu")
    estimate.add_argument("--sample-size", type=int, default=50)
    estimate.add_argument("--cost-measure", default="propagations")
    estimate.add_argument("--max-evaluations", type=int, default=60)
    estimate.add_argument("--max-seconds", type=float, default=None)
    estimate.add_argument("--cores", type=int, default=1)
    estimate.add_argument(
        "--no-incremental",
        action="store_true",
        help="fresh solver state per sample (the paper's cost semantics)",
    )
    estimate.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help="samples per solve_batch call, which loads the formula once "
        "(1 = scalar loop; >1 implies fresh solves, bit-identical to the "
        "scalar fresh path)",
    )
    estimate.set_defaults(func=_cmd_estimate)

    solve = sub.add_parser("solve", help="run the solving mode")
    _add_instance_arguments(solve)
    solve.add_argument("--method", choices=_method_choices(), default="tabu")
    solve.add_argument("--sample-size", type=int, default=50)
    solve.add_argument("--cost-measure", default="propagations")
    solve.add_argument("--max-evaluations", type=int, default=40)
    solve.add_argument("--max-seconds", type=float, default=None)
    solve.add_argument(
        "--decomposition",
        default=None,
        help="comma-separated variable list; omit to estimate one first",
    )
    solve.add_argument(
        "--decomposition-size",
        type=int,
        default=None,
        help="truncate the estimated decomposition to this many variables",
    )
    solve.add_argument("--max-family-bits", type=int, default=16)
    solve.add_argument("--stop-on-sat", action="store_true")
    solve.add_argument(
        "--backend",
        default="simulated-cluster",
        help="execution backend from the registry (see `repro-sat list`)",
    )
    solve.add_argument("--cores", type=int, default=8)
    solve.add_argument(
        "--no-incremental",
        action="store_true",
        help="fresh solver state per estimation sample (the paper's cost semantics)",
    )
    solve.add_argument(
        "--resume",
        default=None,
        metavar="CHECKPOINT",
        help=(
            "scheduler checkpoint file: solving progress is streamed to it and "
            "an existing file is resumed from"
        ),
    )
    solve.set_defaults(func=_cmd_solve)

    run = sub.add_parser("run", help="run a full experiment from a JSON config file")
    run.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    run.add_argument("--output", default=None, help="write the result JSON to this file")
    run.add_argument("--verbose", action="store_true", help="print progress events")
    run.add_argument(
        "--backend",
        default=None,
        help="override the config's execution backend (see `repro-sat list`)",
    )
    run.add_argument(
        "--cores",
        type=int,
        default=None,
        help="worker count for the overriding backend (cores or processes)",
    )
    run.add_argument(
        "--resume",
        default=None,
        metavar="CHECKPOINT",
        help=(
            "scheduler checkpoint file: solving progress is streamed to it and "
            "an existing file is resumed from (completed sub-problems are not "
            "re-solved)"
        ),
    )
    run.add_argument(
        "--portfolio-sharing",
        action="store_true",
        help=(
            "run the clause-sharing portfolio on the instance instead of the "
            "estimate-and-solve pipeline (uses the config's `sharing` block, "
            "or defaults when absent)"
        ),
    )
    run.set_defaults(func=_cmd_run)

    bench = sub.add_parser(
        "bench",
        help="benchmark the batched estimation engine (writes BENCH_*.json)",
    )
    _add_instance_arguments(bench)
    bench.set_defaults(cipher="a51-tiny", seed=3)
    bench.add_argument(
        "--decomposition-size",
        type=int,
        default=8,
        help="evaluate F on the first d start-set variables",
    )
    bench.add_argument("--sample-size", type=int, default=100, help="N, samples per evaluation")
    bench.add_argument("--cost-measure", default="propagations")
    bench.add_argument(
        "--max-conflicts-per-sample",
        type=int,
        default=None,
        help="per-sample conflict budget (UNKNOWN beyond it)",
    )
    bench.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="sample-result LRU cache capacity (0 disables)",
    )
    bench.add_argument(
        "--no-incremental",
        action="store_true",
        help="run the engine without incremental-assumption solving",
    )
    bench.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the per-sample fresh-solver baseline (faster, no speedup figure)",
    )
    bench.add_argument(
        "--checkpoints",
        default=None,
        help="comma-separated trajectory sample sizes (default: doubling up to N)",
    )
    bench.add_argument(
        "--verify-batch",
        type=int,
        default=64,
        help="batch size of the bit-sliced keystream differential check",
    )
    bench.add_argument(
        "--output-dir", default=".", help="directory for the BENCH_*.json file"
    )
    bench.set_defaults(func=_cmd_bench)

    simplify = sub.add_parser("simplify", help="preprocess an instance (SatELite-style)")
    _add_instance_arguments(simplify)
    simplify.add_argument(
        "--input",
        default=None,
        metavar="DIMACS",
        help="preprocess this DIMACS file instead of generating a cipher instance",
    )
    simplify.add_argument(
        "--strict",
        action="store_true",
        help="with --input: require a consistent 'p cnf' header",
    )
    simplify.add_argument(
        "--output", default=None, help="write the simplified CNF to this DIMACS file"
    )
    simplify.add_argument(
        "--stats-json", default=None, help="write the per-rule reduction stats to this file"
    )
    simplify.add_argument(
        "--preprocessor",
        default="satelite",
        help="preprocessor registry name (see `repro-sat list --kind preprocessors`)",
    )
    simplify.add_argument(
        "--frozen",
        default=None,
        metavar="VARS",
        help="comma-separated variables that must survive simplification",
    )
    simplify.add_argument(
        "--blocked-clauses", action="store_true", help="also run blocked clause elimination"
    )
    simplify.add_argument(
        "--probe", action="store_true", help="also run failed-literal probing"
    )
    simplify.add_argument("--max-growth", type=int, default=0, help="BVE clause-growth bound")
    simplify.add_argument(
        "--max-occurrences",
        type=int,
        default=20,
        help="BVE skips variables with more occurrences than this",
    )
    simplify.add_argument(
        "--max-resolvent-length",
        type=int,
        default=0,
        help="reject BVE resolvents longer than this (0 = unlimited)",
    )
    simplify.add_argument(
        "--no-freeze-state",
        dest="freeze_state",
        action="store_false",
        help="allow eliminating the register-state (decomposition) variables",
    )
    simplify.set_defaults(func=_cmd_simplify, freeze_state=True)

    partition = sub.add_parser(
        "partition", help="build a classical partitioning (see `repro-sat list`)"
    )
    _add_instance_arguments(partition)
    partition.add_argument(
        "--technique",
        choices=tuple(PARTITIONERS.names()),
        default="guiding-path",
    )
    partition.add_argument("--parts", type=int, default=8, help="target number of parts")
    partition.add_argument("--solve", action="store_true", help="also solve every part")
    partition.add_argument("--cost-measure", default="propagations")
    partition.set_defaults(func=_cmd_partition)

    portfolio = sub.add_parser("portfolio", help="race the diversified CDCL portfolio")
    _add_instance_arguments(portfolio)
    portfolio.add_argument("--members", type=int, default=8, help="number of portfolio members")
    portfolio.add_argument("--cost-measure", default="propagations")
    portfolio.add_argument(
        "--sharing",
        action="store_true",
        help="exchange learned clauses between members at deterministic round barriers",
    )
    portfolio.add_argument(
        "--portfolio",
        default="default-8",
        help="portfolio preset from the registry (see `repro-sat list --kind portfolios`)",
    )
    portfolio.add_argument(
        "--slice-budget",
        type=int,
        default=4096,
        help="cost-measure units per member round slice (sharing mode)",
    )
    portfolio.add_argument(
        "--sharing-rounds",
        type=int,
        default=32,
        help="maximum number of exchange rounds (sharing mode)",
    )
    portfolio.add_argument(
        "--sharing-lbd", type=int, default=4, help="export clauses with LBD at most this"
    )
    portfolio.add_argument(
        "--sharing-size", type=int, default=8, help="export clauses with at most this many literals"
    )
    portfolio.add_argument(
        "--inprocess-every",
        type=int,
        default=0,
        help="re-simplify live clause databases every N rounds (0 disables)",
    )
    portfolio.add_argument(
        "--sharing-seed", type=int, default=0, help="seed of the exchange schedule"
    )
    portfolio.add_argument(
        "--sharing-executor",
        choices=("inline", "threads", "simulated-grid"),
        default="inline",
        help="executor the sharing round barriers are scheduled on",
    )
    portfolio.add_argument(
        "--replay",
        action="store_true",
        help="deterministic serial replay of the sharing schedule (bit-identical)",
    )
    portfolio.set_defaults(func=_cmd_portfolio)

    trace = sub.add_parser(
        "trace", help="record, inspect, diff and export binary solver-event traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_record = trace_sub.add_parser(
        "record", help="run solve/simplify/estimate with event tracing on"
    )
    _add_instance_arguments(trace_record)
    trace_record.add_argument(
        "--input",
        default=None,
        metavar="DIMACS",
        help="trace this DIMACS file instead of generating a cipher instance",
    )
    trace_record.add_argument(
        "--mode",
        choices=("solve", "simplify", "estimate"),
        default="solve",
        help="which operation to record",
    )
    trace_record.add_argument(
        "--trace-out", required=True, metavar="PATH", help="binary trace output file"
    )
    trace_record.add_argument(
        "--solver",
        default="cdcl",
        help="solver registry name for --mode solve (cdcl, dpll, ...)",
    )
    trace_record.add_argument(
        "--max-conflicts",
        type=int,
        default=None,
        help="conflict budget for the recorded solver calls",
    )
    trace_record.add_argument(
        "--decomposition-size",
        type=int,
        default=8,
        help="--mode estimate: sample over the first d start-set variables",
    )
    trace_record.add_argument(
        "--sample-size", type=int, default=20, help="--mode estimate: samples N"
    )
    trace_record.add_argument(
        "--sample-seed", type=int, default=0, help="--mode estimate: sampling seed"
    )
    trace_record.add_argument(
        "--cores", type=int, default=4, help="--mode estimate: simulated cores"
    )
    trace_record.set_defaults(func=_cmd_trace_record)

    trace_stats = trace_sub.add_parser("stats", help="summarize a recorded trace")
    trace_stats.add_argument("trace", help="binary trace file")
    trace_stats.add_argument("--json", action="store_true", help="emit the summary as JSON")
    trace_stats.set_defaults(func=_cmd_trace_stats)

    trace_diff = trace_sub.add_parser(
        "diff", help="compare two traces (exit 1 when they diverge)"
    )
    trace_diff.add_argument("trace_a", help="first trace file")
    trace_diff.add_argument("trace_b", help="second trace file")
    trace_diff.set_defaults(func=_cmd_trace_diff)

    trace_export = trace_sub.add_parser("export", help="export a trace as JSONL or CSV")
    trace_export.add_argument("trace", help="binary trace file")
    trace_export.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl", help="output format"
    )
    trace_export.add_argument(
        "--output", default=None, metavar="PATH", help="output file (default: stdout)"
    )
    trace_export.set_defaults(func=_cmd_trace_export)

    serve = sub.add_parser(
        "serve", help="run the estimation-as-a-service job daemon (docs/service.md)"
    )
    serve.add_argument(
        "--state-dir",
        default="repro-service",
        metavar="DIR",
        help="journal, checkpoints, traces and result store live here",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix-socket path (default: STATE_DIR/daemon.sock)",
    )
    serve.add_argument(
        "--host", default=None, help="listen on TCP instead of the unix socket"
    )
    serve.add_argument("--port", type=int, default=0, help="TCP port (0: ephemeral)")
    serve.add_argument(
        "--workers", type=int, default=2, help="concurrently running jobs"
    )
    serve.add_argument(
        "--max-active-per-tenant",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant quota on queued+running jobs (default: unlimited)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="bound on queued jobs; further submits get a retriable "
        "backpressure error (default: unbounded)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit an experiment config JSON to a running daemon"
    )
    submit.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    submit.add_argument(
        "--mode", choices=("estimate", "solve", "run"), default="run",
        help="which facade mode the job runs",
    )
    submit.add_argument("--tenant", default="default", help="quota/ownership bucket")
    submit.add_argument(
        "--priority", type=int, default=0, help="higher runs first (default 0)"
    )
    submit.add_argument(
        "--attach-trace",
        action="store_true",
        help="record a binary event trace next to the job (repro-sat trace stats ...)",
    )
    submit.add_argument(
        "--watch", action="store_true", help="stream progress until the job ends"
    )
    submit.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget; over-budget jobs end in the timed-out state",
    )
    submit.add_argument(
        "--max-conflicts",
        type=int,
        default=None,
        metavar="N",
        help="per-sub-problem solver conflict budget (changes the result "
        "identity: capped solves may return unknown)",
    )
    submit.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help="daemon RSS budget in MiB enforced by the watchdog",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry retriable submit errors (backpressure, unreachable) "
        "with jittered exponential backoff",
    )
    _add_service_address_args(submit)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="show a job (or all jobs) on the daemon")
    status.add_argument("job_id", nargs="?", default=None, help="job id (default: all)")
    status.add_argument("--tenant", default=None, help="filter the listing by tenant")
    _add_service_address_args(status)
    status.set_defaults(func=_cmd_job_status)

    result = sub.add_parser("result", help="fetch a finished job's result JSON")
    result.add_argument("job_id", help="job id")
    result.add_argument("--wait", action="store_true", help="block until the job ends")
    result.add_argument(
        "--timeout", type=float, default=300.0, help="--wait timeout in seconds"
    )
    result.add_argument("--output", default=None, metavar="PATH", help="write JSON here")
    _add_service_address_args(result)
    result.set_defaults(func=_cmd_job_result)

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("job_id", help="job id")
    _add_service_address_args(cancel)
    cancel.set_defaults(func=_cmd_job_cancel)

    chaos = sub.add_parser(
        "chaos",
        help="run the seeded fault-injection scenarios against a live daemon",
    )
    chaos.add_argument(
        "--scenario",
        # mirrors repro.service.chaos.SCENARIOS (kept literal so building the
        # parser never imports the service stack; tests assert they match)
        choices=_CHAOS_SCENARIOS + ("all",),
        default="all",
        help="which failure scenario to run (default: all of them)",
    )
    chaos.add_argument(
        "--seed", type=int, default=1, help="chaos-policy seed (default 1)"
    )
    chaos.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="root for per-scenario daemon state (default: a temp dir, "
        "removed afterwards; pass a path to keep artifacts for inspection)",
    )
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-sat`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
