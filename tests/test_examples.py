"""Smoke tests for the example scripts and the benchmark helpers.

The examples are user-facing entry points; these tests import them and run the
cheap ones end to end so that API drift is caught by the test suite rather than
by a user.  The heavier cipher examples are exercised by importing their helper
functions only (their ``main()`` functions run minute-scale searches).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


class TestExampleScripts:
    def test_examples_exist(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert "quickstart.py" in names
        assert len(names) >= 3

    def test_quickstart_runs_end_to_end(self, capsys):
        module = _load_module(EXAMPLES_DIR / "quickstart.py")
        module.main()
        output = capsys.readouterr().out
        assert "Tabu search result" in output
        assert "recovered state" in output

    def test_a51_example_helpers(self):
        module = _load_module(EXAMPLES_DIR / "a51_cryptanalysis.py")
        from repro.ciphers import A51
        from repro.problems import make_inversion_instance

        instance = make_inversion_instance(A51.scaled("tiny"), keystream_length=30, seed=1)
        manual = module.manual_reference_set(instance)
        assert set(manual) <= set(instance.start_set)
        assert 0 < len(manual) < len(instance.start_set)

    def test_other_examples_import_cleanly(self):
        for name in (
            "bivium_weakened.py",
            "grain_partitioning.py",
            "volunteer_grid.py",
            "portfolio_vs_partitioning.py",
            "custom_cipher.py",
        ):
            module = _load_module(EXAMPLES_DIR / name)
            assert hasattr(module, "main")

    def test_custom_cipher_generator_is_consistent(self):
        module = _load_module(EXAMPLES_DIR / "custom_cipher.py")
        generator = module.build_custom_generator()
        state = generator.random_state(seed=4)
        assert generator.keystream_from_state(state, 16) == generator.circuit_keystream(state, 16)

    def test_portfolio_example_runs_end_to_end(self, capsys):
        module = _load_module(EXAMPLES_DIR / "portfolio_vs_partitioning.py")
        module.main()
        output = capsys.readouterr().out
        assert "Partitioning over" in output
        assert "portfolio" in output.lower()


class TestBenchmarkHelpers:
    def test_print_table(self, capsys):
        sys.path.insert(0, str(BENCHMARKS_DIR.parent))
        from benchmarks._common import print_table

        print_table("demo", ["a", "bb"], [[1, 22], [333, 4]])
        output = capsys.readouterr().out
        assert "demo" in output
        assert "333" in output

    def test_render_decomposition_bitmap(self):
        from benchmarks._common import render_decomposition_bitmap

        labels = [f"R[{i}]" for i in range(6)]
        variables = [10, 11, 12, 13, 14, 15]
        art = render_decomposition_bitmap(labels, variables, chosen=[11, 14], per_line=4)
        assert "#" in art
        assert art.count("#") == 2

    def test_format_count(self):
        from benchmarks._common import format_count

        assert format_count(37690000000.0) == "3.769e+10"

    def test_benchmark_modules_cover_every_table_and_figure(self):
        names = {path.name for path in BENCHMARKS_DIR.glob("bench_*.py")}
        expected = {
            "bench_table1_a51_predictive.py",
            "bench_table2_bivium_estimates.py",
            "bench_table3_weakened_solving.py",
            "bench_fig1_2_a51_sets.py",
            "bench_fig3_bivium_set.py",
            "bench_fig4_grain_set.py",
            "bench_montecarlo_convergence.py",
            "bench_sat_at_home.py",
            "bench_partitioning_techniques.py",
            "bench_portfolio_vs_partitioning.py",
        }
        assert expected <= names
