"""Smoke tests of the top-level public API surface."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import repro

ORACLE = "repro.simulation.reference"


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.technology",
            "repro.circuits",
            "repro.synthesis",
            "repro.simulation",
            "repro.core",
            "repro.explore",
            "repro.variation",
            "repro.api",
            "repro.obs",
            "repro.baselines",
            "repro.apps",
            "repro.analysis",
            "repro.cli",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        imported = importlib.import_module(module)
        for name in getattr(imported, "__all__", []):
            assert hasattr(imported, name), f"{module}.{name}"

    def test_quickstart_snippet_types(self):
        """The README quickstart names must exist with the documented call shapes."""
        flow = repro.CharacterizationFlow.for_benchmark("rca", 4)
        config = repro.PatternConfig(n_vectors=64, width=4)
        characterization = flow.run(pattern=config)
        assert isinstance(characterization, repro.AdderCharacterization)
        entry = characterization.sorted_by_energy()[0]
        assert isinstance(entry, repro.TriadCharacterization)
        assert isinstance(characterization.energy_efficiency_of(entry), float)

    def test_api_quickstart_snippet_types(self):
        """The README Python-API quickstart names and call shapes."""
        session = repro.Session(store=None)
        result = session.run(
            repro.CharacterizeJob(
                operator="rca4", pattern=repro.PatternOptions(vectors=64)
            )
        )
        assert isinstance(result.characterization, repro.AdderCharacterization)
        batch = session.run_batch(
            [
                repro.CharacterizeJob(
                    operator="rca4", pattern=repro.PatternOptions(vectors=64)
                ),
                repro.Fig5Job(operator="rca4", supply_voltages=(0.6,), vectors=64),
            ]
        )
        assert isinstance(batch.report, repro.BatchReport)
        assert batch.report.simulated_units == 0  # session already warm

    def test_simulation_exports_one_testbench(self):
        import repro.simulation as simulation
        from repro.simulation.logic_sim import LogicSimulator
        from repro.simulation.timing_sim import VosTimingSimulator

        assert "OperatorTestbench" in simulation.__all__
        for name in ("AdderTestbench", "MultiplierTestbench"):
            assert name not in simulation.__all__
            assert not hasattr(simulation, name)
        assert not hasattr(VosTimingSimulator, "run_reference")
        assert not hasattr(VosTimingSimulator, "run_variation_sweep")
        assert not hasattr(LogicSimulator, "run_reference")


@pytest.mark.parametrize(
    "package, module, names",
    [
        (
            "repro.core",
            "error_detection",
            ("ShadowRegisterMonitor", "ShadowComparisonResult", "OnlineBerEstimator"),
        ),
        ("repro.circuits", "validation", ("validate_netlist", "NetlistValidationError")),
        ("repro.simulation", "spice_like", ("EventDrivenSimulator", "EventDrivenResult")),
    ],
)
def test_surface_no_entry_point_reaches_is_not_exported(package, module, names):
    """Modules only tests used are gone (or live under tests/ as oracles)."""
    imported = importlib.import_module(package)
    assert importlib.util.find_spec(f"{package}.{module}") is None
    for name in names:
        assert name not in imported.__all__
        assert not hasattr(imported, name)


@pytest.mark.parametrize(
    "package, module, names",
    [
        (
            "repro.core",
            "sweep",
            ("run_characterization_sweep", "run_fault_sweep", "run_unit_sweep"),
        ),
        ("repro.technology", "corners", ("VariabilityModel", "parse_corner")),
        ("repro", "variation", ("run_montecarlo_sweep",)),
        ("repro.variation", "montecarlo", ("run_montecarlo_sweep",)),
        (
            "repro.explore",
            "evaluator",
            (
                "EvaluatorStats",
                "CandidateEvaluator.evaluate",
                "CandidateEvaluator.evaluations_at",
            ),
        ),
        ("repro.circuits", "signals", ("random_operands", "operand_bit_matrix")),
        ("repro.circuits", "netlist", ("merge_port_order",)),
        ("repro.simulation", "logic_sim", ("simulate_outputs",)),
    ],
)
def test_names_that_moved_or_merged_are_gone(package, module, names):
    """The per-kind sweep wrappers and the evaluator's per-candidate path
    merged into the one planner; the event-driven oracle's variability
    model lives with it under tests/; helpers only their own tests reached
    are deleted.  A dotted name is a method of a class the module keeps."""
    imported = importlib.import_module(package)
    defining = importlib.import_module(f"{package}.{module}")
    for name in names:
        owner, _, method = name.rpartition(".")
        if owner:
            assert not hasattr(getattr(defining, owner), method)
            continue
        assert name not in imported.__all__
        assert not hasattr(imported, name)
        assert not hasattr(defining, name)


def _imported_modules(path, package):
    """Absolute names of the modules a source file imports (or names)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            parts = base + (tuple(node.module.split(".")) if node.module else ())
            module = ".".join(parts)
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and node.value == ORACLE:
            yield ORACLE


def test_no_production_module_imports_the_oracle():
    """Only tests and benchmarks import the per-gate reference loops."""
    root = pathlib.Path(repro.__file__).parent
    oracle_path = root / "simulation" / "reference.py"
    assert oracle_path.exists()
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == oracle_path:
            continue
        package = path.relative_to(root.parent).with_suffix("").parts[:-1]
        if any(
            name == ORACLE or name.startswith(ORACLE + ".")
            for name in _imported_modules(path, package)
        ):
            offenders.append(str(path.relative_to(root.parent)))
    assert offenders == []
