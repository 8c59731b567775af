"""Smoke tests of the top-level public API surface."""

import importlib
import importlib.util

import pytest

import repro


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
        from repro.simulation.timing_sim import VosTimingSimulator

        assert "OperatorTestbench" in simulation.__all__
        for name in ("AdderTestbench", "MultiplierTestbench"):
            assert name not in simulation.__all__
            assert not hasattr(simulation, name)
        assert not hasattr(VosTimingSimulator, "run_reference")
        assert not hasattr(VosTimingSimulator, "run_variation_sweep")


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
        ("repro.simulation", "reference", ("logic_values", "vos_run", "sweep")),
        ("repro.simulation", "logic_sim", ("LogicSimulator", "simulate_outputs")),
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
        (
            "repro.circuits",
            "netlist",
            (
                "merge_port_order",
                "Netlist.topological_gate_levels",
                "Netlist.iter_gates_by_level",
                "Netlist.logic_level",
            ),
        ),
        (
            "repro.simulation",
            "engine",
            (
                "CompiledNetlistPlan.arrival_pass",
                "CompiledNetlistPlan.batched_arrival_pass",
            ),
        ),
        (
            "repro.simulation",
            "timing_sim",
            ("VosSimulationResult.mean_energy_per_operation",),
        ),
        ("repro.core", "characterization", ("characterize_benchmarks",)),
        ("repro", "core", ("characterize_benchmarks", "paper_triad_grid")),
        ("repro.core", "triad", ("paper_triad_grid", "OperatingTriad.frequency_hz")),
        ("repro.core", "dataset", ("load_probability_table",)),
        ("repro.core", "metrics", ("bitwise_error_probability",)),
        ("repro.core", "carry_model", ("CarryProbabilityTable.expected_cmax",)),
        ("repro.core", "store", ("SweepResultStore.entry_keys",)),
        (
            "repro.core",
            "speculation",
            (
                "DynamicSpeculationController.pareto_entries",
                "DynamicSpeculationController.current_triad",
            ),
        ),
        ("repro.core", "modified_adder", ("ApproximateAdderModel.add_exact",)),
        ("repro.technology", "device", ("on_off_current_ratio",)),
        ("repro.technology", "power", ("EnergyBreakdown.total_pj",)),
        ("repro.synthesis", "sta", ("StaticTimingAnalysis.minimum_clock_period",)),
        (
            "repro.explore",
            "frontier",
            ("ParetoFrontier.best_within_ber", "ParetoFrontier.operator_names"),
        ),
        ("repro.api", "session", ("Session.default_jobs",)),
        ("repro.analysis", "figures", ("Fig8Series.zero_ber_count",)),
        ("repro.apps", "dct", ("blockwise_dct",)),
        ("repro.apps", "image", ("synthetic_checkerboard_image",)),
        ("repro.apps", "fir", ("FirFilter.frequency_response",)),
    ],
)
def test_names_that_moved_or_merged_are_gone(package, module, names):
    """The per-kind sweep wrappers and the evaluator's per-candidate path
    merged into the one planner; the event-driven oracle's variability
    model lives with it under tests/; the plan's whole-stream arrival
    wrappers gave way to ``arrival_blocks``; functions and methods only
    their own tests reached are deleted.  A dotted name is a method of a
    class the module keeps."""
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
