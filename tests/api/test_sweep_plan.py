"""Tests of the one sweep plan: what each job declares, how shared units
merge, where the plan runs, how the planner groups and returns payloads, and
how results are built from them."""

import pytest

from repro.analysis.figures import fig5_ber_per_bit
from repro.api.jobs import (
    CalibrateJob,
    CharacterizeJob,
    FaultSweepJob,
    Fig5Job,
    MonteCarloJob,
    SynthesizeJob,
    Table4Job,
)
from repro.api.options import PatternOptions
from repro.api.session import Session, SessionError
from repro.core.characterization import (
    CharacterizationFlow,
    characterization_from_payloads,
)
from repro.core.dataset import characterization_to_dict, save_characterization
from repro.core.store import SweepResultStore
from repro.core.sweep import (
    characterization_request,
    fault_request,
    pattern_stimulus,
    run_sweep_plan,
    simulated_unit_count,
    unit_counts,
)
from repro.core.triad import OperatingTriad
from repro.obs.report import load_trace
from repro.obs.trace import Tracer, activated
from repro.simulation.fault_injection import enumerate_stuck_at_faults
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.variation.montecarlo import (
    MonteCarloConfig,
    montecarlo_request,
    supply_scaling_grid,
)

SMALL = PatternOptions(vectors=240)


@pytest.fixture()
def session():
    """Uncached session (in-memory overlay only)."""
    return Session(store=None)


def grid_triad(session, index):
    """One triad of rca8's default grid, as a calibration job targets it."""
    return session.flow_for("rca8").default_triad_grid()[index]


def calibrate_job(triad):
    return CalibrateJob(
        operator="rca8",
        tclk_ns=triad.tclk * 1e9,
        vdd=triad.vdd,
        vbb=triad.vbb,
        pattern=SMALL,
    )


def units_of(sweep):
    """The units a declared sweep requests, in request order."""
    return [unit for _, unit in sweep.request.units]


def keep_latched(sweep):
    """Whether a declared characterization sweep keeps latched words."""
    [keep] = {kind.keep_latched for kind, _ in sweep.request.units}
    return keep


class TestDeclaration:
    def test_characterize_declares_the_default_grid(self, session):
        job = CharacterizeJob(operator="rca8", pattern=SMALL, keep_measurements=False)
        [sweep] = session._declare(job)
        assert sweep.request.circuit is session.flow_for("rca8").adder
        assert sweep.request.base["stimulus"] == pattern_stimulus(SMALL.config(8))
        assert units_of(sweep) == list(session.flow_for("rca8").default_triad_grid())
        assert keep_latched(sweep) is False

    def test_calibrate_declares_its_one_triad_with_latched_words(self, session):
        job = calibrate_job(grid_triad(session, 5))
        [sweep] = session._declare(job)
        assert units_of(sweep) == [job.triad()]
        assert keep_latched(sweep) is True

    def test_fig5_keeps_the_job_voltage_order_and_repeats(self, session):
        job = Fig5Job(operator="rca8", supply_voltages=(0.5, 0.8, 0.5), vectors=240)
        [sweep] = session._declare(job)
        nominal = session.flow_for("rca8").nominal_clock_period()
        assert units_of(sweep) == [
            OperatingTriad(tclk=nominal, vdd=vdd, vbb=0.0) for vdd in (0.5, 0.8, 0.5)
        ]
        assert keep_latched(sweep) is False

    def test_table4_declares_only_its_operator_names(
        self, session, tmp_path, rca8_characterization
    ):
        dataset = tmp_path / "rca8.json"
        save_characterization(rca8_characterization, dataset)
        job = Table4Job(datasets=("bka8", str(dataset), "rca4"), vectors=240)
        sweeps = session._declare(job)
        assert [sweep.request.circuit.name for sweep in sweeps] == ["bka8", "rca4"]
        assert [sweep.request.base["stimulus"]["width"] for sweep in sweeps] == [8, 4]

    def test_montecarlo_declares_sample_ranges_times_the_fig5_grid(self, session):
        # 40 samples are the ranges [0, 32) and [32, 40).
        job = MonteCarloJob(
            operator="rca8", pattern=SMALL, samples=40, supply_voltages=(0.5, 0.8)
        )
        [sweep] = session._declare(job)
        triads = list(supply_scaling_grid(session.flow_for("rca8"), (0.5, 0.8)))
        assert [
            (kind.start, kind.stop, unit) for kind, unit in sweep.request.units
        ] == [
            (start, stop, triad)
            for triad in triads
            for start, stop in ((0, 32), (32, 40))
        ]

    def test_faults_declare_every_fault_site(self, session):
        [sweep] = session._declare(FaultSweepJob(operator="rca4", pattern=SMALL))
        circuit = session.flow_for("rca4").adder
        assert sweep.request.circuit is circuit
        assert units_of(sweep) == list(enumerate_stuck_at_faults(circuit.netlist))

    def test_jobs_of_one_stimulus_share_the_operand_arrays(self, session):
        operands = {}
        requests = [
            sweep.request
            for job in (
                CharacterizeJob(operator="rca8", pattern=SMALL),
                MonteCarloJob(operator="rca8", pattern=SMALL, samples=4),
                FaultSweepJob(operator="rca8", pattern=SMALL),
            )
            for sweep in session._declare(job, operands)
        ]
        assert len(operands) == 1
        [(in1, in2)] = operands.values()
        assert all(r.in1 is in1 and r.in2 is in2 for r in requests)

    @pytest.mark.parametrize(
        "job", [SynthesizeJob(operators=("rca8",))], ids=["synthesize"]
    )
    def test_jobs_that_plan_no_sweep_declare_none(self, session, job):
        assert session._declare(job) == []


class TestErrorsBeforeSimulation:
    @pytest.mark.parametrize(
        "entry, message",
        [
            ("no-such-file.json", "dataset file not found"),
            ("nosuch8", "cannot parse adder name"),
        ],
        ids=["missing-file", "malformed-operator"],
    )
    def test_bad_table4_entry_fails_the_batch_before_any_simulation(
        self, session, entry, message
    ):
        jobs = [
            CharacterizeJob(operator="rca8", pattern=SMALL),
            Table4Job(datasets=("bka8", entry), vectors=240),
        ]
        before = simulated_unit_count()
        with pytest.raises(SessionError, match=message):
            session.run_batch(jobs)
        assert simulated_unit_count() == before
        assert len(session.overlay) == 0


class TestLatchedWords:
    def test_shared_unit_keeps_latched_words_if_either_job_needs_them(self, session):
        units = len(session.flow_for("rca8").default_triad_grid())
        triad = grid_triad(session, 7)
        batch = session.run_batch(
            [CharacterizeJob(operator="rca8", pattern=SMALL), calibrate_job(triad)]
        )
        assert batch.report.planned_units == units + 1
        assert batch.report.deduped_units == 1
        assert batch.report.simulated_units == units
        solo = Session(store=None).run(calibrate_job(triad))
        assert batch.results[1].render() == solo.render()
        assert batch.results[1].table == solo.table

    def test_warm_grid_re_simulates_only_the_unit_that_needs_latched_words(
        self, session
    ):
        characterize = CharacterizeJob(operator="rca8", pattern=SMALL)
        session.run(characterize)  # warm payloads carry no latched words
        batch = session.run_batch([characterize, calibrate_job(grid_triad(session, 7))])
        assert batch.report.simulated_units == 1
        assert [result.run.simulated_units for result in batch.results] == [0, 0]


class TestWhereThePlanRuns:
    def sweep_parents(self, records):
        names = {record["span_id"]: record["name"] for record in records}
        return [
            names[record["parent_id"]]
            for record in records
            if record["name"] == "sweep"
        ]

    def test_run_batch_sweeps_in_the_session_span(self, tmp_path):
        trace = tmp_path / "batch.jsonl"
        Session(store=None, trace=trace).run_batch(
            [CharacterizeJob(operator="rca8", pattern=SMALL)]
        )
        assert self.sweep_parents(load_trace(trace)) == ["session"]

    def test_run_sweeps_in_the_job_span(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        Session(store=None, trace=trace).run(
            CharacterizeJob(operator="rca8", pattern=SMALL)
        )
        assert self.sweep_parents(load_trace(trace)) == ["job"]


class TestPlanner:
    def request(self, rca8, pattern, triads, keep_latched=False):
        in1, in2 = generate_patterns(pattern)
        return characterization_request(
            rca8,
            triads,
            in1,
            in2,
            pattern_stimulus(pattern),
            keep_latched=keep_latched,
        )

    def test_requests_get_their_payloads_in_their_own_order(self, rca8):
        pattern = PatternConfig(n_vectors=240, width=8, seed=7)
        triads = list(CharacterizationFlow(rca8).default_triad_grid())[:4]
        forward = self.request(rca8, pattern, triads)
        backward = self.request(rca8, pattern, triads[::-1])
        before = unit_counts()
        first, second = run_sweep_plan([forward, backward])
        counts = {name: count - before[name] for name, count in unit_counts().items()}
        assert counts == {
            "planned_units": 8,
            "deduped_units": 4,
            "cache_hits": 0,
            "simulated_units": 4,
        }
        assert second == first[::-1]
        assert [p["triad"]["vdd"] for p in first] == [t.vdd for t in triads]

    def test_warm_plan_counts_its_units_as_cache_hits(self, rca8, tmp_path):
        pattern = PatternConfig(n_vectors=240, width=8, seed=7)
        triads = list(CharacterizationFlow(rca8).default_triad_grid())[:3]
        store = SweepResultStore(tmp_path / "store")
        [cold] = run_sweep_plan([self.request(rca8, pattern, triads)], store=store)
        before = unit_counts()
        [warm] = run_sweep_plan(
            [self.request(rca8, pattern, triads + triads[:1])], store=store
        )
        counts = {name: count - before[name] for name, count in unit_counts().items()}
        assert counts == {
            "planned_units": 4,
            "deduped_units": 1,
            "cache_hits": 3,
            "simulated_units": 0,
        }
        assert warm == cold + cold[:1]

    def test_kind_families_run_as_separate_sweeps(self, rca8, tmp_path):
        pattern = PatternConfig(n_vectors=240, width=8, seed=7)
        triads = list(CharacterizationFlow(rca8).default_triad_grid())[:2]
        characterize = self.request(rca8, pattern, triads)
        faults = fault_request(
            rca8,
            characterize.in1,
            characterize.in2,
            pattern_stimulus(pattern),
            faults=enumerate_stuck_at_faults(rca8.netlist)[:3],
        )
        trace = tmp_path / "plan.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            plan = run_sweep_plan([characterize, faults])
        tracer.close()
        sweeps = [
            (record["attrs"]["kind"], record["attrs"]["units"])
            for record in load_trace(trace)
            if record["name"] == "sweep"
        ]
        assert sweeps == [("characterization", 2), ("faults", 3)]
        assert [len(payloads) for payloads in plan] == [2, 3]

    def test_monte_carlo_requests_at_one_corner_share_a_sweep(self, rca8, tmp_path):
        # Each request shifts its own copy of the library to the corner; the
        # copies are equal, so one simulator serves both requests.
        pattern = PatternConfig(n_vectors=240, width=8, seed=7)
        in1, in2 = generate_patterns(pattern)
        triads = list(CharacterizationFlow(rca8).default_triad_grid())[:2]
        requests = [
            montecarlo_request(
                rca8,
                triads,
                in1,
                in2,
                pattern_stimulus(pattern),
                config=MonteCarloConfig(n_samples=3, seed=seed),
            )
            for seed in (1, 2)
        ]
        trace = tmp_path / "plan.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            plan = run_sweep_plan(requests)
        tracer.close()
        sweeps = [
            (record["attrs"]["kind"], record["attrs"]["units"])
            for record in load_trace(trace)
            if record["name"] == "sweep"
        ]
        assert sweeps == [("montecarlo", 4)]
        assert plan == [run_sweep_plan([r])[0] for r in requests]

    def test_payloads_rebuild_the_flow_characterization(self, rca8):
        flow = CharacterizationFlow(rca8)
        pattern = PatternConfig(n_vectors=240, width=8, seed=7)
        triads = list(flow.default_triad_grid())[:6]
        expected = flow.run(triads=triads, pattern=pattern, keep_measurements=True)

        request = self.request(rca8, pattern, triads, keep_latched=True)
        [payloads] = run_sweep_plan([request])
        rebuilt = characterization_from_payloads(
            rca8,
            payloads,
            request.in1,
            request.in2,
            keep_measurements=True,
            pattern_kind=pattern.kind,
            seed=pattern.seed,
        )
        assert characterization_to_dict(rebuilt) == characterization_to_dict(expected)
        assert len(rebuilt.measurements) == len(triads)
        for ours, theirs in zip(rebuilt.measurements, expected.measurements):
            assert (ours.latched_words == theirs.latched_words).all()


class TestOneFig5GridRule:
    def test_monte_carlo_grid_is_the_fig5_rule(self, session):
        flow = session.flow_for("rca8")
        voltages = (0.5, 0.8, 0.5)
        nominal = flow.nominal_clock_period()
        grid = supply_scaling_grid(flow, voltages)
        # A grid holds each triad once, in its own (Vdd descending) order.
        assert list(grid) == [
            OperatingTriad(tclk=nominal, vdd=vdd, vbb=0.0) for vdd in (0.8, 0.5)
        ]
        assert set(grid) == set(flow.supply_scaling_triads(voltages))

    def test_fig5_job_matches_the_figure_function(self, session):
        voltages = (0.5, 0.8)
        result = session.run(
            Fig5Job(operator="rca8", supply_voltages=voltages, vectors=240)
        )
        series = fig5_ber_per_bit(
            "rca", 8, supply_voltages=voltages, n_vectors=240
        )
        assert [entry.vdd for entry in result.series] == list(voltages)
        assert [list(entry.ber_per_bit) for entry in result.series] == [
            list(entry.ber_per_bit) for entry in series
        ]
