"""Tests of the session's one sweep plan: what each job declares, how shared
units merge, where the plan runs, and how results are built from payloads."""

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
from repro.core import sweep as sweep_module
from repro.core.characterization import (
    CharacterizationFlow,
    characterization_from_payloads,
)
from repro.core.dataset import characterization_to_dict, save_characterization
from repro.core.sweep import simulated_unit_count
from repro.core.triad import OperatingTriad
from repro.obs.report import load_trace
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.technology.library import DEFAULT_LIBRARY
from repro.variation.montecarlo import supply_scaling_grid

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


class TestDeclaration:
    def test_characterize_declares_the_default_grid(self, session):
        job = CharacterizeJob(operator="rca8", pattern=SMALL, keep_measurements=False)
        [sweep] = session._declare(job)
        assert sweep.spec == job.spec
        assert sweep.pattern == SMALL.config(8)
        assert list(sweep.triads) == list(
            session.flow_for("rca8").default_triad_grid()
        )
        assert sweep.keep_latched is False

    def test_calibrate_declares_its_one_triad_with_latched_words(self, session):
        job = calibrate_job(grid_triad(session, 5))
        [sweep] = session._declare(job)
        assert list(sweep.triads) == [job.triad()]
        assert sweep.keep_latched is True

    def test_fig5_keeps_the_job_voltage_order_and_repeats(self, session):
        job = Fig5Job(operator="rca8", supply_voltages=(0.5, 0.8, 0.5), vectors=240)
        [sweep] = session._declare(job)
        nominal = session.flow_for("rca8").nominal_clock_period()
        assert list(sweep.triads) == [
            OperatingTriad(tclk=nominal, vdd=vdd, vbb=0.0) for vdd in (0.5, 0.8, 0.5)
        ]
        assert sweep.keep_latched is False

    def test_table4_declares_only_its_operator_names(
        self, session, tmp_path, rca8_characterization
    ):
        dataset = tmp_path / "rca8.json"
        save_characterization(rca8_characterization, dataset)
        job = Table4Job(datasets=("bka8", str(dataset), "rca4"), vectors=240)
        sweeps = session._declare(job)
        assert [sweep.spec.name for sweep in sweeps] == ["bka8", "rca4"]
        assert [sweep.pattern.width for sweep in sweeps] == [8, 4]

    @pytest.mark.parametrize(
        "job",
        [
            SynthesizeJob(operators=("rca8",)),
            MonteCarloJob(operator="rca8", pattern=SMALL, samples=4),
            FaultSweepJob(operator="rca4", pattern=SMALL),
        ],
        ids=["synthesize", "montecarlo", "faults"],
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


class TestResultsFromPayloads:
    def test_payloads_rebuild_the_flow_characterization(self, rca8):
        flow = CharacterizationFlow(rca8)
        pattern = PatternConfig(n_vectors=240, width=8, seed=7)
        triads = list(flow.default_triad_grid())[:6]
        expected = flow.run(triads=triads, pattern=pattern, keep_measurements=True)

        in1, in2 = generate_patterns(pattern)
        base = sweep_module.characterization_key_components(
            rca8, DEFAULT_LIBRARY, sweep_module.pattern_stimulus(pattern)
        )
        kind = sweep_module.CharacterizationKind(DEFAULT_LIBRARY, True)
        units = {
            sweep_module.characterization_entry_key(base, triad): (kind, triad)
            for triad in triads
        }
        payloads = sweep_module.run_unit_sweep(
            kind.name,
            rca8,
            in1,
            in2,
            units,
            jobs=1,
            store=None,
            policy=None,
            chaos=None,
            report=None,
        )
        rebuilt = characterization_from_payloads(
            rca8,
            [payloads[key] for key in units],
            in1,
            in2,
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
