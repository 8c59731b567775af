"""Unit tests of repro.obs.report: run reports, validation, summaries."""

import json

import pytest

from repro.core.resilience import ExecutionReport
from repro.obs.report import (
    RunReport,
    default_schema,
    load_trace,
    summarize_trace,
    validate_trace,
)


def make_record(**overrides):
    record = {
        "trace_id": "tid",
        "span_id": "s1",
        "parent_id": None,
        "name": "session",
        "pid": 1,
        "t0_s": 100.0,
        "wall_s": 1.0,
        "cpu_s": 0.5,
        "attrs": {},
    }
    record.update(overrides)
    return record


class TestRunReport:
    def test_defaults(self):
        assert RunReport().to_json() == {
            "simulated_units": 0,
            "execution": None,
            "store": None,
        }

    def test_counters_only_document(self):
        report = RunReport(
            simulated_units=43,
            execution=ExecutionReport(shards=4),
            store={"hits": 0, "misses": 43},
        )
        document = report.to_json()
        assert document["simulated_units"] == 43
        assert document["execution"]["shards"] == 4
        assert document["store"] == {"hits": 0, "misses": 43}
        # Deterministic: no wall-clock values, no paths.
        assert json.dumps(document, sort_keys=True)  # JSON-serializable as-is


class TestLoadTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [make_record(), make_record(span_id="s2", parent_id="s1")]
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
            + "\n\n"
        )
        assert load_trace(path) == records

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert load_trace(path) == []

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(make_record(), sort_keys=True) + "\n{broken\n"
        )
        with pytest.raises(ValueError, match=r":2: malformed JSON"):
            load_trace(path)

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not an object"):
            load_trace(path)


class TestValidateTrace:
    def test_valid_trace(self):
        records = [
            make_record(),
            make_record(span_id="s2", parent_id="s1", name="job"),
        ]
        assert validate_trace(records) == []

    def test_empty_trace_is_valid(self):
        assert validate_trace([]) == []

    def test_schema_matches_emitted_records(self, tmp_path):
        from repro.obs.trace import Tracer, activated, span

        trace = tmp_path / "t.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            with span("session", jobs=1):
                with span("job", type="CharacterizeJob"):
                    pass
        tracer.close()
        assert validate_trace(load_trace(trace)) == []

    def test_missing_field(self):
        record = make_record()
        del record["cpu_s"]
        assert any("cpu_s" in p for p in validate_trace([record]))

    def test_wrong_type(self):
        problems = validate_trace([make_record(pid="not-an-int")])
        assert any("pid" in p for p in problems)

    def test_bool_is_not_a_number(self):
        problems = validate_trace([make_record(wall_s=True)])
        assert any("wall_s" in p for p in problems)

    def test_duplicate_span_ids(self):
        records = [make_record(), make_record()]
        assert any("duplicate" in p for p in validate_trace(records))

    def test_unresolvable_parent(self):
        records = [make_record(parent_id="ghost")]
        problems = validate_trace(records)
        assert any("does not resolve" in p for p in problems)

    def test_rootless_trace(self):
        records = [
            make_record(parent_id="s2"),
            make_record(span_id="s2", parent_id="s1"),
        ]
        assert any("no root" in p for p in validate_trace(records))

    def test_default_schema_field_set(self):
        assert set(default_schema()["fields"]) == set(make_record())


class TestSummarizeTrace:
    def trace_records(self):
        return [
            make_record(
                span_id="s1",
                name="session",
                wall_s=2.0,
                cpu_s=1.0,
                attrs={"planned": 10, "deduped": 4},
            ),
            make_record(
                span_id="s2",
                parent_id="s1",
                name="sweep",
                wall_s=1.5,
                cpu_s=0.9,
                attrs={"units": 6, "cached": 2, "simulated": 4},
            ),
            make_record(
                span_id="s3",
                parent_id="s2",
                name="sweep.shard",
                pid=2,
                wall_s=0.7,
                cpu_s=0.6,
                attrs={"queue_wait_s": 0.1},
            ),
            make_record(
                span_id="s4",
                parent_id="s2",
                name="sweep.shard",
                pid=3,
                wall_s=0.5,
                cpu_s=0.4,
                attrs={"queue_wait_s": 0.3},
            ),
        ]

    def test_aggregates(self):
        summary = summarize_trace(self.trace_records())
        assert summary.spans == 4
        assert summary.traces == 1
        assert summary.processes == 3
        assert summary.roots == 1
        assert summary.wall_s == pytest.approx(2.0)
        assert summary.shards == 2
        assert summary.shard_queue_wait_s == pytest.approx(0.4)
        assert summary.shard_compute_s == pytest.approx(1.2)
        assert summary.funnel == {
            "units": 6,
            "cached": 2,
            "simulated": 4,
            "planned": 10,
            "deduped": 4,
        }

    def test_phases_sorted_by_wall_time(self):
        summary = summarize_trace(self.trace_records())
        assert [phase.name for phase in summary.phases] == [
            "session",
            "sweep",
            "sweep.shard",
        ]
        shard = summary.phases[-1]
        assert shard.count == 2
        assert shard.wall_s == pytest.approx(1.2)

    def test_render(self):
        text = summarize_trace(self.trace_records()).render()
        assert "4 span(s)" in text
        assert "cache funnel: 6 unit(s) requested -> 2 warm from store -> 4 simulated" in text
        assert "batch dedup: 10 planned, 4 deduped" in text
        assert "shards: 2 shard(s)" in text

    def test_service_section_totals_window_queue_wait(self):
        records = [
            make_record(span_id="r1", name="serve.request", attrs={"status": 202}),
            make_record(
                span_id="w1",
                name="serve.batch_window",
                attrs={"jobs": 1, "queue_wait_s": 0.25},
            ),
            make_record(
                span_id="w2",
                name="serve.batch_window",
                attrs={"jobs": 3, "queue_wait_s": 0.5},
            ),
        ]
        summary = summarize_trace(records)
        assert summary.service["batch_windows"] == 2
        assert summary.service["batched_jobs"] == 4
        assert summary.service["queue_wait_s"] == pytest.approx(0.75)
        assert "2 window(s) / 4 job(s), queue wait 0.750s" in summary.render()

    def test_render_empty_trace(self):
        text = summarize_trace([]).render()
        assert "0 span(s)" in text
        assert "cache funnel" not in text
        assert "shards" not in text

    def test_to_json_round_trips_through_json(self):
        summary = summarize_trace(self.trace_records())
        document = json.loads(json.dumps(summary.to_json(), sort_keys=True))
        assert document["spans"] == 4
        assert document["phases"][0]["name"] == "session"
