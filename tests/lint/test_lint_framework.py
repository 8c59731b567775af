"""Framework semantics: suppressions, baselines, file collection, errors."""

import json
import pathlib
import textwrap

import pytest

from repro.lint import (
    DEFAULT_BASELINE_NAME,
    LintError,
    all_rules,
    lint_paths,
    lint_source,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.lint.framework import Finding, collect_files

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

FLAGGED = 'import json\ntext = json.dumps({"a": 1})\n'


def dedent(source):
    return textwrap.dedent(source)


class TestSuppressions:
    def test_same_line_disable(self):
        source = (
            "import json\n"
            'text = json.dumps({"a": 1})  # repro-lint: disable=RPL004\n'
        )
        assert lint_source(source, "x.py") == []

    def test_disable_next_line(self):
        source = (
            "import json\n"
            "# repro-lint: disable-next-line=RPL004\n"
            'text = json.dumps({"a": 1})\n'
        )
        assert lint_source(source, "x.py") == []

    def test_disable_all(self):
        source = dedent(
            """
            import json, time
            # repro-lint: disable-next-line=all
            text = json.dumps({"stamp": time.time()})
            """
        )
        assert lint_source(source, "x.py") == []

    def test_code_list_suppresses_each_listed_code(self):
        source = dedent(
            """
            import json, time
            text = json.dumps({"stamp": time.time()})  # repro-lint: disable=RPL002,RPL004
            """
        )
        assert lint_source(source, "x.py") == []

    def test_suppressing_the_wrong_code_changes_nothing(self):
        source = (
            "import json\n"
            'text = json.dumps({"a": 1})  # repro-lint: disable=RPL001\n'
        )
        assert [f.code for f in lint_source(source, "x.py")] == ["RPL004"]

    def test_suppressed_findings_are_counted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text(
            'import json\ntext = json.dumps({})  # repro-lint: disable=RPL004\n'
        )
        report = lint_paths(["a.py"])
        assert report.clean
        assert report.suppressed == 1


class TestFindingShape:
    def test_location_and_rendering(self):
        (finding,) = lint_source(FLAGGED, "pkg/mod.py")
        assert finding.code == "RPL004"
        assert finding.path == "pkg/mod.py"
        assert finding.line == 2
        assert finding.baseline_key == "pkg/mod.py::RPL004"
        assert finding.render().startswith("pkg/mod.py:2:")
        assert finding.to_json()["message"] == finding.message

    def test_syntax_error_is_a_lint_error(self):
        with pytest.raises(LintError, match="cannot parse"):
            lint_source("def broken(:\n", "bad.py")

    def test_every_rule_declares_code_title_rationale(self):
        rules = all_rules()
        assert len(rules) >= 8
        for rule in rules:
            assert rule.code and rule.title and rule.rationale
            assert rule.interests


class TestCollectFiles:
    def test_directories_expand_sorted_and_skip_caches(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.py").write_text("")
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "c.py").write_text("x = 1\n")
        assert collect_files(["pkg"]) == ["pkg/a.py", "pkg/b.py"]

    def test_explicit_file_and_directory_are_deduplicated(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text("x = 1\n")
        assert collect_files(["a.py", "."]) == ["a.py"]

    def test_missing_path_is_a_lint_error(self):
        with pytest.raises(LintError, match="no such file"):
            collect_files(["definitely/not/here"])


class TestBaseline:
    def make_findings(self, count, path="src/x.py", code="RPL004"):
        return [
            Finding(code=code, path=path, line=i + 1, col=0, message="m")
            for i in range(count)
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / DEFAULT_BASELINE_NAME
        write_baseline(path, self.make_findings(2))
        assert load_baseline(path) == {"src/x.py::RPL004": 2}

    def test_render_is_sorted_and_newline_terminated(self):
        text = render_baseline(self.make_findings(1))
        assert text.endswith("\n")
        assert '"src/x.py::RPL004": 1' in text

    def test_allowance_tolerates_exactly_that_many(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text(FLAGGED + 'more = json.dumps({"b": 2})\n')
        report = lint_paths(["a.py"], baseline={"a.py::RPL004": 2})
        assert report.clean
        assert report.baselined == 2
        assert report.stale_baseline == []

    def test_surplus_findings_are_new(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text(FLAGGED + 'more = json.dumps({"b": 2})\n')
        report = lint_paths(["a.py"], baseline={"a.py::RPL004": 1})
        assert not report.clean
        assert len(report.new_findings) == 1
        assert report.baselined == 1

    def test_fixed_findings_surface_as_stale_entries(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text("x = 1\n")
        report = lint_paths(["a.py"], baseline={"a.py::RPL004": 2})
        assert report.clean
        assert report.stale_baseline == ["a.py::RPL004"]
        assert "stale baseline" in report.render()

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            '{"version": 99, "entries": {}}',
            '{"version": 1, "entries": {"no-separator": 1}}',
            '{"version": 1, "entries": {"a.py::RPL004": 0}}',
            '{"version": 1, "entries": {"a.py::RPL004": "two"}}',
            '{"version": 1, "entries": []}',
        ],
    )
    def test_malformed_baselines_are_lint_errors(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(LintError):
            load_baseline(path)

    def test_missing_baseline_file_is_a_lint_error(self, tmp_path):
        with pytest.raises(LintError, match="cannot read baseline"):
            load_baseline(tmp_path / "absent.json")


class TestReport:
    def test_json_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text(FLAGGED)
        document = lint_paths(["a.py"]).to_json()
        assert set(document) == {
            "version",
            "files",
            "findings",
            "baselined",
            "suppressed",
            "stale_baseline",
            "clean",
        }
        assert document["clean"] is False
        (entry,) = document["findings"]
        assert set(entry) == {"code", "path", "line", "col", "message"}

    def test_render_summary_line(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.py").write_text("x = 1\n")
        assert "0 new finding(s) across 1 file(s)" in lint_paths(["a.py"]).render()


# Suppression comments and the committed baseline name rules by code, so a
# retired rule leaves a gap rather than renumbering the rules after it.
RULE_CODES = {
    "RPL001": "UnseededRandomRule",
    "RPL002": "WallClockRule",
    "RPL003": "SetIterationRule",
    "RPL004": "JsonSortKeysRule",
    "RPL005": "ExecutorSeamRule",
    "RPL006": "SwallowedExceptionRule",
    "RPL008": "AsyncBlockingRule",
    "RPL009": "JobRegistryRule",
    "RPL010": "RoundTripCoverageRule",
}


class TestLintRuleCodes:
    @pytest.mark.parametrize("code", sorted(RULE_CODES))
    def test_rule_keeps_its_code(self, code):
        by_code = {rule.code: type(rule).__name__ for rule in all_rules()}
        assert by_code[code] == RULE_CODES[code]

    def test_retired_code_is_not_reused(self):
        registered = [rule.code for rule in all_rules()]
        assert "RPL007" not in registered
        assert set(RULE_CODES) <= set(registered)

    def test_repository_is_clean_against_the_committed_baseline(
        self, monkeypatch
    ):
        monkeypatch.chdir(REPO_ROOT)
        baseline_path = REPO_ROOT / "lint-baseline.json"
        document = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert not any(key.endswith("::RPL007") for key in document["entries"])
        report = lint_paths(
            ["src/repro", "tests", "benchmarks", "examples"],
            baseline=load_baseline(baseline_path),
        )
        assert report.clean, report.render()
