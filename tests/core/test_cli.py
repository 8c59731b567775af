"""Tests of the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.core.dataset import save_characterization


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize"])
        assert args.command == "synthesize"
        assert "rca8" in args.adder


class TestCommands:
    def test_synthesize_prints_table(self, capsys):
        assert main(["synthesize", "--adder", "rca8", "bka8"]) == 0
        out = capsys.readouterr().out
        assert "rca8" in out and "bka8" in out
        assert "Critical Path" in out

    def test_synthesize_rejects_bad_adder_name(self):
        with pytest.raises(SystemExit):
            main(["synthesize", "--adder", "fancy99x"])

    def test_characterize_and_table4_roundtrip(self, tmp_path, capsys):
        dataset = tmp_path / "rca8.json"
        exit_code = main(
            [
                "characterize",
                "--architecture",
                "rca",
                "--width",
                "8",
                "--vectors",
                "400",
                "--output",
                str(dataset),
            ]
        )
        assert exit_code == 0
        assert dataset.exists()
        payload = json.loads(dataset.read_text())
        assert payload["adder_name"] == "rca8"
        capsys.readouterr()

        assert main(["table4", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "BER Range" in out and "rca8" in out

    def test_fig5_profile(self, capsys):
        assert (
            main(
                [
                    "fig5",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vdd",
                    "0.6",
                    "--vectors",
                    "400",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bit 0" in out and "0.6" in out

    def test_calibrate_saves_table(self, tmp_path, capsys):
        output = tmp_path / "table.json"
        exit_code = main(
            [
                "calibrate",
                "--architecture",
                "rca",
                "--width",
                "8",
                "--tclk-ns",
                "0.28",
                "--vdd",
                "0.6",
                "--vectors",
                "400",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        payload = json.loads(output.read_text())
        assert payload["width"] == 8
        out = capsys.readouterr().out
        assert "hardware BER" in out

    def test_speculate_reports_modes(self, tmp_path, capsys, rca8_characterization):
        dataset = tmp_path / "char.json"
        save_characterization(rca8_characterization, dataset)
        assert main(["speculate", str(dataset), "--margin", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "accurate mode" in out and "approximate mode" in out


class TestSweepOptions:
    def test_characterize_with_jobs_matches_serial(self, tmp_path, capsys):
        common = [
            "characterize",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vectors",
            "300",
            "--no-cache",
        ]
        assert main(common) == 0
        serial_out = capsys.readouterr().out
        assert main(common + ["--jobs", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_characterize_warm_cache_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        command = [
            "characterize",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vectors",
            "300",
            "--cache-dir",
            str(cache),
        ]
        assert main(command) == 0
        cold_out = capsys.readouterr().out
        assert any(cache.glob("packs/*.pack"))
        assert main(command) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out

    def test_table4_accepts_adder_names(self, tmp_path, capsys):
        assert (
            main(
                [
                    "table4",
                    "rca8",
                    "--vectors",
                    "300",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--jobs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "BER Range" in out and "rca8" in out

    def test_table4_rejects_unknown_token(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["table4", "no-such-file.json", "--no-cache"])

    def test_fig5_with_cache(self, tmp_path, capsys):
        command = [
            "fig5",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vdd",
            "0.6",
            "--vectors",
            "300",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(command) == 0
        cold_out = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == cold_out

    def test_calibrate_with_cache(self, tmp_path, capsys):
        output = tmp_path / "table.json"
        command = [
            "calibrate",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--tclk-ns",
            "0.28",
            "--vdd",
            "0.6",
            "--vectors",
            "300",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--output",
            str(output),
        ]
        assert main(command) == 0
        first = json.loads(output.read_text())
        capsys.readouterr()
        assert main(command) == 0  # warm: served from the store
        assert json.loads(output.read_text()) == first


class TestExploreCommand:
    def _explore(self, tmp_path, *extra):
        return [
            "explore",
            "--architectures",
            "rca",
            "bka",
            "--widths",
            "8",
            "--clock-scales",
            "1.0",
            "0.6",
            "--vdd",
            "1.0",
            "0.5",
            "--vbb",
            "0",
            "2",
            "--vectors",
            "400",
            "--screen-vectors",
            "200",
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra,
        ]

    def test_explore_prints_frontier_and_ranking(self, tmp_path, capsys):
        assert main(self._explore(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "Rank" in out
        assert "successive-halving" in out

    def test_explore_strategies_agree_on_the_frontier(self, tmp_path, capsys):
        assert main(self._explore(tmp_path, "--strategy", "exhaustive")) == 0
        exhaustive_out = capsys.readouterr().out
        assert main(self._explore(tmp_path, "--strategy", "successive-halving")) == 0
        halving_out = capsys.readouterr().out

        def frontier_block(text):
            lines = text.splitlines()
            start = lines.index("Pareto frontier: BER vs Energy/Operation")
            end = next(i for i, line in enumerate(lines[start:], start) if not line.strip())
            return lines[start:end]

        assert frontier_block(exhaustive_out) == frontier_block(halving_out)

    def test_explore_windows_axis(self, tmp_path, capsys):
        assert (
            main(self._explore(tmp_path, "--windows", "none", "4", "--strategy", "exhaustive"))
            == 0
        )
        out = capsys.readouterr().out
        assert "spa8w4" in out

    def test_explore_budget_caps_evaluations(self, tmp_path, capsys):
        assert (
            main(self._explore(tmp_path, "--strategy", "exhaustive", "--budget", "1")) == 0
        )
        out = capsys.readouterr().out
        assert "1 evaluated at 400 vectors" in out

    def test_explore_frontier_persistence_and_resume(self, tmp_path, capsys):
        frontier_path = tmp_path / "frontier.json"
        assert main(self._explore(tmp_path, "--frontier", str(frontier_path))) == 0
        capsys.readouterr()
        assert frontier_path.exists()
        first = json.loads(frontier_path.read_text())
        # resume run: warm store + existing frontier, identical result
        assert main(self._explore(tmp_path, "--frontier", str(frontier_path))) == 0
        capsys.readouterr()
        assert json.loads(frontier_path.read_text()) == first

    def test_explore_seed_is_deterministic(self, tmp_path, capsys):
        command = self._explore(tmp_path, "--strategy", "random", "--budget", "1", "--seed", "5")
        assert main(command) == 0
        first = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == first

    def test_explore_rejects_bad_window_token(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self._explore(tmp_path, "--windows", "sometimes"))

    def test_explore_rejects_dense_axes_without_clock_scales(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "explore",
                    "--widths",
                    "8",
                    "--vdd",
                    "0.6",
                    "--no-cache",
                ]
            )


class TestStoreCommand:
    def _populate(self, tmp_path):
        cache = tmp_path / "cache"
        assert (
            main(
                [
                    "characterize",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vectors",
                    "300",
                    "--cache-dir",
                    str(cache),
                ]
            )
            == 0
        )
        return cache

    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "stats", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "total bytes" in out
        assert str(cache) in out

    def test_prune_bounds_the_store(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert (
            main(["store", "prune", "--cache-dir", str(cache), "--max-entries", "5"]) == 0
        )
        out = capsys.readouterr().out
        assert "pruned" in out
        from repro.core.store import SweepResultStore

        assert len(SweepResultStore(cache)) == 5

    def test_prune_all(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "prune", "--cache-dir", str(cache), "--all"]) == 0
        from repro.core.store import SweepResultStore

        assert len(SweepResultStore(cache)) == 0

    def test_prune_requires_a_limit(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "prune", "--cache-dir", str(tmp_path)])

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["store"])

    def _leftover_v1_root(self, tmp_path):
        """Real entries rewritten in the removed one-file-per-entry layout."""
        from repro.core.store import SweepResultStore

        snapshot = SweepResultStore(self._populate(tmp_path)).snapshot()
        root = tmp_path / "v1"
        for key, document in snapshot.items():
            path = root / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(document, encoding="utf-8")
        files = {path: path.read_bytes() for path in root.glob("*/*.json")}
        assert files
        return root, files

    def test_stats_ignores_a_leftover_v1_layout(self, tmp_path, capsys):
        root, files = self._leftover_v1_root(tmp_path)
        capsys.readouterr()
        assert main(["store", "stats", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "entries    : 0" in out and "total bytes: 0" in out
        assert {path: path.read_bytes() for path in files} == files

    def test_verify_ignores_a_leftover_v1_layout(self, tmp_path, capsys):
        root, files = self._leftover_v1_root(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "scanned    : 0" in out and "quarantined: 0" in out
        assert {path: path.read_bytes() for path in files} == files

    def test_prune_all_leaves_a_leftover_v1_layout_in_place(self, tmp_path, capsys):
        root, files = self._leftover_v1_root(tmp_path)
        capsys.readouterr()
        assert main(["store", "prune", "--cache-dir", str(root), "--all"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        assert {path: path.read_bytes() for path in files} == files

    def test_migrate_subcommand_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "migrate", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err

    def test_verify_reports_a_clean_store(self, tmp_path, capsys):
        cache = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "verify", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "scanned" in out and "valid" in out
        assert "quarantined: 0" in out

    def test_verify_quarantines_corrupt_entries(self, tmp_path, capsys):
        from _store_helpers import corrupt_one_entry

        cache = self._populate(tmp_path)
        victim = corrupt_one_entry(cache)
        capsys.readouterr()
        assert main(["store", "verify", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "quarantined: 1" in out
        assert list((cache / "quarantine").glob("*.quarantined"))
        from repro.core.store import SweepResultStore

        assert SweepResultStore(cache).get(victim) is None
        # The stats command reflects the quarantined entry afterwards.
        assert main(["store", "stats", "--cache-dir", str(cache)]) == 0
        assert "quarantined" in capsys.readouterr().out

    def test_verify_counts_unreadable_entries(self, tmp_path, capsys):
        from _store_helpers import make_segment_unreadable

        cache = self._populate(tmp_path)
        # A directory where a pack segment should be is an I/O error on
        # read even when running as root.
        make_segment_unreadable(cache)
        capsys.readouterr()
        assert main(["store", "verify", "--cache-dir", str(cache)]) == 0
        assert "io errors" in capsys.readouterr().out



class TestResilienceFlags:
    def test_flags_parse_into_the_sweep_vocabulary(self):
        args = build_parser().parse_args(
            [
                "characterize",
                "--shard-timeout",
                "5.5",
                "--max-retries",
                "1",
                "--on-worker-failure",
                "split-and-retry",
            ]
        )
        assert args.shard_timeout == 5.5
        assert args.max_retries == 1
        assert args.on_worker_failure == "split-and-retry"

    def test_unknown_failure_action_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["characterize", "--on-worker-failure", "panic"]
            )

    def test_invalid_shard_timeout_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="shard_timeout"):
            main(
                [
                    "characterize",
                    "--no-cache",
                    "--vectors",
                    "300",
                    "--shard-timeout",
                    "-1",
                ]
            )

    def test_chaos_crash_recovery_is_byte_identical(self, monkeypatch, capsys):
        common = [
            "characterize",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vectors",
            "300",
            "--no-cache",
        ]
        assert main(common) == 0
        captured = capsys.readouterr()
        serial_out = captured.out

        monkeypatch.setenv(
            "REPRO_CHAOS", '[{"action": "crash", "shard": 0, "attempt": 0}]'
        )
        assert main(common + ["--jobs", "2", "--max-retries", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        # The fault-recovery accounting goes to stderr, keeping stdout
        # byte-stable.
        assert "execution:" in captured.err
        assert "crashed" in captured.err

    def test_chaos_explore_counts_one_crash_per_dead_worker(
        self, monkeypatch, capsys
    ):
        # Each of the six evaluations dispatches two shards and the rule
        # crashes shard 0's worker in every one: six workers die, and the
        # shard each takes down with it counts as a failed attempt only.
        common = [
            "explore",
            "--budget",
            "12",
            "--widths",
            "8",
            "16",
            "--vectors",
            "1000",
            "--no-cache",
        ]
        assert main(common) == 0
        serial_out = capsys.readouterr().out
        monkeypatch.setenv(
            "REPRO_CHAOS", '[{"action": "crash", "shard": 0, "attempt": 0}]'
        )
        assert main(common + ["--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "(6 crashed," in captured.err
        assert "6 pool rebuild(s)" in captured.err

    def test_fail_action_exits_cleanly_under_chaos(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", '[{"action": "crash", "shard": 0}]')
        with pytest.raises(SystemExit, match="sweep execution failed"):
            main(
                [
                    "characterize",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vectors",
                    "300",
                    "--no-cache",
                    "--jobs",
                    "2",
                    "--on-worker-failure",
                    "fail",
                ]
            )

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli_module

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli_module._COMMANDS, "synthesize", interrupted)
        assert main(["synthesize"]) == 130
        err = capsys.readouterr().err
        assert "rerun to resume warm" in err
        assert "Traceback" not in err


class TestExploreReviewRegressions:
    def test_invalid_clock_scale_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "explore",
                    "--widths",
                    "8",
                    "--clock-scales",
                    "-1",
                    "--no-cache",
                ]
            )

    def test_unsupported_body_bias_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "explore",
                    "--widths",
                    "8",
                    "--clock-scales",
                    "1.0",
                    "--vbb",
                    "5",
                    "--no-cache",
                ]
            )

    def test_skipped_window_is_announced(self, tmp_path, capsys):
        assert (
            main(
                [
                    "explore",
                    "--architectures",
                    "rca",
                    "--widths",
                    "8",
                    "--windows",
                    "none",
                    "8",
                    "--clock-scales",
                    "1.0",
                    "--vdd",
                    "0.5",
                    "--vbb",
                    "2",
                    "--vectors",
                    "300",
                    "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "window 8 does not fit width 8" in out

    def test_corrupt_frontier_file_is_a_clean_error(self, tmp_path):
        frontier = tmp_path / "frontier.json"
        frontier.write_text("{ truncated")
        with pytest.raises(SystemExit, match="cannot resume"):
            main(
                [
                    "explore",
                    "--widths",
                    "8",
                    "--vectors",
                    "300",
                    "--no-cache",
                    "--frontier",
                    str(frontier),
                ]
            )

    def test_resume_drops_points_of_other_fidelities(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        frontier = tmp_path / "frontier.json"
        base = [
            "explore",
            "--architectures",
            "rca",
            "--widths",
            "8",
            "--clock-scales",
            "1.0",
            "0.6",
            "--vdd",
            "1.0",
            "0.5",
            "--vbb",
            "2",
            "--cache-dir",
            str(cache),
            "--frontier",
            str(frontier),
        ]
        assert main(base + ["--vectors", "300", "--screen-vectors", "200"]) == 0
        capsys.readouterr()
        assert main(base + ["--vectors", "400", "--screen-vectors", "200"]) == 0
        out = capsys.readouterr().out
        assert "dropped" in out
        saved = json.loads(frontier.read_text())
        assert all(point["n_vectors"] == 400 for point in saved["points"])


class TestExploreStimulusIdentity:
    def test_resume_drops_points_of_other_seeds(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        frontier = tmp_path / "frontier.json"
        base = [
            "explore",
            "--architectures",
            "rca",
            "--widths",
            "8",
            "--clock-scales",
            "1.0",
            "--vdd",
            "0.5",
            "--vbb",
            "2",
            "--vectors",
            "300",
            "--screen-vectors",
            "200",
            "--cache-dir",
            str(cache),
            "--frontier",
            str(frontier),
        ]
        assert main(base + ["--seed", "1"]) == 0
        capsys.readouterr()
        assert main(base + ["--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "dropped" in out
        saved = json.loads(frontier.read_text())
        assert all(point["seed"] == 2 for point in saved["points"])

    def test_empty_candidate_set_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no candidates"):
            main(
                [
                    "explore",
                    "--architectures",
                    "rca",
                    "--widths",
                    "8",
                    "--windows",
                    "8",
                    "--no-cache",
                ]
            )


class TestMonteCarloCommand:
    def _montecarlo(self, *extra):
        return [
            "montecarlo",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vectors",
            "300",
            "--samples",
            "8",
            "--vdd",
            "0.8",
            "0.5",
            *extra,
        ]

    def test_reports_distribution_and_yield(self, capsys):
        assert main(self._montecarlo("--no-cache")) == 0
        out = capsys.readouterr().out
        assert "BER distribution per triad" in out
        assert "Yield vs Vdd" in out
        assert "corner TT" in out

    def test_serial_vs_jobs_output_and_store_are_identical(self, tmp_path, capsys):
        serial_cache = tmp_path / "serial"
        sharded_cache = tmp_path / "sharded"
        assert main(self._montecarlo("--cache-dir", str(serial_cache))) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(
                self._montecarlo("--cache-dir", str(sharded_cache), "--jobs", "3")
            )
            == 0
        )
        sharded_out = capsys.readouterr().out
        assert sharded_out == serial_out
        from _store_helpers import store_snapshot

        serial_entries = store_snapshot(serial_cache)
        sharded_entries = store_snapshot(sharded_cache)
        assert serial_entries and serial_entries == sharded_entries

    def test_warm_rerun_is_identical(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(self._montecarlo("--cache-dir", str(cache))) == 0
        cold = capsys.readouterr().out
        assert main(self._montecarlo("--cache-dir", str(cache))) == 0
        assert capsys.readouterr().out == cold

    def test_corner_changes_the_numbers(self, capsys):
        assert main(self._montecarlo("--no-cache")) == 0
        typical = capsys.readouterr().out
        assert main(self._montecarlo("--no-cache", "--corner", "SS")) == 0
        slow = capsys.readouterr().out
        assert slow != typical
        assert "corner SS" in slow

    def test_negative_samples_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="samples must be positive"):
            main(
                [
                    "montecarlo",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--samples",
                    "-4",
                    "--no-cache",
                ]
            )

    def test_unknown_corner_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["montecarlo", "--corner", "XT"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_conflicting_cache_flags_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                self._montecarlo(
                    "--no-cache", "--cache-dir", str(tmp_path / "cache")
                )
            )

    def test_conflicting_cache_flags_rejected_on_every_sweep_command(
        self, tmp_path
    ):
        # The check lives in the shared store resolution, so characterize,
        # explore, fig5 ... behave exactly like montecarlo.
        for command in (
            ["characterize", "--architecture", "rca", "--width", "8"],
            ["explore", "--widths", "8"],
            ["fig5", "--architecture", "rca", "--width", "8"],
        ):
            with pytest.raises(SystemExit, match="conflicts"):
                main(
                    command
                    + ["--vectors", "200", "--no-cache", "--cache-dir", str(tmp_path)]
                )

    def test_negative_vectors_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="n_vectors must be positive"):
            main(
                [
                    "montecarlo",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vectors",
                    "-10",
                    "--no-cache",
                ]
            )

    def test_invalid_margin_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="margin"):
            main(self._montecarlo("--no-cache", "--margin", "1.5"))

    def test_invalid_sigma_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="sigma_vt"):
            main(self._montecarlo("--no-cache", "--sigma-vt", "-0.01"))

    def test_invalid_vdd_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="vdd must be positive"):
            main(self._montecarlo("--no-cache", "--vdd", "-0.5"))


class TestRobustExploreOptions:
    def _explore(self, *extra):
        return [
            "explore",
            "--architectures",
            "rca",
            "--widths",
            "8",
            "--vectors",
            "300",
            "--no-cache",
            *extra,
        ]

    def test_robust_quantile_runs_and_changes_scores(self, capsys):
        assert main(self._explore()) == 0
        nominal = capsys.readouterr().out
        assert (
            main(
                self._explore(
                    "--robust-quantile", "0.9", "--robust-samples", "6"
                )
            )
            == 0
        )
        robust = capsys.readouterr().out
        assert "Pareto frontier" in robust
        assert robust != nominal

    def test_resume_never_mixes_nominal_and_robust_points(self, tmp_path, capsys):
        frontier = tmp_path / "frontier.json"
        base = self._explore("--frontier", str(frontier))
        robust = base + ["--robust-quantile", "0.9", "--robust-samples", "6"]
        assert main(base) == 0
        capsys.readouterr()
        # Nominal BER is systematically lower than p90-over-dies BER: were
        # the nominal points kept, they would dominate and evict the robust
        # measurements.  The resume filter must drop them instead.
        assert main(robust) == 0
        out = capsys.readouterr().out
        assert "dropped" in out
        saved = json.loads(frontier.read_text())
        assert saved["points"], "robust run must persist its own points"
        assert all(point["robust"] is not None for point in saved["points"])
        # And the reverse direction drops the robust points again.
        assert main(base) == 0
        assert "dropped" in capsys.readouterr().out
        saved = json.loads(frontier.read_text())
        assert all(point["robust"] is None for point in saved["points"])

    def test_robust_samples_without_quantile_rejected(self):
        with pytest.raises(SystemExit, match="requires --robust-quantile"):
            main(self._explore("--robust-samples", "8"))

    def test_robust_quantile_out_of_range_rejected(self):
        with pytest.raises(SystemExit, match="robust-quantile"):
            main(self._explore("--robust-quantile", "1.0"))

    def test_negative_robust_samples_rejected(self):
        with pytest.raises(SystemExit, match="n_samples must be positive"):
            main(
                self._explore(
                    "--robust-quantile", "0.9", "--robust-samples", "-2"
                )
            )


class TestStorePruneConflicts:
    def test_all_conflicts_with_max_entries(self, tmp_path):
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                [
                    "store",
                    "prune",
                    "--cache-dir",
                    str(tmp_path),
                    "--all",
                    "--max-entries",
                    "3",
                ]
            )

    def test_all_conflicts_with_max_bytes(self, tmp_path):
        with pytest.raises(SystemExit, match="conflicts"):
            main(
                [
                    "store",
                    "prune",
                    "--cache-dir",
                    str(tmp_path),
                    "--all",
                    "--max-bytes",
                    "100",
                ]
            )

    def test_prune_on_missing_store_reports_zero(self, tmp_path, capsys):
        assert (
            main(
                [
                    "store",
                    "prune",
                    "--cache-dir",
                    str(tmp_path / "absent"),
                    "--max-entries",
                    "5",
                ]
            )
            == 0
        )
        assert "pruned 0 entries" in capsys.readouterr().out


class TestJsonOutput:
    def test_characterize_json(self, capsys):
        assert (
            main(
                [
                    "characterize",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vectors",
                    "240",
                    "--no-cache",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["adder_name"] == "rca8"
        assert len(payload["results"]) == 43

    def test_table4_json(self, capsys):
        assert main(["table4", "rca8", "--vectors", "240", "--no-cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "rca8" in payload["summaries"]
        assert payload["summaries"]["rca8"][0]["ber_range_label"] == "0%"

    def test_fig5_json(self, capsys):
        assert (
            main(
                [
                    "fig5",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vdd",
                    "0.6",
                    "--vectors",
                    "240",
                    "--no-cache",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["operator"] == "rca8"
        assert len(payload["series"][0]["ber_per_bit"]) == 9

    def test_montecarlo_json(self, capsys):
        assert (
            main(
                [
                    "montecarlo",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vectors",
                    "240",
                    "--samples",
                    "6",
                    "--vdd",
                    "0.8",
                    "0.5",
                    "--no-cache",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 6
        assert len(payload["triads"]) == 2
        assert 0.0 <= payload["triads"][0]["yield"] <= 1.0

    def test_json_matches_text_numbers(self, capsys):
        command = [
            "characterize",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vectors",
            "240",
            "--no-cache",
        ]
        assert main(command) == 0
        text = capsys.readouterr().out
        assert main(command + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for entry in payload["results"]:
            assert f"{entry['ber'] * 100:.2f}" in text


class TestFaultsCommand:
    def test_reports_coverage(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vectors",
                    "128",
                    "--no-cache",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stuck-at faults" in out
        assert "coverage" in out

    def test_json_output(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--architecture",
                    "rca",
                    "--width",
                    "8",
                    "--vectors",
                    "128",
                    "--no-cache",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_faults"] == len(payload["faults"])
        assert 0.0 < payload["coverage"] <= 1.0

    def test_warm_rerun_is_identical(self, tmp_path, capsys):
        command = [
            "faults",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vectors",
            "128",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(command) == 0
        cold = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == cold


class TestBatchCommand:
    def _write_jobs(self, tmp_path, jobs):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": jobs}, sort_keys=True))
        return str(path)

    def test_runs_jobs_and_reports_dedup(self, tmp_path, capsys):
        jobs_file = self._write_jobs(
            tmp_path,
            [
                {
                    "type": "characterize",
                    "operator": "rca8",
                    "pattern": {"vectors": 240},
                },
                {
                    "type": "fig5",
                    "operator": "rca8",
                    "supply_voltages": [0.8, 0.5],
                    "vectors": 240,
                },
            ],
        )
        assert main(["batch", jobs_file, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "== job 1: characterize ==" in out
        assert "== job 2: fig5 ==" in out
        assert "BER vs Energy/Operation" in out
        assert "deduped" in out and "simulated" in out

    def test_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read jobs file"):
            main(["batch", str(tmp_path / "absent.json"), "--no-cache"])

    def test_invalid_json_is_a_clean_error(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text("{ truncated")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["batch", str(path), "--no-cache"])

    def test_unknown_job_type_is_a_clean_error(self, tmp_path):
        jobs_file = self._write_jobs(tmp_path, [{"type": "frobnicate"}])
        with pytest.raises(SystemExit, match="unknown job type"):
            main(["batch", jobs_file, "--no-cache"])

    def test_too_wide_operator_is_a_clean_error(self, tmp_path):
        jobs_file = self._write_jobs(
            tmp_path, [{"type": "characterize", "operator": "rca63"}]
        )
        with pytest.raises(SystemExit, match="rca63 has a 64-bit result"):
            main(["batch", jobs_file, "--no-cache"])

    def test_empty_document_is_a_clean_error(self, tmp_path):
        jobs_file = self._write_jobs(tmp_path, [])
        with pytest.raises(SystemExit, match="no jobs"):
            main(["batch", jobs_file, "--no-cache"])

    def test_warm_batch_is_byte_identical(self, tmp_path, capsys):
        jobs_file = self._write_jobs(
            tmp_path,
            [
                {
                    "type": "characterize",
                    "operator": "rca8",
                    "pattern": {"vectors": 240},
                },
                {"type": "table4", "datasets": ["rca8"], "vectors": 240},
            ],
        )
        command = ["batch", jobs_file, "--cache-dir", str(tmp_path / "cache")]
        assert main(command) == 0
        cold = capsys.readouterr().out
        assert main(command) == 0
        warm = capsys.readouterr().out
        # identical job output; only the work accounting line differs
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]
        assert "0 simulated" in warm.splitlines()[-1]


class TestCleanErrorSurface:
    def test_table4_unknown_operator_name_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot parse adder name"):
            main(["table4", "nosuch8", "--no-cache"])

    def test_batch_table4_unknown_operator_name_exits_cleanly(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                {"jobs": [{"type": "table4", "datasets": ["nosuch8"]}]},
                sort_keys=True,
            )
        )
        with pytest.raises(SystemExit, match="cannot parse adder name"):
            main(["batch", str(path), "--no-cache"])


class TestOperatorWidthLimit:
    """Operators whose result overflows the 62-bit output word are usage
    errors: exit status 2 and one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "command, width",
        [
            ("characterize", "62"),
            ("characterize", "63"),
            ("montecarlo", "62"),
            ("montecarlo", "64"),
            ("fig5", "62"),
            ("faults", "62"),
        ],
    )
    def test_too_wide_operator_is_a_usage_error(self, command, width, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--architecture", "rca", "--width", width, "--no-cache"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err == [
            f"repro {command}: error: rca{width} has a {int(width) + 1}-bit "
            "result; at most 62 result bits are supported (adder width <= 61, "
            "multiplier N+M <= 62)"
        ]

    def test_process_exits_2_without_a_traceback(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        process = subprocess.run(
            [sys.executable, "-m", "repro.cli", "characterize", "--width", "62",
             "--no-cache"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert process.returncode == 2
        assert "Traceback" not in process.stderr
        assert len(process.stderr.splitlines()) == 1
        assert "rca62 has a 63-bit result" in process.stderr
