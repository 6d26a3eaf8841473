"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure9"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.small is False
        assert args.subsets == 200
        assert args.seed is None
        assert args.workers is None

    def test_workers_flag(self):
        args = build_parser().parse_args(["fleet", "--workers", "4"])
        assert args.workers == 4


class TestMain:
    def test_table1_small(self, capsys):
        assert main(["table1", "--small"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "bot-test" in out

    def test_table3_small(self, capsys):
        assert main(["table3", "--small"]) == 0
        assert "TP rate at /24" in capsys.readouterr().out

    def test_figure3_small_with_subsets(self, capsys):
        assert main(["figure3", "--small", "--subsets", "20"]) == 0
        assert "spatial uncleanliness" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        assert main(["table1", "--small", "--seed", "99"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestScoreCommand:
    def test_score_to_stdout(self, tmp_path, capsys):
        import datetime

        from repro.core.report import DataClass, Report, ReportType
        from repro.io.reports import write_report

        report = Report.from_addresses(
            "bots",
            [f"62.4.9.{i}" for i in range(1, 30)],
            report_type=ReportType.PROVIDED,
            data_class=DataClass.BOTS,
        )
        path = tmp_path / "bots.txt"
        write_report(report, path)

        assert main(["score", "--reports", str(path), "--threshold", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "62.4.9.0/24" in out

    def test_score_to_file(self, tmp_path, capsys):
        from repro.core.report import Report
        from repro.io.reports import write_report

        write_report(
            Report.from_addresses("feed", [f"70.1.2.{i}" for i in range(1, 40)]),
            tmp_path / "feed.txt",
        )
        output = tmp_path / "blocklist.txt"
        code = main([
            "score", "--reports", str(tmp_path / "feed.txt"),
            "--threshold", "0.5", "--output", str(output),
        ])
        assert code == 0
        assert "70.1.2.0/24" in output.read_text()

    def test_score_without_reports_fails(self, capsys):
        assert main(["score"]) == 2

    def test_score_custom_prefix(self, tmp_path, capsys):
        from repro.core.report import Report
        from repro.io.reports import write_report

        write_report(
            Report.from_addresses("feed", [f"70.1.{i}.1" for i in range(40)]),
            tmp_path / "feed.txt",
        )
        assert main([
            "score", "--reports", str(tmp_path / "feed.txt"),
            "--threshold", "0.5", "--prefix", "16",
        ]) == 0
        assert "70.1.0.0/16" in capsys.readouterr().out


class TestValidateCommand:
    def test_validate_small_passes(self, capsys):
        assert main(["validate", "--small"]) == 0
        out = capsys.readouterr().out
        assert "placement_tracks_uncleanliness" in out
        assert "False" not in out


class TestCacheCommand:
    @pytest.fixture
    def private_store(self, tmp_path, monkeypatch):
        """Run cache commands against a throwaway store/dir."""
        from repro.engine import reset_default_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_store()
        yield tmp_path / "cache"
        reset_default_store()

    def test_cache_info_default(self, private_store, capsys):
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "Staged artifact cache" in out
        assert str(private_store) in out

    def test_cache_info_explicit(self, private_store, capsys):
        assert main(["cache", "info"]) == 0
        assert "disk files" in capsys.readouterr().out

    def test_cache_clear(self, private_store, capsys):
        from repro.engine import ReportMappingCodec, default_store
        from repro.core.report import Report

        default_store().put(
            "fp/reports",
            {"bot": Report.from_addresses("bot", ["8.8.8.8"])},
            ReportMappingCodec(),
        )
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared artifact cache (2 disk file(s) removed)" in out
        assert default_store().info()["disk_files"] == 0

    def test_cache_unknown_action(self, private_store, capsys):
        assert main(["cache", "shrink"]) == 2
        assert "unknown cache action" in capsys.readouterr().err


class TestProfileCommand:
    def test_profile_report_file(self, tmp_path, capsys):
        from repro.core.report import Report
        from repro.io.reports import write_report

        write_report(
            Report.from_addresses(
                "feed", [f"70.1.{b}.{i}" for b in range(3) for i in range(1, 60)]
            ),
            tmp_path / "feed.txt",
        )
        assert main(["profile", "--reports", str(tmp_path / "feed.txt")]) == 0
        out = capsys.readouterr().out
        assert "177 addresses" in out
        assert "occupancy_entropy" in out

    def test_profile_without_reports_fails(self):
        assert main(["profile"]) == 2


class TestPacksCommand:
    def test_packs_lists_registry(self, capsys):
        from repro.scenarios import BUILTIN_PACK_NAMES

        assert main(["packs"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_PACK_NAMES:
            assert name in out

    def test_pack_flag_on_scenario_verb(self, capsys):
        assert main(["table1", "--small", "--pack", "dhcp-churn"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_pack_flag_changes_manifest_fingerprint(self, capsys):
        import argparse

        from repro.cli import _scenario_config

        base = argparse.Namespace(small=True, seed=None, pack=None)
        packed = argparse.Namespace(
            small=True, seed=None, pack="sinkhole-takedown"
        )
        assert (
            _scenario_config(base).fingerprint()
            != _scenario_config(packed).fingerprint()
        )

    def test_identity_pack_keeps_fingerprint(self):
        import argparse

        from repro.cli import _scenario_config

        base = argparse.Namespace(small=True, seed=None, pack=None)
        identity = argparse.Namespace(
            small=True, seed=None, pack="paper-default"
        )
        assert (
            _scenario_config(base).fingerprint()
            == _scenario_config(identity).fingerprint()
        )

    def test_unknown_pack_fails_cleanly(self, capsys):
        assert main(["table1", "--small", "--pack", "no-such-pack"]) == 2
        assert "no scenario pack" in capsys.readouterr().err
