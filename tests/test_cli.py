"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.service import WorkloadRegistry


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["sweep-lora"])
        assert args.sf == 8
        assert args.bandwidth == 125.0

    def test_campaign_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--image", "wifi"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "$54.53" in output
        assert "22.4" in output  # wakeup ms

    def test_power(self, capsys):
        assert main(["power"]) == 0
        output = capsys.readouterr().out
        assert "sleep" in output
        assert "uW" in output
        assert "iq_tx" in output

    def test_sweep_lora_small(self, capsys):
        code = main(["sweep-lora", "--start", "-110", "--stop", "-116",
                     "--step", "6", "--symbols", "20"])
        assert code == 0
        output = capsys.readouterr().out
        assert "SF8/BW125kHz" in output
        assert "-110.0 dBm" in output

    def test_sweep_ble_small(self, capsys):
        code = main(["sweep-ble", "--start", "-80", "--stop", "-84",
                     "--step", "4", "--packets", "2"])
        assert code == 0
        assert "BER" in capsys.readouterr().out

    def test_campaign_small(self, capsys):
        code = main(["campaign", "--image", "ble", "--nodes", "3",
                     "--seed", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "programmed 3/3 nodes" in output

    def test_fleet_small(self, capsys):
        code = main(["fleet", "--nodes", "64", "--image-bytes", "400",
                     "--seed", "2", "--shards", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "fleet campaign: 64 nodes" in output
        assert "succeeded" in output

    def test_fleet_spill(self, capsys, tmp_path):
        spill = tmp_path / "fleet.jsonl"
        code = main(["fleet", "--nodes", "32", "--image-bytes", "400",
                     "--spill", str(spill)])
        assert code == 0
        assert "spilled" in capsys.readouterr().out
        assert spill.exists()

    def test_adr(self, capsys):
        assert main(["adr", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "path loss" in output
        assert "SF" in output


ALL_COMMANDS = ["info", "power", "sweep-lora", "sweep-ble", "campaign",
                "fleet", "adr"]

#: Fast, scaled-down invocations used to pin every subcommand's exit
#: code without paying for full-size runs.
SMALL_INVOCATIONS = {
    "info": [],
    "power": [],
    "sweep-lora": ["--start", "-110", "--stop", "-113", "--step", "3",
                   "--symbols", "5"],
    "sweep-ble": ["--start", "-80", "--stop", "-82", "--step", "2",
                  "--packets", "2"],
    "campaign": ["--nodes", "2"],
    "fleet": ["--nodes", "16", "--image-bytes", "400"],
    "adr": [],
}


class TestEverySubcommand:
    def test_invocation_table_is_complete(self):
        assert sorted(SMALL_INVOCATIONS) == sorted(ALL_COMMANDS)

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_small_invocation_exits_zero(self, command, capsys):
        assert main([command] + SMALL_INVOCATIONS[command]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_command_runs_one_registry_job_of_its_kind(
            self, command, capsys, monkeypatch):
        # The CLI is a thin client: its engine work runs through the
        # service's workload registry, whose invocation counters the
        # pinned service digests hash.  An engine called around the
        # registry never reaches this spy.
        kinds = []
        invoke = WorkloadRegistry.invoke

        def spy(self, kind, *args, **kwargs):
            kinds.append(kind)
            return invoke(self, kind, *args, **kwargs)

        monkeypatch.setattr(WorkloadRegistry, "invoke", spy)
        assert main([command] + SMALL_INVOCATIONS[command]) == 0
        capsys.readouterr()
        assert kinds == [command]

    def test_failed_job_exits_one(self, capsys):
        # An out-of-range radio power makes the workload raise; the thin
        # client reports the failure on stderr and maps it to exit 1
        # (the legacy CLI crashed with a traceback here).
        assert main(["power", "--tx-power", "99"]) == 1
        captured = capsys.readouterr()
        assert "job failed" in captured.err
        assert not captured.out
