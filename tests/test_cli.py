"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.runs == 5

    def test_table2_only_filter(self):
        args = build_parser().parse_args(
            ["table2", "--only", "mul1", "mul2", "--runs", "2"]
        )
        assert args.only == ["mul1", "mul2"]
        assert args.runs == 2

    def test_only_rejects_unknown_instance(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--only", "mul99"])

    def test_synthesize_options(self):
        args = build_parser().parse_args(
            [
                "synthesize",
                "mul3",
                "--dvs",
                "gradient",
                "--no-probabilities",
                "--seed",
                "9",
            ]
        )
        assert args.problem == "mul3"
        assert args.dvs == "gradient"
        assert not args.probabilities
        assert args.seed == 9

    def test_no_mode_cache_flag(self):
        # The evaluator has one path; the ablation flag is gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["synthesize", "mul1", "--no-mode-cache"]
            )

    def test_async_pool_flag(self):
        from repro.cli import _config_from_args

        default = build_parser().parse_args(["synthesize", "mul1"])
        assert _config_from_args(default).async_pool is True
        args = build_parser().parse_args(
            ["synthesize", "mul1", "--no-async-pool"]
        )
        assert args.no_async_pool
        assert _config_from_args(args).async_pool is False

    def test_vector_dvs_flags(self):
        # PV-DVS has one implementation; its ablation flags are gone.
        for flag in ("--no-vector-dvs", "--dvs-warm-start"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["synthesize", "mul1", flag])

    def test_speculation_flags(self):
        from repro.cli import _config_from_args

        default = build_parser().parse_args(["synthesize", "mul1"])
        config = _config_from_args(default)
        assert config.speculative is True
        assert config.speculation_depth == 1

        args = build_parser().parse_args(
            ["synthesize", "mul1", "--no-speculation"]
        )
        assert args.no_speculation
        assert _config_from_args(args).speculative is False

        args = build_parser().parse_args(
            ["synthesize", "mul1", "--speculation-depth", "2"]
        )
        assert _config_from_args(args).speculation_depth == 2

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "spec.json", "--out", "runs/demo", "--quiet"]
        )
        assert args.command == "campaign"
        assert args.spec == "spec.json"
        assert args.out == "runs/demo"
        assert args.quiet

    def test_campaign_resume_and_report(self):
        args = build_parser().parse_args(["campaign", "--resume", "runs/x"])
        assert args.resume == "runs/x"
        assert args.spec is None
        args = build_parser().parse_args(["campaign", "--report", "runs/x"])
        assert args.report == "runs/x"


class TestInspect:
    def test_inspect_suite_instance(self, capsys):
        assert main(["inspect", "mul9"]) == 0
        out = capsys.readouterr().out
        assert "problem 'mul9'" in out
        assert "architecture" in out
        assert "transitions" in out

    def test_inspect_smartphone(self, capsys):
        assert main(["inspect", "smartphone"]) == 0
        out = capsys.readouterr().out
        assert "rlc" in out
        assert "GPP" in out


class TestUnknownInstance:
    def test_error_lists_valid_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", "mul99"])
        message = str(excinfo.value)
        assert "unknown problem 'mul99'" in message
        assert "smartphone" in message  # full list of valid names


class TestSynthesize:
    def test_synthesize_small_instance(self, capsys):
        code = main(
            [
                "synthesize",
                "mul9",
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "average power" in out
        assert "generations:" in out


class TestSimulate:
    def test_simulate_command(self, capsys):
        code = main(
            [
                "simulate",
                "mul9",
                "--horizon",
                "50",
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated power" in out
        assert "Equation (1)" in out


class TestGanttFlag:
    def test_synthesize_with_gantt(self, capsys):
        code = main(
            [
                "synthesize",
                "mul9",
                "--gantt",
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "|" in out

    def test_save_mapping(self, capsys, tmp_path):
        target = tmp_path / "mapping.json"
        code = main(
            [
                "synthesize",
                "mul9",
                "--save-mapping",
                str(target),
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        assert target.exists()
        import json

        data = json.loads(target.read_text())
        assert data["problem"] == "mul9"


class TestCampaign:
    def _write_spec(self, tmp_path):
        import json

        from repro.runtime.spec import CampaignSpec
        from repro.synthesis.config import SynthesisConfig

        spec = CampaignSpec(
            name="cli-smoke",
            instances=["mul9"],
            runs=1,
            base_seed=400,
            config=SynthesisConfig(
                population_size=10,
                max_generations=8,
                convergence_generations=4,
            ),
            checkpoint_every=2,
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        assert json.loads(path.read_text())["name"] == "cli-smoke"
        return path

    def test_init_spec_writes_loadable_template(self, capsys, tmp_path):
        from repro.runtime.spec import CampaignSpec

        target = tmp_path / "template.json"
        assert main(["campaign", "--init-spec", str(target)]) == 0
        assert "template campaign spec" in capsys.readouterr().out
        template = CampaignSpec.load(target)
        assert template.jobs()

    def test_run_report_resume_cycle(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        run_dir = tmp_path / "run"
        code = main(["campaign", str(spec), "--out", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign done: 2 jobs completed, 0 failed" in out
        assert "Campaign 'cli-smoke'" in out
        assert "mul9" in out

        # Reporting needs only the event stream.
        assert main(["campaign", "--report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Campaign report" in out
        assert "mul9" in out

        # Resuming a finished campaign skips every job.
        assert main(["campaign", "--resume", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "already complete, skipped" in out
        assert "campaign done: 2 jobs completed" in out

    def test_report_without_events_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", "--report", str(tmp_path / "nowhere")])

    def test_missing_arguments_rejected(self):
        with pytest.raises(SystemExit, match="campaign needs"):
            main(["campaign"])

    def test_unknown_instance_in_spec_fails_job(self, capsys, tmp_path):
        import json

        spec = self._write_spec(tmp_path)
        data = json.loads(spec.read_text())
        data["instances"] = ["mul99"]
        spec.write_text(json.dumps(data))
        code = main(["campaign", str(spec), "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert code == 1  # failures reported via exit code
        assert "FAILED" in out
        assert "unknown instance" in out


class TestCampaignStatusTail:
    """--status / --tail work from an event stream alone."""

    def _write_run_dir(self, tmp_path, *, finished):
        import json

        events = [
            {"seq": 0, "ts": 100.0, "event": "campaign_started",
             "campaign": "obs", "total_jobs": 3, "pending_jobs": 3},
            {"seq": 1, "ts": 100.0, "event": "job_started",
             "job_id": "a", "attempt": 1, "resumed_from": 0},
            {"seq": 2, "ts": 110.0, "event": "job_finished",
             "job_id": "a", "power": 0.05, "cpu_time": 9.5,
             "generations": 8, "evaluations": 80},
            {"seq": 3, "ts": 110.0, "event": "job_started",
             "job_id": "b", "attempt": 1, "resumed_from": 0},
            {"seq": 4, "ts": 111.0, "event": "job_failed",
             "job_id": "b", "error": "no feasible mapping"},
            {"seq": 5, "ts": 111.0, "event": "job_started",
             "job_id": "c", "attempt": 1, "resumed_from": 0},
            {"seq": 6, "ts": 115.0, "event": "generation",
             "job_id": "c", "generation": 4, "best_fitness": 1.25,
             "evaluations": 40},
        ]
        if finished:
            events += [
                {"seq": 7, "ts": 120.0, "event": "job_finished",
                 "job_id": "c", "power": 0.04, "cpu_time": 8.0,
                 "generations": 8, "evaluations": 80},
                {"seq": 8, "ts": 120.0, "event": "campaign_finished",
                 "campaign": "obs", "completed_jobs": 2,
                 "failed_jobs": 1},
            ]
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        with open(run_dir / "events.jsonl", "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        return run_dir

    def test_status_mid_campaign(self, capsys, tmp_path):
        run_dir = self._write_run_dir(tmp_path, finished=False)
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'obs': running" in out
        assert "2/3 jobs (67%)" in out
        assert "1 completed" in out and "1 failed" in out
        assert "running: c (generation 4)" in out
        assert "failed: b: no feasible mapping" in out
        assert "eta:" in out

    def test_status_finished_campaign(self, capsys, tmp_path):
        run_dir = self._write_run_dir(tmp_path, finished=True)
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'obs': finished" in out
        assert "3/3 jobs (100%)" in out
        assert "eta" not in out

    def test_status_missing_run_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no event stream"):
            main(["campaign", "--status", str(tmp_path / "nowhere")])

    def test_status_without_summary_skips_pool_stats(
        self, capsys, tmp_path
    ):
        run_dir = self._write_run_dir(tmp_path, finished=False)
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "pool:" not in out

    def test_status_renders_na_for_pr3_era_summary(
        self, capsys, tmp_path
    ):
        # Regression: --status used to crash formatting
        # pool_utilisation when the field is absent from an older
        # run_summary.json (pre-dispatch-window schema, or a run that
        # fell back to serial mid-campaign).
        import pathlib
        import shutil

        fixture = (
            pathlib.Path(__file__).resolve().parent
            / "fixtures"
            / "run_summary_pr3.json"
        )
        run_dir = self._write_run_dir(tmp_path, finished=True)
        shutil.copy(fixture, run_dir / "run_summary.json")
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "pool: workers n/a, utilisation n/a" in out
        assert "in-process:" in out

    def test_tail_no_follow_prints_existing_events(self, capsys, tmp_path):
        run_dir = self._write_run_dir(tmp_path, finished=False)
        code = main(["campaign", "--tail", str(run_dir), "--no-follow"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert "campaign 'obs' started: 3/3 jobs pending" in lines[0]
        assert "[a] finished: 50.000 mW" in out
        assert "[b] FAILED: no feasible mapping" in out
        assert "[c] generation 4" in out

    def test_tail_follow_stops_at_campaign_end(self, capsys, tmp_path):
        # On a finished stream, follow mode terminates by itself at the
        # campaign_finished event — no --no-follow needed.
        run_dir = self._write_run_dir(tmp_path, finished=True)
        assert main(["campaign", "--tail", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].endswith(
            "campaign 'obs' finished: 2 completed, 1 failed"
        )

    def test_tail_missing_run_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no event stream"):
            main(
                ["campaign", "--tail", str(tmp_path / "gone"),
                 "--no-follow"]
            )

    def test_status_on_real_run_dir(self, capsys, tmp_path):
        # End-to-end: a real (tiny) campaign leaves a run directory
        # that --status reads back as finished, with a summary on disk.
        from repro.obs.summary import load_run_summary
        from repro.runtime.spec import CampaignSpec
        from repro.synthesis.config import SynthesisConfig

        spec = CampaignSpec(
            name="cli-status",
            instances=["mul9"],
            runs=1,
            base_seed=7,
            config=SynthesisConfig(
                population_size=10,
                max_generations=4,
                convergence_generations=10,
            ),
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        run_dir = tmp_path / "run"
        assert main(
            ["campaign", str(path), "--out", str(run_dir), "--quiet"]
        ) == 0
        capsys.readouterr()
        assert main(["campaign", "--status", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-status': finished" in out
        assert "2/2 jobs (100%)" in out
        assert load_run_summary(run_dir)["jobs"]["completed"] == 2


class TestTables:
    def test_table1_single_instance(self, capsys):
        code = main(
            [
                "table1",
                "--only",
                "mul9",
                "--runs",
                "1",
                "--population",
                "10",
                "--generations",
                "8",
                "--convergence",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "mul9" in out
        assert "vs paper" in out


class TestProblemsCommand:
    def test_parser_accepts_problems(self):
        args = build_parser().parse_args(["problems"])
        assert args.command == "problems"

    def test_lists_registry_with_mode_counts(self, capsys):
        assert main(["problems"]) == 0
        out = capsys.readouterr().out
        header, *rows = out.strip().splitlines()
        assert "modes" in header and "genes" in header
        names = [row.split()[0] for row in rows]
        assert "mul1" in names
        assert "smartphone" in names
        smartphone_row = next(r for r in rows if r.startswith("smartphone"))
        assert smartphone_row.split()[1] == "8"


class TestAdaptCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["adapt", "mul1"])
        assert args.command == "adapt"
        assert args.problem == "mul1"
        assert args.trace is None
        assert args.steps == 200
        assert args.library is None
        assert args.out is None

    def test_parser_options(self):
        args = build_parser().parse_args(
            [
                "adapt",
                "smartphone",
                "--trace",
                "trace.json",
                "--steps",
                "50",
                "--seed",
                "4",
            ]
        )
        assert args.trace == "trace.json"
        assert args.steps == 50
        assert args.seed == 4

    def test_adapt_samples_a_trace_and_reports(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code = main(
            [
                "adapt",
                "mul1",
                "--steps",
                "30",
                "--population",
                "8",
                "--generations",
                "6",
                "--seed",
                "1",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptation over" in out
        assert "final design:" in out
        assert "Ψ estimate" in out
        assert (out_dir / "events.jsonl").exists()
        assert (out_dir / "library.json").exists()

    def test_adapt_with_explicit_trace_file(self, capsys, tmp_path):
        import json

        from repro.benchgen import registry

        modes = registry.get("mul1").omsm.mode_names
        trace = [[mode, 5.0] for mode in modes] * 3
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(trace))
        code = main(
            [
                "adapt",
                "mul1",
                "--trace",
                str(trace_path),
                "--population",
                "8",
                "--generations",
                "6",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"adaptation over {len(trace) * 5.0:.1f} s" in out

    def test_malformed_trace_rejected(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text('{"not": "a list"}')
        with pytest.raises(SystemExit, match="must be a JSON list"):
            main(
                [
                    "adapt",
                    "mul1",
                    "--trace",
                    str(trace_path),
                    "--population",
                    "8",
                    "--generations",
                    "6",
                ]
            )

    def test_missing_trace_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(
                [
                    "adapt",
                    "mul1",
                    "--trace",
                    str(tmp_path / "nope.json"),
                    "--population",
                    "8",
                    "--generations",
                    "6",
                ]
            )
