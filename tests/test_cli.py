"""CLI coverage: parsing, flag propagation, observability outputs.

Execution-heavy subcommands are exercised only on the smoke preset (or
parse-only) so the suite stays fast; the point is the *plumbing* — every
flag must reach the layer that consumes it.
"""

import json

import pytest

from repro import cli
from repro.analysis.trace_report import summarize
from repro.obs import read_trace

ALL_COMMANDS = (
    "solve", "figure3", "reduction", "annealing",
    "table1", "dual", "extensions", "space",
    "robust", "robustness", "bench", "campaign", "serve",
)

#: subcommands without --preset/--seed (runtime flags only)
RUNTIME_ONLY_COMMANDS = ("table1", "bench", "serve")

#: minimal valid argv per subcommand (parse-level only)
PARSE_ARGV = {
    "solve": ["solve", "--pdr-min", "90"],
    "figure3": ["figure3"],
    "reduction": ["reduction"],
    "annealing": ["annealing"],
    "table1": ["table1"],
    "dual": ["dual", "--min-lifetime-days", "15"],
    "extensions": ["extensions"],
    "space": ["space"],
    "robust": ["robust", "--pdr-min", "85"],
    "robustness": ["robustness"],
    "bench": ["bench"],
    "campaign": ["campaign"],
    "serve": ["serve", "--root", "/tmp/fleet"],
}


class TestParsing:
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_every_subcommand_parses(self, command):
        args = cli.build_parser().parse_args(PARSE_ARGV[command])
        assert args.command == command

    @pytest.mark.parametrize(
        "command", sorted(set(ALL_COMMANDS) - set(RUNTIME_ONLY_COMMANDS))
    )
    def test_common_flags_parse_everywhere(self, command):
        argv = PARSE_ARGV[command] + [
            "--preset", "smoke", "--seed", "7", "--jobs", "2",
            "--cache-dir", "/tmp/c", "--trace-out", "/tmp/t.jsonl",
            "--metrics-out", "/tmp/m.json",
        ]
        args = cli.build_parser().parse_args(argv)
        assert (args.preset, args.seed, args.jobs) == ("smoke", 7, 2)
        assert args.cache_dir == "/tmp/c"
        assert args.trace_out == "/tmp/t.jsonl"
        assert args.metrics_out == "/tmp/m.json"

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_runtime_flags_parse_on_every_subcommand(self, command):
        """The add_runtime_flags hoist: every subcommand — including
        table1, bench, campaign, and serve — takes the uniform runtime
        surface (--jobs/--cache-dir/--trace-out/--metrics-out)."""
        argv = PARSE_ARGV[command] + [
            "--jobs", "2", "--cache-dir", "/tmp/c",
            "--trace-out", "/tmp/t.jsonl", "--metrics-out", "/tmp/m.json",
        ]
        args = cli.build_parser().parse_args(argv)
        assert args.jobs == 2
        assert args.cache_dir == "/tmp/c"
        assert args.trace_out == "/tmp/t.jsonl"
        assert args.metrics_out == "/tmp/m.json"

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["solve", "--pdr-min", "90",
                                           "--no-such-flag"])
        assert exc.value.code != 0

    def test_missing_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([])
        assert exc.value.code != 0

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["solve", "--pdr-min", "90",
                                           "--preset", "nope"])

    def test_solve_requires_pdr_min(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["solve"])


class TestFlagPropagation:
    def test_jobs_and_cache_dir_reach_make_problem(self, monkeypatch, tmp_path):
        """--jobs/--cache-dir must flow into the problem construction."""
        from repro.experiments import scenario as scenario_mod

        seen = {}
        real_make_problem = scenario_mod.make_problem

        def spy(pdr_min, preset, **kwargs):
            seen.update(kwargs, pdr_min=pdr_min, preset=preset)
            # run serially regardless, to keep the test light
            kwargs = dict(kwargs, n_jobs=1)
            return real_make_problem(pdr_min, preset, **kwargs)

        monkeypatch.setattr(scenario_mod, "make_problem", spy)
        code = cli.main([
            "solve", "--pdr-min", "90", "--preset", "smoke",
            "--seed", "3", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert seen["pdr_min"] == 0.90
        assert seen["preset"] == "smoke"
        assert seen["seed"] == 3
        assert seen["n_jobs"] == 2
        assert seen["cache_dir"] == str(tmp_path / "cache")
        # the persistent cache actually materialized where we pointed it
        assert list((tmp_path / "cache").glob("*.jsonl"))

    def test_pdr_min_accepts_percent_or_fraction(self, monkeypatch):
        from repro.experiments import scenario as scenario_mod

        captured = []
        real = scenario_mod.make_problem

        def spy(pdr_min, preset, **kwargs):
            captured.append(pdr_min)
            return real(pdr_min, preset, **dict(kwargs, n_jobs=1))

        monkeypatch.setattr(scenario_mod, "make_problem", spy)
        cli.main(["solve", "--pdr-min", "90", "--preset", "smoke"])
        cli.main(["solve", "--pdr-min", "0.9", "--preset", "smoke"])
        assert captured == [0.90, 0.90]


class TestObservabilityOutputs:
    def test_trace_out_writes_manifest_then_events(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = cli.main([
            "solve", "--pdr-min", "90", "--preset", "smoke",
            "--trace-out", str(trace),
        ])
        assert code == 0
        events = read_trace(trace)
        assert events[0]["kind"] == "manifest"
        manifest = events[0]
        assert manifest["command"] == "solve"
        assert manifest["preset"] == "smoke"
        assert manifest["seed"] == 0
        assert len(manifest["scenario_fingerprint"]) == 16
        kinds = {e["kind"] for e in events}
        # every instrumented layer contributed
        assert "explorer.start" in kinds
        assert "explorer.candidate" in kinds
        assert "explorer.done" in kinds
        assert "oracle.evaluate" in kinds
        assert "milp.solve" in kinds
        assert "des.run" in kinds
        assert events[-1]["kind"] == "run.exit"
        assert events[-1]["code"] == 0

    def test_metrics_out_writes_registry_json(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        code = cli.main([
            "solve", "--pdr-min", "90", "--preset", "smoke",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["explorer.runs"]["value"] == 1
        assert payload["milp.solves"]["value"] >= 1
        assert payload["simplex.solves"]["value"] >= 1
        assert payload["des.runs"]["value"] >= 1
        assert payload["oracle.wall_seconds"]["count"] >= 1

    def test_metric_counters_do_not_depend_on_jobs(self, tmp_path, capsys):
        # pool children ship their counter increments back, so a parallel
        # run counts exactly what a serial one does (wall-clock counters
        # aside)
        def counters(jobs):
            metrics = tmp_path / f"m{jobs}.json"
            assert cli.main([
                "solve", "--pdr-min", "90", "--preset", "smoke",
                "--jobs", str(jobs), "--metrics-out", str(metrics),
            ]) == 0
            return {
                name: entry["value"]
                for name, entry in json.loads(metrics.read_text()).items()
                if entry["type"] == "counter"
                and not name.endswith("seconds")
            }

        serial = counters(1)
        assert serial["des.runs"] >= 1
        assert counters(2) == serial

    def test_trace_report_summarizes_run(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert cli.main([
            "solve", "--pdr-min", "90", "--preset", "smoke",
            "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        report = summarize(read_trace(trace))
        assert "manifest" in report
        assert "explorer trajectory" in report
        assert "accept" in report
        assert "oracle" in report and "milp" in report
        from repro.analysis import trace_report

        assert trace_report.main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "explorer trajectory" in out
        assert trace_report.main([str(trace), "--json"]) == 0
        json.loads(capsys.readouterr().out)  # --json emits valid JSON

    def test_trace_report_usage_errors(self, tmp_path, capsys):
        from repro.analysis import trace_report

        assert trace_report.main([]) == 2
        assert trace_report.main([str(tmp_path / "missing.jsonl")]) != 0

    def test_table1_needs_no_observability(self, capsys):
        assert cli.main(["table1"]) == 0
        assert "CC2650" in capsys.readouterr().out

    def test_space_runs_without_flags(self, capsys):
        assert cli.main(["space", "--preset", "smoke"]) == 0
        assert "configurations" in capsys.readouterr().out


class TestJobsValidation:
    """``--jobs`` must be a positive integer; 0 and negatives used to be
    silently forwarded to ``resolve_jobs`` with surprising semantics."""

    @pytest.mark.parametrize("bad", ["0", "-2", "1.5", "many"])
    def test_invalid_jobs_rejected_at_parse_time(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["solve", "--pdr-min", "90", "--jobs", bad]
            )
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_positive_jobs_accepted(self):
        args = cli.build_parser().parse_args(
            ["solve", "--pdr-min", "90", "--jobs", "3"]
        )
        assert args.jobs == 3


class TestJobsAutoDetect:
    """An omitted ``--jobs`` resolves to the detected core count (clamped
    to the preset's feasible-configuration count); explicit values pass
    through untouched.  The manifest records both request and resolution."""

    def test_omitted_jobs_autodetects(self):
        args = cli.build_parser().parse_args(
            ["solve", "--pdr-min", "90", "--preset", "smoke"]
        )
        assert args.jobs is None
        cli._resolve_jobs(args)
        assert args.jobs_requested is None
        assert args.jobs >= 1

    def test_explicit_jobs_passes_through(self):
        args = cli.build_parser().parse_args(
            ["solve", "--pdr-min", "90", "--jobs", "1"]
        )
        cli._resolve_jobs(args)
        assert args.jobs == 1
        assert args.jobs_requested == 1

    def test_auto_jobs_clamps_to_work_items(self):
        from repro.core.parallel import auto_jobs

        assert auto_jobs(limit=1) == 1
        assert auto_jobs(limit=None) >= 1
        # A limit below one still yields a worker.
        assert auto_jobs(limit=0) == 1


class TestBenchCommand:
    def test_bench_parses_with_defaults(self):
        args = cli.build_parser().parse_args(["bench"])
        assert args.command == "bench"
        assert args.preset == "ci"
        assert args.suite == "hotpath"
        # --out defaults per suite at dispatch time (BENCH_<suite>.json)
        assert args.out is None
        assert args.repeats == 3
        assert args.des_events == 50_000

    def test_bench_fleet_suite_parses(self):
        args = cli.build_parser().parse_args([
            "bench", "--suite", "fleet", "--wearers", "4",
            "--workers", "3",
        ])
        assert (args.suite, args.wearers, args.workers) == ("fleet", 4, 3)
        assert args.out is None

    def test_bench_flags_parse(self):
        args = cli.build_parser().parse_args([
            "bench", "--preset", "smoke", "--out", "x.json",
            "--repeats", "1", "--des-events", "1000",
        ])
        assert (args.preset, args.out, args.repeats, args.des_events) == (
            "smoke", "x.json", 1, 1000
        )

    def test_bench_runs_on_smoke(self, tmp_path, capsys):
        import json

        out = tmp_path / "bench.json"
        assert cli.main([
            "bench", "--preset", "smoke", "--out", str(out),
            "--repeats", "1", "--des-events", "2000",
        ]) == 0
        report = json.loads(out.read_text())
        assert report["benchmark"] == "hotpath"
        assert report["single_replicate"]["bit_identical_outcome"]
        assert report["milp_warm_vs_cold"]["identical_objectives"]
        assert "wrote" in capsys.readouterr().out


class TestRobustCommands:
    def test_robust_requires_pdr_min(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["robust"])
        assert exc.value.code != 0

    def test_robust_flags_parse(self):
        args = cli.build_parser().parse_args([
            "robust", "--pdr-min", "85", "--quantile", "0.25",
            "--ensemble-size", "4", "--hub-stress",
            "--outage-fraction", "0.3", "--fault-seed", "9",
        ])
        assert args.pdr_min == 85.0
        assert args.quantile == 0.25
        assert args.ensemble_size == 4
        assert args.hub_stress is True
        assert args.outage_fraction == 0.3
        assert args.fault_seed == 9

    def test_robust_runs_on_smoke(self, capsys):
        assert cli.main([
            "robust", "--pdr-min", "85", "--preset", "smoke", "--seed", "3",
            "--ensemble-size", "2", "--hub-stress", "--quantile", "0",
            "--outage-fraction", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault ensemble" in out
        assert "q-PDR" in out

    def test_robust_infeasible_exits_one(self, capsys):
        # A 60% outage at quantile 0 is unsatisfiable at PDRmin=95%.
        assert cli.main([
            "robust", "--pdr-min", "95", "--preset", "smoke", "--seed", "3",
            "--ensemble-size", "1", "--hub-stress", "--quantile", "0",
            "--outage-fraction", "0.6",
        ]) == 1
        assert "infeasible" in capsys.readouterr().out


class TestJournalFlags:
    """--out/--resume plumbing: crash-safe journals from the CLI."""

    def test_out_and_resume_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["solve", "--pdr-min", "90", "--out", "a", "--resume", "b"]
            )
        assert exc.value.code == 2

    def test_journal_flags_parse_on_solve_and_robust(self):
        args = cli.build_parser().parse_args(
            ["solve", "--pdr-min", "90", "--out", "run"]
        )
        assert args.out == "run" and args.resume is None
        args = cli.build_parser().parse_args(
            ["robust", "--pdr-min", "85", "--resume", "run"]
        )
        assert args.resume == "run" and args.out is None

    def test_correlated_links_parses(self):
        args = cli.build_parser().parse_args(
            ["robust", "--pdr-min", "85", "--correlated-links"]
        )
        assert args.correlated_links is True
        args = cli.build_parser().parse_args(["robust", "--pdr-min", "85"])
        assert args.correlated_links is False

    def _solve_argv(self, extra):
        return [
            "solve", "--pdr-min", "90", "--preset", "smoke", "--jobs", "1",
        ] + extra

    def test_solve_kill_and_resume_reproduces_summary(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert cli.main(self._solve_argv(["--out", str(run_dir)])) == 0
        out = capsys.readouterr().out
        assert "run journal:" in out and "run summary:" in out
        summary_path = run_dir / "summary.json"
        golden = summary_path.read_text()

        # simulate a SIGKILL mid-run: keep a journal prefix + torn tail,
        # drop the summary (it is written only at completion)
        journal_path = run_dir / "journal.jsonl"
        lines = journal_path.read_text().splitlines()
        assert len(lines) > 5
        journal_path.write_text("\n".join(lines[:4]) + "\n" + lines[4][:30])
        summary_path.unlink()

        assert cli.main(self._solve_argv(["--resume", str(run_dir)])) == 0
        capsys.readouterr()
        assert summary_path.read_text() == golden
        # the journal healed back to the full trajectory
        assert len(journal_path.read_text().splitlines()) == len(lines)

    def test_resume_with_mismatched_arguments_exits_two(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert cli.main(self._solve_argv(["--out", str(run_dir)])) == 0
        capsys.readouterr()
        code = cli.main([
            "solve", "--pdr-min", "80", "--preset", "smoke", "--jobs", "1",
            "--resume", str(run_dir),
        ])
        assert code == 2
        assert "manifest mismatch" in capsys.readouterr().err

    def test_resume_without_journal_exits_two(self, tmp_path, capsys):
        code = cli.main(
            self._solve_argv(["--resume", str(tmp_path / "nowhere")])
        )
        assert code == 2
        assert "no journal to resume" in capsys.readouterr().err

    def test_out_refuses_existing_journal(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert cli.main(self._solve_argv(["--out", str(run_dir)])) == 0
        capsys.readouterr()
        assert cli.main(self._solve_argv(["--out", str(run_dir)])) == 2
        assert "already exists" in capsys.readouterr().err

    def test_robust_kill_and_resume_reproduces_summary(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = [
            "robust", "--pdr-min", "85", "--preset", "smoke", "--seed", "3",
            "--ensemble-size", "2", "--hub-stress", "--quantile", "0",
            "--outage-fraction", "0.2", "--jobs", "1",
        ]
        assert cli.main(argv + ["--out", str(run_dir)]) == 0
        capsys.readouterr()
        summary_path = run_dir / "summary.json"
        golden = summary_path.read_text()
        journal_path = run_dir / "journal.jsonl"
        lines = journal_path.read_text().splitlines()
        assert len(lines) > 3
        journal_path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:30])
        summary_path.unlink()

        assert cli.main(argv + ["--resume", str(run_dir)]) == 0
        capsys.readouterr()
        assert summary_path.read_text() == golden
        assert len(journal_path.read_text().splitlines()) == len(lines)


class TestCampaignCommand:
    """The campaign subcommand: population flags, directory plumbing,
    and the byte-identical resume guarantee at CLI level."""

    def test_campaign_parses_with_defaults(self):
        args = cli.build_parser().parse_args(["campaign"])
        assert args.command == "campaign"
        assert args.wearers == 4
        assert args.mode == "solve"
        assert args.pdr_min is None and args.spec is None
        assert args.out is None and args.resume is None

    def test_out_and_resume_are_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["campaign", "--out", "a", "--resume", "b"]
            )
        assert exc.value.code == 2

    def test_campaign_requires_directory(self, capsys):
        assert cli.main(["campaign", "--preset", "smoke", "--jobs", "1"]) == 2
        assert "--out" in capsys.readouterr().err

    def _argv(self, extra):
        return [
            "campaign", "--wearers", "2", "--preset", "smoke",
            "--pdr-min", "90", "--jobs", "1",
        ] + extra

    def test_campaign_runs_and_resumes_byte_identical(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        assert cli.main(self._argv(["--out", str(camp)])) == 0
        out = capsys.readouterr().out
        assert "aggregate fingerprint:" in out
        assert "campaign aggregate:" in out
        golden = (camp / "aggregate.json").read_text()
        golden_atlas = (camp / "atlas.json").read_text()

        # simulate a kill: one wearer keeps only a torn journal prefix,
        # losing its summary; the other is untouched (already complete)
        victims = sorted(camp.glob("shards/*/*/journal.jsonl"))
        assert victims
        lines = victims[0].read_text().splitlines()
        victims[0].write_text("\n".join(lines[:3]) + "\n" + lines[3][:25])
        (victims[0].parent / "summary.json").unlink()
        (camp / "aggregate.json").unlink()

        assert cli.main(self._argv(["--resume", str(camp)])) == 0
        capsys.readouterr()
        assert (camp / "aggregate.json").read_text() == golden
        assert (camp / "atlas.json").read_text() == golden_atlas

    def test_out_refuses_existing_campaign(self, tmp_path, capsys):
        camp = tmp_path / "camp"
        assert cli.main(self._argv(["--out", str(camp)])) == 0
        capsys.readouterr()
        assert cli.main(self._argv(["--out", str(camp)])) == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_without_campaign_exits_two(self, tmp_path, capsys):
        code = cli.main(self._argv(["--resume", str(tmp_path / "nowhere")]))
        assert code == 2
        assert "no campaign" in capsys.readouterr().err

    def test_spec_file_round_trips(self, tmp_path, capsys):
        from repro.campaign.spec import CampaignSpec, make_population

        spec = make_population(
            2, preset="smoke", base_seed=11, name="from-file"
        )
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        camp = tmp_path / "camp"
        assert cli.main([
            "campaign", "--spec", str(spec_path), "--jobs", "1",
            "--out", str(camp),
        ]) == 0
        assert "from-file" in capsys.readouterr().out
        assert CampaignSpec.load(spec_path).fingerprint() == spec.fingerprint()


class TestServeParsing:
    def test_serve_requires_root(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["serve"])
        assert exc.value.code == 2

    def test_serve_defaults(self):
        args = cli.build_parser().parse_args(["serve", "--root", "/tmp/f"])
        assert args.root == "/tmp/f"
        assert (args.host, args.port) == ("127.0.0.1", 8732)
        assert args.shards is None
        assert args.lease_ttl == 30.0

    def test_serve_lease_ttl_parses(self):
        args = cli.build_parser().parse_args(
            ["serve", "--root", "/tmp/f", "--lease-ttl", "2.5"]
        )
        assert args.lease_ttl == 2.5


class TestWorkerParsing:
    def test_worker_requires_coordinator_and_workdir(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["worker"])
        assert exc.value.code == 2

    def test_worker_defaults(self):
        args = cli.build_parser().parse_args([
            "worker", "--coordinator", "http://127.0.0.1:8732",
            "--workdir", "/tmp/w",
        ])
        assert args.coordinator == "http://127.0.0.1:8732"
        assert args.workdir == "/tmp/w"
        assert args.name is None
        assert args.poll == 1.0
        assert args.exit_idle is None

    def test_worker_flags_parse(self):
        args = cli.build_parser().parse_args([
            "worker", "--coordinator", "http://h:1", "--workdir", "/w",
            "--name", "rig-7", "--poll", "0.2", "--exit-idle", "5",
            "--jobs", "2",
        ])
        assert (args.name, args.poll, args.exit_idle) == ("rig-7", 0.2, 5.0)
        assert args.jobs == 2


class TestCampaignReportSection:
    """trace_report renders campaign fleet activity and stays silent on
    traces that predate the campaign events."""

    def test_campaign_events_render(self):
        report = summarize([
            {"kind": "campaign.start", "seq": 1, "t": 0.0,
             "campaign": "abcd", "name": "fleet", "preset": "smoke",
             "wearers": 2, "shards": 1, "jobs": 1},
            {"kind": "campaign.wearer_done", "seq": 2, "t": 0.4,
             "campaign": "abcd", "wearer_id": "w000", "state": "ran",
             "found": True},
            {"kind": "campaign.wearer_done", "seq": 3, "t": 0.8,
             "campaign": "abcd", "wearer_id": "w001", "state": "resumed",
             "found": True},
            {"kind": "campaign.done", "seq": 4, "t": 1.0,
             "campaign": "abcd", "aggregate_fingerprint": "ffff",
             "feasible": 2, "wearers": 2},
        ])
        assert "campaign" in report
        assert "start: fleet [abcd] preset=smoke" in report
        assert "wearers completed: 2 (1 ran, 1 resumed), 2 feasible" in report
        assert "done: aggregate ffff  feasible 2/2" in report

    def test_traces_without_campaign_events_skip_section(self):
        report = summarize([
            {"kind": "des.run", "seq": 1, "t": 0.1, "events": 10},
        ])
        assert "campaign" not in report


class TestFabricReportSection:
    """``trace_report`` renders lease-queue/worker fabric activity and
    stays silent on traces that predate the fabric events."""

    def test_fabric_events_render(self):
        report = summarize([
            {"kind": "queue.lease", "seq": 1, "t": 0.1,
             "campaign": "abcd", "shard": 0, "worker": "w1"},
            {"kind": "queue.lease", "seq": 2, "t": 0.2,
             "campaign": "abcd", "shard": 1, "worker": "w2"},
            {"kind": "queue.expire", "seq": 3, "t": 0.5,
             "campaign": "abcd", "shard": 0, "worker": "w1"},
            {"kind": "queue.lease", "seq": 4, "t": 0.6,
             "campaign": "abcd", "shard": 0, "worker": "w2"},
            {"kind": "queue.commit", "seq": 5, "t": 0.9,
             "campaign": "abcd", "shard": 1, "worker": "w2",
             "duplicate": False},
            {"kind": "queue.commit", "seq": 6, "t": 1.0,
             "campaign": "abcd", "shard": 0, "worker": "w2",
             "duplicate": False},
            {"kind": "queue.commit", "seq": 7, "t": 1.1,
             "campaign": "abcd", "shard": 0, "worker": "w1",
             "duplicate": True},
            {"kind": "queue.release", "seq": 8, "t": 1.2,
             "campaign": "abcd", "shard": 2, "worker": "w1",
             "reason": "drain"},
            {"kind": "queue.done", "seq": 9, "t": 1.5,
             "campaign": "abcd", "aggregate_fingerprint": "ffff",
             "feasible": 2, "wearers": 2},
        ])
        assert "fabric (lease queue / workers)" in report
        assert "leases granted: 3 to 2 worker(s) (w1, w2)" in report
        assert "lease expirations (reassignments): 1 (1x w1)" in report
        assert "voluntary releases: 1" in report
        assert "shard commits: 2 (+1 duplicate no-op(s))" in report
        assert "w2: 2 shard(s)" in report
        assert "done: aggregate ffff  feasible 2/2" in report

    def test_worker_side_trace_renders_commit_activity(self):
        # A worker's own trace has no queue.* events (those live in the
        # coordinator's trace) — the section renders the agent's view.
        report = summarize([
            {"kind": "worker.lease", "seq": 1, "t": 0.1,
             "worker": "wt", "campaign": "abcd", "shard": 0, "wearers": 2},
            {"kind": "worker.commit", "seq": 2, "t": 0.9,
             "worker": "wt", "campaign": "abcd", "shard": 0,
             "duplicate": False, "wearers": 2, "wearers_resumed": 2,
             "campaign_state": "done"},
        ])
        assert "fabric (lease queue / workers)" in report
        assert "shards run and committed: 1" in report
        assert "wt: 1 shard(s) (2 wearer(s) resumed from journals)" in report

    def test_steal_and_cache_events_render(self):
        report = summarize([
            {"kind": "queue.split", "seq": 1, "t": 0.1,
             "campaign": "abcd", "shard": 0, "holder": "slow",
             "wearers": 3},
            {"kind": "queue.steal", "seq": 2, "t": 0.2,
             "campaign": "abcd", "shard": 0, "wearer_id": "w002",
             "worker": "fast"},
            {"kind": "queue.steal", "seq": 3, "t": 0.3,
             "campaign": "abcd", "shard": 0, "wearer_id": "w001",
             "worker": "fast"},
            {"kind": "queue.sub_commit", "seq": 4, "t": 0.6,
             "campaign": "abcd", "shard": 0, "wearer_id": "w002",
             "worker": "fast", "duplicate": False},
            {"kind": "cache.wearer", "seq": 5, "t": 0.7,
             "action": "hit", "source": "coordinator",
             "fingerprint": "aa" * 8},
            {"kind": "cache.wearer", "seq": 6, "t": 0.8,
             "action": "hit", "source": "local",
             "fingerprint": "bb" * 8},
            {"kind": "cache.wearer", "seq": 7, "t": 0.9,
             "action": "store", "fingerprint": "cc" * 8},
        ])
        assert "fabric (lease queue / workers)" in report
        assert ("work stealing: 1 shard(s) split, 2 wearer(s) stolen "
                "(2x fast), 1 sub-commit(s)") in report
        assert ("wearer cache: 2 hit(s) (1 via coordinator, 1 via local), "
                "1 store(s)") in report

    def test_partial_fabric_events_never_keyerror(self):
        report = summarize([
            {"kind": "queue.lease", "seq": 1, "t": 0.1},
            {"kind": "queue.commit", "seq": 2, "t": 0.2},
            {"kind": "worker.commit", "seq": 3, "t": 0.3},
            {"kind": "queue.split", "seq": 4, "t": 0.4},
            {"kind": "queue.steal", "seq": 5, "t": 0.5},
            {"kind": "queue.sub_commit", "seq": 6, "t": 0.6},
            {"kind": "cache.wearer", "seq": 7, "t": 0.7},
        ])
        assert "fabric (lease queue / workers)" in report

    def test_pre_fabric_traces_skip_section(self):
        report = summarize([
            {"kind": "campaign.start", "seq": 1, "t": 0.0,
             "campaign": "abcd", "name": "f", "preset": "smoke",
             "wearers": 1, "shards": 1, "jobs": 1},
        ])
        assert "fabric" not in report


class TestPoolReportSection:
    """Satellite: ``trace_report`` renders pool resilience activity and
    degrades gracefully on traces that predate the pool events."""

    def test_pool_events_render(self):
        report = summarize([
            {"kind": "pool.retry", "seq": 1, "t": 0.1, "tasks": 3,
             "hung_task": None, "round": 0},
            {"kind": "pool.respawn", "seq": 2, "t": 0.2,
             "reason": "broken pool", "round": 0},
            {"kind": "pool.retry", "seq": 3, "t": 0.3, "tasks": 1,
             "hung_task": 4, "round": 1},
            {"kind": "pool.respawn", "seq": 4, "t": 0.4,
             "reason": "hung worker", "round": 1},
            {"kind": "pool.quarantine", "seq": 5, "t": 0.5,
             "task_index": 4, "strikes": 3},
            {"kind": "pool.degraded", "seq": 6, "t": 0.6,
             "reason": "5 pool respawns in one batch (limit 3)"},
        ])
        assert "worker pool resilience" in report
        assert "retries: 4 task(s) over 2 round(s)" in report
        assert "pool respawns: 2" in report
        assert "1x broken pool" in report and "1x hung worker" in report
        assert "quarantined tasks: 1 (indices 4)" in report
        assert "DEGRADED TO SERIAL: 5 pool respawns" in report

    def test_partial_pool_events_never_keyerror(self):
        # fields stripped entirely — the renderer must fall back, not raise
        report = summarize([
            {"kind": "pool.retry", "seq": 1, "t": 0.1},
            {"kind": "pool.respawn", "seq": 2, "t": 0.2},
            {"kind": "pool.quarantine", "seq": 3, "t": 0.3},
            {"kind": "pool.degraded", "seq": 4, "t": 0.4},
        ])
        assert "worker pool resilience" in report
        assert "1x unknown" in report
        assert "indices ?" in report
        assert "DEGRADED TO SERIAL: unknown reason" in report

    def test_pre_pool_trace_skips_section(self, tmp_path, capsys):
        assert cli.main([
            "solve", "--pdr-min", "90", "--preset", "smoke", "--jobs", "1",
            "--trace-out", str(tmp_path / "run.jsonl"),
        ]) == 0
        capsys.readouterr()
        report = summarize(read_trace(tmp_path / "run.jsonl"))
        assert "worker pool resilience" not in report
        assert "explorer trajectory" in report  # everything else intact


class TestTraceReportDegradation:
    """Broken inputs produce a diagnostic and exit 1, never a traceback."""

    def _report(self, argv, capsys):
        from repro.analysis import trace_report

        code = trace_report.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_missing_trace_file(self, tmp_path, capsys):
        code, _out, err = self._report(
            [str(tmp_path / "missing.jsonl")], capsys
        )
        assert code == 1
        assert "cannot read trace" in err

    def test_empty_trace_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n  \n")
        code, _out, err = self._report([str(empty)], capsys)
        assert code == 1
        assert "no trace events" in err

    def test_truncated_trace_still_reports(self, tmp_path, capsys):
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            json.dumps({"kind": "manifest", "seq": 1, "t": 0.0,
                        "command": "solve"}) + "\n"
            + json.dumps({"kind": "oracle.evaluate", "seq": 2, "t": 0.1,
                          "cached": False, "wall_s": 0.05,
                          "replicates": 1}) + "\n"
            + '{"kind": "oracle.eval'  # the kill-mid-write case
        )
        code, out, err = self._report([str(truncated)], capsys)
        assert code == 1
        assert "skipped 1 malformed line" in err
        # The readable prefix is still reported.
        assert "manifest" in out and "oracle" in out

    def test_missing_metrics_file(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        trace.write_text(
            json.dumps({"kind": "manifest", "seq": 1, "t": 0.0}) + "\n"
        )
        code, out, err = self._report(
            ["--metrics", str(tmp_path / "missing.json"), str(trace)], capsys
        )
        assert code == 1
        assert "cannot read metrics" in err
        assert "manifest" in out  # the trace report itself still renders

    def test_empty_metrics_file(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        trace.write_text(
            json.dumps({"kind": "manifest", "seq": 1, "t": 0.0}) + "\n"
        )
        metrics = tmp_path / "m.json"
        metrics.write_text("")
        code, _out, err = self._report(
            ["--metrics", str(metrics), str(trace)], capsys
        )
        assert code == 1
        assert "bad metrics file" in err and "empty" in err

    def test_truncated_metrics_file(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        trace.write_text(
            json.dumps({"kind": "manifest", "seq": 1, "t": 0.0}) + "\n"
        )
        metrics = tmp_path / "m.json"
        metrics.write_text('{"oracle.simulations": {"type": "coun')
        code, _out, err = self._report(
            ["--metrics", str(metrics), str(trace)], capsys
        )
        assert code == 1
        assert "bad metrics file" in err and "truncated" in err

    def test_valid_metrics_render_section(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        trace.write_text(
            json.dumps({"kind": "manifest", "seq": 1, "t": 0.0}) + "\n"
        )
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps({
            "oracle.simulations": {"type": "counter", "value": 12},
            "oracle.wall_seconds": {
                "type": "histogram", "count": 12, "total": 0.6,
                "mean": 0.05, "min": 0.01, "max": 0.2,
                "p50": 0.04, "p95": 0.18, "p99": 0.2,
            },
        }))
        code, out, _err = self._report(
            ["--metrics", str(metrics), str(trace)], capsys
        )
        assert code == 0
        assert "metrics" in out
        assert "oracle.simulations" in out
        assert "p95=0.18" in out

    def test_metrics_without_path_is_usage_error(self, tmp_path, capsys):
        code, _out, _err = self._report(["--metrics"], capsys)
        assert code == 2
