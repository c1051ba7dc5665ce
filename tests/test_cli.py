"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestListCommand:
    def test_lists_every_artifact(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("table2", "table3", "fig3", "fig5", "fig9"):
            assert exp_id in out


class TestTechniquesCommand:
    def test_lists_registered_techniques(self, capsys):
        assert main(["techniques"]) == 0
        out = capsys.readouterr().out
        for name in ("stat", "ss", "gss", "tss", "fac2", "bold", "awf", "af"):
            assert name in out


class TestScheduleCommand:
    def test_prints_chunks(self, capsys):
        code = main([
            "schedule", "--technique", "gss", "--n", "20", "--p", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GSS: 9 chunks, sum=20" in out
        assert "5 4 3 2 2 1 1 1 1" in out

    def test_css_with_chunk_size(self, capsys):
        main([
            "schedule", "--technique", "css", "--n", "10", "--p", "2",
            "--chunk-size", "4",
        ])
        out = capsys.readouterr().out
        assert "4 4 2" in out

    def test_sigma_zero_is_read_as_zero(self, capsys):
        """--sigma 0 is a valid value, not a missing one: FSC at h=0.5
        plans far fewer chunks without variability than with sigma=1."""
        cell = ["schedule", "--technique", "fsc", "--n", "1000", "--p", "4",
                "--h", "0.5"]
        assert main([*cell, "--sigma", "0"]) == 0
        assert "FSC: 4 chunks, sum=1000" in capsys.readouterr().out
        assert main([*cell, "--sigma", "1"]) == 0
        assert "FSC: 35 chunks, sum=1000" in capsys.readouterr().out

    def test_invalid_params_exit_two(self, capsys):
        assert main(["schedule", "--technique", "fsc", "--n", "1000",
                     "--p", "4", "--mu", "0"]) == 2
        assert "mu must be positive" in capsys.readouterr().err


class TestSimulateCommand:
    def test_direct_simulator(self, capsys):
        code = main([
            "simulate", "--technique", "fac2", "--n", "128", "--p", "4",
            "--h", "0.5", "--runs", "2", "--simulator", "direct",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAC2 on direct" in out
        assert "speedup" in out

    def test_msg_simulator_constant(self, capsys):
        code = main([
            "simulate", "--technique", "stat", "--n", "64", "--p", "4",
            "--dist", "constant", "--simulator", "msg",
        ])
        assert code == 0
        assert "STAT on msg" in capsys.readouterr().out


class TestGanttCommand:
    def test_renders_chart(self, capsys):
        code = main([
            "gantt", "--technique", "gss", "--n", "60", "--p", "3",
            "--dist", "constant", "--width", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "w0" in out and "busy%" in out

    def test_paje_export(self, capsys, tmp_path):
        path = tmp_path / "run.trace"
        code = main([
            "gantt", "--technique", "fac2", "--n", "40", "--p", "2",
            "--paje", str(path),
        ])
        assert code == 0
        assert path.exists()
        assert "%EventDef" in path.read_text()


class TestSimulateFilesCommand:
    def test_end_to_end(self, capsys, tmp_path):
        from repro.simgrid import (
            deployment_to_xml,
            master_worker_deployment,
            platform_to_xml,
            star_platform,
        )

        plat = tmp_path / "p.xml"
        plat.write_text(platform_to_xml(star_platform(3)))
        dep = tmp_path / "d.xml"
        dep.write_text(deployment_to_xml(master_worker_deployment(3)))
        code = main([
            "simulate-files", str(plat), str(dep),
            "--technique", "fac2", "--n", "120", "--dist", "constant",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p=3 (from deployment)" in out
        assert "speedup" in out


class TestRunCommand:
    def test_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "matches publication: STAT=yes" in out
        assert out.endswith(
            "\nclaim holds: all eight techniques match the publication\n"
        )

    def test_table3(self, capsys):
        assert main(["run", "table3"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_table3_prints_the_pipeline_text(self, capsys, tmp_path):
        from repro.figures import generate_artifacts

        generate_artifacts(tmp_path, mode="full", only=["table3"],
                           plot=False)
        assert main(["run", "table3"]) == 0
        assert capsys.readouterr().out == (tmp_path / "table3.txt").read_text()

    def test_fig5_small(self, capsys):
        from repro.experiments import BOLD_TECHNIQUES

        code = main([
            "run", "fig5", "--runs", "2", "--simulator", "direct",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "n=1,024" in out
        assert "STAT" in out and "BOLD" in out
        # fewer runs on another backend is not the full set: no claim
        assert "claim" not in out
        # the full PE sweep covers the reference, so the paper's
        # discrepancy analysis follows the series
        absolute, relative = out.split(
            "Discrepancy vs reference [s] (positive = slower):\n"
        )[1].split("Relative discrepancy vs reference [%]:\n")
        for rows in (absolute, relative):
            labels = [line.split(":")[0].strip()
                      for line in rows.strip().splitlines()]
            assert labels == list(BOLD_TECHNIQUES)
            assert all(len(line.split(":")[1].split()) == 5
                       for line in rows.strip().splitlines())

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifact 'fig99'" in err
        for artifact_id in ("table2", "fig5", "tss-shapes"):
            assert artifact_id in err

    def test_flag_the_artifact_does_not_accept_exits_two(self, capsys):
        assert main(["run", "table2", "--runs", "5"]) == 2
        assert "does not accept --runs" in capsys.readouterr().err

    def test_extension_css_sweep(self, capsys):
        assert main(["run", "css-sweep"]) == 0
        out = capsys.readouterr().out
        assert "CSS(k) chunk-size ablation: p=72, simulator=msg" in out
        assert "speedup\\k" in out

    def test_extension_listed(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for exp_id in ("scalability", "css-sweep", "tss-shapes",
                       "remote-ratio"):
            assert exp_id in out


class TestBackendsCommand:
    def test_lists_registered_backends(self, capsys):
        from repro.backends import backend_names

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out
        assert "fallback" in out
        assert "capabilities" in out


class TestSimulatorRoundTrip:
    def test_every_backend_round_trips_through_run(self, monkeypatch):
        """`repro-dls run fig5 --simulator <name>` must accept every
        registered backend name and pass it through unchanged."""
        import dataclasses

        from repro.backends import backend_names
        from repro.figures import ARTIFACTS, ArtifactData

        seen: list[str] = []

        def producer(n, pe_counts, runs, simulator, seed, scenario=None):
            seen.append(simulator)
            return ArtifactData(series={}, keys=())

        # the stand-in data shows nothing, so it is checked against no claim
        monkeypatch.setitem(
            ARTIFACTS, "fig5",
            dataclasses.replace(ARTIFACTS["fig5"], producer=producer,
                                claims=()),
        )
        for name in backend_names():
            assert main(["run", "fig5", "--simulator", name]) == 0
        assert seen == backend_names()

    def test_unknown_simulator_rejected_with_backend_list(self, capsys):
        from repro.backends import backend_names

        with pytest.raises(SystemExit) as exc:
            main(["run", "fig5", "--simulator", "simgrid4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in backend_names():
            assert name in err

    def test_simulate_accepts_direct_batch(self, capsys):
        code = main([
            "simulate", "--technique", "gss", "--n", "64", "--p", "4",
            "--dist", "constant", "--simulator", "direct-batch",
        ])
        assert code == 0
        assert "GSS on direct-batch" in capsys.readouterr().out

    def test_simulate_adaptive_on_batch_reports_no_fallback(self, capsys):
        """The stepping kernel serves BOLD natively on direct-batch —
        no degradation note (this cell used to print one)."""
        code = main([
            "simulate", "--technique", "bold", "--n", "64", "--p", "4",
            "--dist", "constant", "--simulator", "direct-batch",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BOLD on direct-batch" in out
        assert "note:" not in out

    def test_simulate_reports_fallback(self, capsys):
        code = main([
            "simulate", "--technique", "af", "--n", "64", "--p", "4",
            "--dist", "constant", "--simulator", "msg-fast",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "note: msg-fast -> msg" in out


class TestRecommendCommand:
    def test_prints_recommendation(self, capsys):
        code = main([
            "recommend", "--n", "10000", "--p", "16", "--h", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended:" in out
        assert "predicted" in out


class TestTraceAndStats:
    def test_simulate_trace_writes_journal(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        code = main([
            "simulate", "--technique", "fac2", "--n", "64", "--p", "4",
            "--dist", "constant", "--runs", "2",
            "--simulator", "msg-fast", "--trace", str(journal),
        ])
        assert code == 0
        import json

        records = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        assert records[0]["kind"] == "provenance"
        assert sum(r["kind"] == "task" for r in records) == 2

    def test_stats_summarises_journal(self, capsys, tmp_path):
        journal = tmp_path / "journal.jsonl"
        assert main([
            "simulate", "--technique", "fac2", "--n", "64", "--p", "4",
            "--dist", "constant", "--simulator", "msg-fast",
            "--trace", str(journal),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(journal), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "msg-fast" in out
        assert "provenance:" in out
        assert "slowest task" in out

    def test_stats_rejects_broken_journal(self, capsys, tmp_path):
        journal = tmp_path / "broken.jsonl"
        journal.write_text("not json\n")
        assert main(["stats", str(journal)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{journal}:1" in err

    def test_simulate_without_trace_unchanged(self, capsys, tmp_path):
        code = main([
            "simulate", "--technique", "gss", "--n", "64", "--p", "4",
            "--dist", "constant",
        ])
        assert code == 0
        assert "GSS on msg" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_stats_on_provenance_only_journal(self, capsys, tmp_path):
        from repro.obs import journal_to

        journal = tmp_path / "empty.jsonl"
        with journal_to(journal):
            pass  # a journal with only the provenance line
        assert main(["stats", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "no task records" in out
        assert "provenance-only" in out

    def test_simulate_writes_metrics(self, capsys, tmp_path):
        metrics = tmp_path / "m.prom"
        code = main([
            "simulate", "--technique", "fac2", "--n", "64", "--p", "4",
            "--dist", "constant", "--simulator", "msg-fast",
            "--metrics", str(metrics),
        ])
        assert code == 0
        text = metrics.read_text()
        assert "repro_runs_total 1" in text
        assert 'le="+Inf"' in text


class TestTraceExport:
    def test_export_from_journal(self, capsys, tmp_path):
        import json

        journal = tmp_path / "journal.jsonl"
        assert main([
            "simulate", "--technique", "fac2", "--n", "64", "--p", "4",
            "--dist", "constant", "--runs", "2",
            "--simulator", "msg-fast", "--trace", str(journal),
        ]) == 0
        out_path = tmp_path / "trace.json"
        assert main([
            "trace-export", str(journal), "--out", str(out_path),
        ]) == 0
        assert "ui.perfetto.dev" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 2
        groups = [
            e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert "backend: msg-fast" in groups

    def test_export_simulated_run(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code = main([
            "trace-export", "--technique", "gss", "--n", "128", "--p", "4",
            "--dist", "constant", "--out", str(out_path),
        ])
        assert code == 0
        trace = json.loads(out_path.read_text())
        threads = {
            e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert threads <= {f"worker-{w}" for w in range(4)}
        assert [e for e in trace["traceEvents"] if e["ph"] == "X"]

    def test_simulation_mode_requires_workload_args(self, capsys, tmp_path):
        code = main([
            "trace-export", "--out", str(tmp_path / "t.json"),
        ])
        assert code == 2
        assert "--technique" in capsys.readouterr().err


CELL = ["--technique", "fac2", "--n", "64", "--p", "2"]

#: bad input to each command; paths are relative to a directory that
#: holds only ``broken.jsonl``, a malformed journal, two journals with
#: a mistyped number (``progress.jsonl``, ``task.jsonl``), and a valid
#: platform and deployment (``p.xml``, ``d.xml``)
BAD_INPUT = [
    ["simulate", *CELL, "--runs", "0"],
    ["run", "fig5", "--runs", "0"],
    ["simulate", *CELL[2:], "--technique", "nosuch"],
    ["schedule", *CELL[2:], "--technique", "nosuch"],
    ["gantt", *CELL[2:], "--technique", "nosuch"],
    ["trace-export", *CELL[2:], "--technique", "nosuch", "--out", "t.json"],
    ["simulate-files", "p.xml", "d.xml", "--technique", "nosuch",
     "--n", "64"],
    ["simulate", *CELL, "--p", "0"],
    ["gantt", *CELL, "--p", "0"],
    ["recommend", "--n", "64", "--p", "0"],
    ["simulate", *CELL, "--mean", "-1"],
    ["stats", "missing.jsonl"],
    ["stats", "."],
    ["trace-export", "missing.jsonl", "--out", "t.json"],
    ["simulate-files", "missing.xml", "missing.xml", "--technique", "fac2",
     "--n", "64"],
    ["serve", "--port", "-5"],
    ["serve", "--runs", "0"],
    ["serve", "--workers", "0"],
    ["gantt", *CELL, "--width", "0"],
    ["trace-export", *CELL, "--p", "0", "--out", "t.json"],
    ["simulate", *CELL, "--seed", "-1"],
    ["gantt", *CELL, "--seed", "-1"],
    ["trace-export", *CELL, "--seed", "-1", "--out", "t.json"],
    ["simulate-files", "p.xml", "d.xml", "--technique", "fac2",
     "--n", "64", "--seed", "-1"],
    ["run", "fig5", "--seed", "-1"],
    ["run", "fig5", "--cache-verify", "2"],
    ["simulate", *CELL, "--cache-verify", "-0.5"],
    ["figures", "--cache-verify", "1.5"],
    ["serve", "--cache-verify", "nan"],
    ["stats", "broken.jsonl"],
    ["trace-export", "broken.jsonl", "--out", "t.json"],
    ["stats", "progress.jsonl"],
    ["stats", "task.jsonl"],
    ["trace-export", "progress.jsonl", "--out", "t.json"],
    ["trace-export", "task.jsonl", "--out", "t.json"],
    ["stats", "backend.jsonl"],
    ["stats", "scenario.jsonl"],
    ["stats", "files.jsonl"],
    ["stats", "op.jsonl"],
]

#: journals whose one record has a mistyped text field, by file name
MISTYPED_TEXT = {
    "backend.jsonl": '{"kind": "task", "backend": 5, "runs": 1}',
    "scenario.jsonl": '{"kind": "task", "scenario": ["x"]}',
    "files.jsonl": '{"kind": "artifact", "files": 3}',
    "op.jsonl": '{"kind": "cache", "op": ["hit"]}',
}


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_ends_in_one_line_and_exit_two(
    argv, capsys, monkeypatch, tmp_path
):
    import repro.serve
    from repro.simgrid import (
        deployment_to_xml,
        master_worker_deployment,
        platform_to_xml,
        star_platform,
    )

    def no_server(*args):
        raise AssertionError("bad input reached the server")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.jsonl").write_text("not json\n")
    (tmp_path / "progress.jsonl").write_text(
        '{"kind": "progress", "elapsed_s": "x"}\n'
    )
    (tmp_path / "task.jsonl").write_text(
        '{"kind": "task", "wall_time_s": "slow"}\n'
    )
    for name, record in MISTYPED_TEXT.items():
        (tmp_path / name).write_text(record + "\n")
    (tmp_path / "p.xml").write_text(platform_to_xml(star_platform(2)))
    (tmp_path / "d.xml").write_text(
        deployment_to_xml(master_worker_deployment(2))
    )
    monkeypatch.setattr(repro.serve, "make_server", no_server)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
