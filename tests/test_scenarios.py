"""Perturbation scenarios (repro.scenarios) as a campaign axis.

Covers the PR-8 guarantees: the frozen descriptor validates and
round-trips through JSON, presets match the companion-study setups and
stay in sync with docs/scenarios.md and the CLI, scenario support is
capability-checked with honest fallbacks (msg family -> direct;
direct-batch keeps only closed-form techniques under fluctuations and
sends fail-stop faults and perturbed feedback techniques to direct),
direct-batch equals the scalar simulator under deterministic and
stochastic scenarios alike, all-workers-fail raises
a SimulationError naming the scenario, and perturbations are visible
end-to-end in extras, journals, stats reports, metrics, and Chrome
traces.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.backends import (
    BackendResolutionError,
    drain_fallback_events,
    get_backend,
    resolve_backend,
)
from repro.cli import main
from repro.core.params import SchedulingParams
from repro.core.registry import technique_names
from repro.core.schedule import closed_form_supported
from repro.directsim.faults import AllWorkersFailedError, SimulationError
from repro.experiments.runner import RunTask, run_replicated
from repro.scenarios import (
    PRESETS,
    FailStopSpec,
    LoadNoise,
    PerturbationEvent,
    Scenario,
    SpeedWave,
    StepSlowdown,
    affected_workers,
    get_scenario,
    load_scenario,
    load_scenario_file,
    preset_table_markdown,
    scenario_names,
)
from repro.workloads import ConstantWorkload, ExponentialWorkload


def make_task(
    technique: str = "awf-c",
    simulator: str = "direct",
    n: int = 512,
    p: int = 8,
    **overrides,
) -> RunTask:
    base = dict(
        technique=technique,
        params=SchedulingParams(n=n, p=p, h=0.1, mu=1.0, sigma=1.0),
        workload=ConstantWorkload(1.0),
        simulator=simulator,
    )
    base.update(overrides)
    return RunTask(**base)


# -- the descriptor --------------------------------------------------------
class TestDescriptor:
    def test_affected_workers_spares_worker_zero(self):
        assert affected_workers(0.25, 8) == (6, 7)
        assert affected_workers(0.5, 8) == (4, 5, 6, 7)
        assert affected_workers(1.0, 4) == (0, 1, 2, 3)
        # at least one worker is always affected
        assert affected_workers(0.01, 4) == (3,)

    @pytest.mark.parametrize("bad", [
        lambda: SpeedWave(period=0.0, amplitude=0.5),
        lambda: SpeedWave(period=10.0, amplitude=1.0),
        lambda: SpeedWave(period=10.0, amplitude=0.5, fraction=0.0),
        lambda: StepSlowdown(time=-1.0, factor=0.5),
        lambda: StepSlowdown(time=1.0, factor=0.0),
        lambda: StepSlowdown(time=1.0, factor=0.5, fraction=1.5),
        lambda: LoadNoise(sigma=-0.1),
        lambda: FailStopSpec(time=-2.0),
        lambda: Scenario(name="has space"),
        lambda: Scenario(name=""),
    ])
    def test_invalid_components_fail_early(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_scenarios_are_frozen_and_hashable(self):
        a = get_scenario("perturbed")
        b = Scenario.from_json(a.to_json())
        assert a == b and hash(a) == hash(b)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.name = "other"

    def test_json_round_trip(self, tmp_path):
        scenario = get_scenario("perturbed-deterministic")
        assert Scenario.from_json(scenario.to_json()) == scenario
        path = tmp_path / "scenario.json"
        scenario.save(path)
        assert load_scenario_file(path) == scenario
        # the file is plain JSON, editable by hand
        assert json.loads(path.read_text())["name"] == scenario.name

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            Scenario.from_json({"name": "x", "waive": {"period": 1}})
        with pytest.raises(ValueError, match="bad 'wave' component"):
            Scenario.from_json({"wave": {"periodd": 1}})

    def test_structure_properties(self):
        assert not Scenario().has_fluctuations
        assert not Scenario().has_faults
        perturbed = get_scenario("perturbed")
        assert perturbed.has_fluctuations and perturbed.has_faults
        assert perturbed.is_stochastic
        assert not get_scenario("perturbed-deterministic").is_stochastic
        assert not get_scenario("failstop-quarter").has_fluctuations

    def test_fluctuation_model_composes_in_fixed_order(self):
        from repro.directsim.faults import (
            CompositeFluctuation,
            CyclicFluctuation,
            LognormalFluctuation,
            StepFluctuation,
        )

        scenario = get_scenario("perturbed-deterministic")
        model = scenario.fluctuation_model(8)
        assert isinstance(model, CompositeFluctuation)
        assert isinstance(model.components[0], CyclicFluctuation)
        assert isinstance(model.components[1], StepFluctuation)
        # single component lowers to the bare model
        assert isinstance(
            get_scenario("noise-mild").fluctuation_model(8),
            LognormalFluctuation,
        )
        assert Scenario().fluctuation_model(8) is None

    def test_events_are_sorted_instants(self):
        scenario = get_scenario("perturbed-deterministic")
        events = scenario.events(8)
        assert events == tuple(sorted(
            events, key=lambda e: (e.time, e.worker, e.label)
        ))
        assert PerturbationEvent("step-slowdown", 1.0, 6) in events
        assert PerturbationEvent("fail-stop", 2.0, 7) in events
        assert Scenario(wave=SpeedWave(10.0, 0.3)).events(8) == ()


# -- presets and CLI registry ---------------------------------------------
class TestPresets:
    def test_registry_names(self):
        assert set(scenario_names()) == set(PRESETS)
        assert "perturbed" in PRESETS
        assert "perturbed-deterministic" in PRESETS

    def test_get_scenario_unknown_lists_presets(self):
        with pytest.raises(ValueError, match="registered presets"):
            get_scenario("nope")

    def test_load_scenario_resolves_presets_and_files(self, tmp_path):
        assert load_scenario("slow-quarter") == PRESETS["slow-quarter"]
        path = tmp_path / "custom.json"
        Scenario(name="mine", noise=LoadNoise(0.1)).save(path)
        assert load_scenario(str(path)).name == "mine"
        with pytest.raises(ValueError, match="neither a registered"):
            load_scenario("no-such-preset-or-file")

    def test_docs_preset_table_in_sync(self):
        from pathlib import Path

        text = Path(__file__).parent.parent.joinpath(
            "docs", "scenarios.md"
        ).read_text()
        begin = "<!-- scenario-presets:begin -->"
        end = "<!-- scenario-presets:end -->"
        embedded = text.split(begin)[1].split(end)[0].strip()
        assert embedded == preset_table_markdown().strip()

    def test_cli_scenarios_list_covers_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name, scenario in PRESETS.items():
            assert name in out
            assert scenario.describe() in out


# -- capability checking and fallbacks ------------------------------------
class TestCapabilities:
    def test_only_direct_declares_fault_scenarios(self):
        caps = get_backend("direct").capabilities
        assert caps.fluctuation_scenarios and caps.fault_scenarios
        caps = get_backend("direct-batch").capabilities
        assert caps.fluctuation_scenarios and not caps.fault_scenarios
        for name in ("msg", "msg-fast"):
            caps = get_backend(name).capabilities
            assert not caps.fluctuation_scenarios
            assert not caps.fault_scenarios

    def test_msg_degrades_to_direct_for_scenarios(self):
        task = make_task("gss", simulator="msg",
                         scenario=get_scenario("slow-quarter"))
        drain_fallback_events()
        backend = resolve_backend(task)
        assert backend.name == "direct"
        events = drain_fallback_events()
        assert len(events) == 1
        assert events[0].requested == "msg"
        assert events[0].chosen == "direct"
        assert "slow-quarter" in events[0].reason

    def test_batch_serves_only_closed_form_fluctuation_cells(self):
        """direct-batch keeps a task when it has no scenario, or when a
        closed-form technique meets a scenario without fail-stop; every
        other task goes to direct with one event, and the runs equal
        direct's either way."""
        for scenario in (None, *map(get_scenario, scenario_names())):
            for technique in technique_names():
                task = make_task(technique, simulator="direct-batch",
                                 n=256, workload=ExponentialWorkload(1.0),
                                 scenario=scenario)
                stays = scenario is None or (
                    closed_form_supported(technique)
                    and not scenario.has_faults
                )
                drain_fallback_events()
                backend = resolve_backend(task)
                events = drain_fallback_events()
                assert backend.name == (
                    "direct-batch" if stays else "direct"
                ), (technique, scenario)
                assert len(events) == (0 if stays else 1)
                if not stays:
                    assert scenario.name in events[0].reason
                    with pytest.raises(BackendResolutionError):
                        get_backend("direct-batch").run_seeds(
                            task, [np.random.SeedSequence(1)]
                        )
                direct = dataclasses.replace(task, simulator="direct")
                assert run_replicated(
                    task, 2, campaign_seed=7, processes=1
                ) == run_replicated(
                    direct, 2, campaign_seed=7, processes=1
                ), (technique, scenario)

    def test_fluctuation_scenarios_never_fall_back_on_batch(self):
        task = make_task("gss", simulator="direct-batch",
                         scenario=get_scenario("wave-mild"),
                         seed_entropy=(1,))
        drain_fallback_events()
        result = task.execute()
        assert drain_fallback_events() == []
        assert result.extras["scenario"] == "wave-mild"


# -- execution semantics ---------------------------------------------------
class TestExecution:
    def test_batch_bit_identical_to_scalar_deterministic(self):
        scenario = get_scenario("perturbed-deterministic")
        for technique in ("awf-c", "bold", "gss"):
            scalar = make_task(technique, simulator="direct",
                               scenario=scenario)
            batch = dataclasses.replace(scalar, simulator="direct-batch")
            drain_fallback_events()
            a = run_replicated(scalar, 3, campaign_seed=5, processes=1)
            b = run_replicated(batch, 3, campaign_seed=5, processes=1)
            assert a == b, technique
            assert all(r.extras["lost_chunks"] > 0 for r in a)

    def test_batch_ks_equal_to_scalar_stochastic(self):
        """Load noise on exponential times: each run draws its chunk
        times and noise factors from its own seed, as direct does (the
        closed-form kernel's lazy one-chunk walk)."""
        scenario = get_scenario("noise-mild")
        scalar = make_task("gss", simulator="direct",
                           workload=ExponentialWorkload(1.0),
                           scenario=scenario)
        batch = dataclasses.replace(scalar, simulator="direct-batch")
        drain_fallback_events()
        a = run_replicated(scalar, 40, campaign_seed=9, processes=1)
        b = run_replicated(batch, 40, campaign_seed=9, processes=1)
        assert drain_fallback_events() == []
        assert {r.stats.backend for r in b} == {"direct-batch"}
        assert a == b

    def test_perturbed_differs_from_clean(self):
        clean = make_task("awf-c", seed_entropy=(3,))
        perturbed = dataclasses.replace(
            clean, scenario=get_scenario("slow-quarter")
        )
        assert perturbed.execute().makespan > clean.execute().makespan

    def test_scenario_none_keeps_derived_entropy(self):
        # the field's default must not disturb pre-scenario seeds/keys
        task = make_task("gss")
        assert task.scenario is None
        assert (
            task.derived_entropy()
            == dataclasses.replace(task, scenario=None).derived_entropy()
        )
        assert (
            dataclasses.replace(
                task, scenario=get_scenario("noise-mild")
            ).derived_entropy()
            != task.derived_entropy()
        )

    @pytest.mark.parametrize("simulator", ["direct", "direct-batch"])
    def test_all_workers_failing_raises_simulation_error(self, simulator):
        doom = Scenario(name="doom", failstop=FailStopSpec(
            time=1.0, fraction=1.0
        ))
        task = make_task("awf-c", simulator=simulator, scenario=doom,
                         seed_entropy=(2,))
        with pytest.raises(SimulationError, match="doom") as excinfo:
            task.execute()
        assert isinstance(excinfo.value, AllWorkersFailedError)

    def test_extras_stamp_scenario_and_events(self):
        scenario = get_scenario("perturbed-deterministic")
        task = make_task("awf-c", scenario=scenario, seed_entropy=(4,))
        result = task.execute()
        assert result.extras["scenario"] == scenario.name
        assert result.extras["lost_chunks"] > 0
        assert result.extras["lost_tasks"] >= result.extras["lost_chunks"]
        assert result.extras["perturbations"] == tuple(
            (e.label, e.time, e.worker)
            for e in scenario.events(task.params.p)
        )


# -- observability ---------------------------------------------------------
class TestObservability:
    def test_journal_and_stats_surface_perturbations(self, tmp_path):
        from repro.obs import journal_to, load_journal, summarize_journal

        journal = tmp_path / "journal.jsonl"
        task = make_task("awf-c", scenario=get_scenario("failstop-quarter"))
        with journal_to(journal):
            run_replicated(task, 2, campaign_seed=1, processes=1)
        records = load_journal(journal)
        task_records = [r for r in records if r.get("kind") == "task"]
        assert task_records
        assert all(
            r["scenario"] == "failstop-quarter" for r in task_records
        )
        assert sum(r["lost_chunks"] for r in task_records) > 0
        report = summarize_journal(records)
        assert "perturbation scenarios:" in report
        assert "failstop-quarter" in report
        assert "lost to faults" in report

    def test_metrics_count_perturbed_runs(self):
        from repro.obs import metrics_to

        task = make_task(
            "awf-c", scenario=get_scenario("failstop-quarter"),
        )
        with metrics_to(None) as registry:
            run_replicated(task, 2, campaign_seed=1, processes=1)
        assert registry.counters["perturbed_runs_total"].value == 2
        assert registry.counters["lost_chunks_total"].value > 0
        assert registry.counters["lost_tasks_total"].value > 0

    def test_chrome_trace_renders_perturbation_instants(self):
        from repro.obs import chrome_trace_from_results

        scenario = get_scenario("perturbed-deterministic")
        task = make_task("awf-c", simulator="direct", scenario=scenario,
                         seed_entropy=(6,), collect_chunk_log=True)
        trace = chrome_trace_from_results([task.execute()])
        instants = [
            e for e in trace["traceEvents"]
            if e.get("cat") == "perturbation"
        ]
        assert len(instants) == len(scenario.events(task.params.p))
        assert {e["args"]["scenario"] for e in instants} == {scenario.name}


# -- experiment and CLI integration ---------------------------------------
class TestIntegration:
    def test_bold_experiment_accepts_scenario(self, monkeypatch):
        from repro.figures import ARTIFACTS, produce_artifact

        monkeypatch.setenv("REPRO_WORKERS", "1")
        data, fallbacks, _ = produce_artifact(
            ARTIFACTS["fig5"], "quick", pe_counts=(8,),
            techniques=("SS", "BOLD"), runs=2, simulator="direct",
            scenario="slow-quarter",
        )
        assert set(data.series) == {"SS", "BOLD"}
        assert fallbacks == []

    def test_fac_outlier_study_survives_all_runs_above_threshold(
        self, monkeypatch
    ):
        import math

        from repro.figures import ARTIFACTS

        monkeypatch.setenv("REPRO_WORKERS", "1")
        data = ARTIFACTS["fig9"].produce(
            "quick", n=256, p=2, runs=2, threshold=1e-6,
            simulator="direct", scenario="slow-quarter",
        )
        study = dict(zip(data.keys, data.series["FAC"]))
        assert study["num_above"] == 2
        assert study["fraction_above"] == 1.0
        assert math.isnan(study["mean_excluding"])

    def test_robustness_study_reports_degradation(self, monkeypatch):
        from repro.figures import ARTIFACTS

        monkeypatch.setenv("REPRO_WORKERS", "1")
        data = ARTIFACTS["robustness"].produce(
            "quick", scenario="slow-quarter", n=256, p=4,
            techniques=("ss", "awf-c"), runs=2,
        )
        assert list(data.series) == ["ss", "awf-c"]
        degradation = data.keys.index("degradation_pct")
        assert all(row[degradation] > 0 for row in data.series.values())
        assert "degradation" in data.text and "awf-c" in data.text

    def test_cli_simulate_with_scenario(self, capsys):
        code = main([
            "simulate", "--technique", "awf-c", "--n", "256", "--p", "4",
            "--dist", "constant", "--simulator", "direct-batch",
            "--scenario", "perturbed-deterministic", "--runs", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "perturbed-deterministic" in out
        assert "lost to faults" in out

    def test_cli_rejects_unknown_scenario(self, capsys):
        code = main([
            "simulate", "--technique", "gss", "--n", "64", "--p", "2",
            "--scenario", "definitely-not-a-preset",
        ])
        assert code == 2
        assert "neither a registered" in capsys.readouterr().err

    def test_cli_run_rejects_scenario_on_unsupported_experiment(
        self, capsys
    ):
        code = main(["run", "table2", "--scenario", "perturbed"])
        assert code == 2
        assert "does not accept" in capsys.readouterr().err
