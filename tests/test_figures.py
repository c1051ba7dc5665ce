"""Tests for the artifact pipeline: manifests, drift detection, CLI.

Covers the provenance-manifest contract (schema round-trip, digest
stability across identical runs, fallback and cache-corruption events
surfacing in the manifest), the drift layer's fatal-vs-warning
classification, the CSV round-trip the drift check depends on, the
registry claims (recorded, checked, and failing the run), and the
``repro-dls figures`` exit codes.  Compute-heavy registry entries are
exercised elsewhere (the CI figures-smoke job runs the full quick
registry); these tests stick to the cheap artifacts (tables, fig5) and
purpose-built probe specs.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cache import cache_to
from repro.cli import main
from repro.core.params import SchedulingParams
from repro.experiments.report import read_csv_series, write_csv
from repro.experiments.runner import RunTask, run_replicated
from repro.figures import (
    ARTIFACTS,
    MANIFEST_SCHEMA,
    ArtifactData,
    ArtifactManifest,
    ArtifactSpec,
    Claim,
    RunManifest,
    check_against_reference,
    generate_artifacts,
    produce_artifact,
    sha256_file,
    validate_manifest,
)
from repro.figures import registry as figures_registry
from repro.workloads import ExponentialWorkload

CHEAP = ["table2", "table3"]


def make_artifact_manifest(**overrides) -> ArtifactManifest:
    kwargs = dict(
        artifact="fig5",
        title="BOLD comparison",
        paper_artifact="Figure 5",
        mode="quick",
        params={"n": 1024, "seed": 2017, "simulator": "direct-batch"},
        seeds={"seed": 2017},
        environment={"python": "3.11.7", "system": "Linux"},
        requested_simulator="direct-batch",
        backends=["direct-batch"],
        fallbacks=[{"requested": "direct-batch", "chosen": "direct",
                    "reason": "probe", "category": "capability",
                    "task": "bold(n=1024, p=8)"}],
        cache={"hits": 3, "misses": 1, "stores": 1, "corrupt": 0},
        scenario=None,
        plot="text",
        files={"fig5.csv": "ab" * 32},
        claims={"SS is the worst technique at p=2": True,
                "FAC2 is below STAT at p=2": False},
        elapsed_s=1.25,
    )
    kwargs.update(overrides)
    return ArtifactManifest(**kwargs)


class TestManifestRoundTrip:
    def test_artifact_manifest_json_round_trip(self):
        manifest = make_artifact_manifest()
        assert ArtifactManifest.from_json(manifest.to_json()) == manifest

    def test_artifact_manifest_file_round_trip(self, tmp_path):
        manifest = make_artifact_manifest()
        path = tmp_path / "fig5.manifest.json"
        manifest.save(path)
        assert ArtifactManifest.load(path) == manifest
        # the on-disk form is deterministic (sorted keys, fixed indent)
        manifest.save(tmp_path / "again.json")
        assert path.read_text() == (tmp_path / "again.json").read_text()

    def test_run_manifest_round_trip(self, tmp_path):
        run = RunManifest(
            mode="quick", artifacts=["table2"],
            manifests=["table2.manifest.json"],
            environment={"python": "3.11.7"},
            cache={"hits": 1, "misses": 0, "stores": 0, "corrupt": 0},
            fallbacks=0, files={"table2.csv": "cd" * 32},
            claims={"table2": {"all eight techniques match": True}},
            elapsed_s=0.5,
        )
        assert RunManifest.from_json(run.to_json()) == run
        path = tmp_path / "run.manifest.json"
        run.save(path)
        assert RunManifest.load(path) == run


class TestManifestValidation:
    def test_valid_manifest_has_no_problems(self):
        assert validate_manifest(make_artifact_manifest().to_json()) == []

    def test_missing_schema_rejected(self):
        data = make_artifact_manifest().to_json()
        del data["schema"]
        assert any("schema" in p for p in validate_manifest(data))

    def test_newer_schema_rejected(self):
        data = make_artifact_manifest().to_json()
        data["schema"] = MANIFEST_SCHEMA + 1
        assert any("newer than supported" in p
                   for p in validate_manifest(data))

    def test_bad_mode_rejected(self):
        data = make_artifact_manifest().to_json()
        data["mode"] = "fast"
        assert any("'mode'" in p for p in validate_manifest(data))

    def test_non_hex_digest_rejected(self):
        data = make_artifact_manifest().to_json()
        data["files"] = {"fig5.csv": "not-a-digest"}
        assert any("hex SHA-256" in p for p in validate_manifest(data))

    def test_bad_plot_rejected(self):
        data = make_artifact_manifest().to_json()
        data["plot"] = "svg"
        assert any("plot" in p for p in validate_manifest(data))

    def test_non_boolean_claim_outcome_rejected(self):
        data = make_artifact_manifest().to_json()
        data["claims"] = {"SS is the worst technique at p=2": "yes"}
        assert any("not a boolean" in p for p in validate_manifest(data))
        run = RunManifest(mode="quick", claims={"fig5": {"SS": 1}}).to_json()
        assert any("not a boolean" in p
                   for p in validate_manifest(run, kind="run"))

    def test_run_kind_checks_artifact_list(self):
        data = {"schema": MANIFEST_SCHEMA, "mode": "quick",
                "environment": {}, "artifacts": "table2", "files": {}}
        assert any("artifacts" in p
                   for p in validate_manifest(data, kind="run"))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            validate_manifest({}, kind="campaign")

    def test_from_json_raises_with_every_problem(self):
        data = make_artifact_manifest().to_json()
        data["mode"] = "fast"
        data["plot"] = "svg"
        with pytest.raises(ValueError) as err:
            ArtifactManifest.from_json(data)
        assert "'mode'" in str(err.value) and "plot" in str(err.value)

    def test_sha256_file_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"repro-dls" * 1000)
        assert sha256_file(path) == hashlib.sha256(
            path.read_bytes()
        ).hexdigest()


class TestPipeline:
    def test_emits_csv_text_and_manifests(self, tmp_path):
        run = generate_artifacts(tmp_path, only=CHEAP, plot=False)
        assert run.artifacts == CHEAP
        for artifact in CHEAP:
            assert (tmp_path / f"{artifact}.csv").exists()
            assert (tmp_path / f"{artifact}.txt").exists()
            manifest = ArtifactManifest.load(
                tmp_path / f"{artifact}.manifest.json"
            )
            assert manifest.artifact == artifact
            assert manifest.mode == "quick"
            # recorded digests match the bytes on disk
            for name, digest in manifest.files.items():
                assert sha256_file(tmp_path / name) == digest
        run_loaded = RunManifest.load(tmp_path / "run.manifest.json")
        assert run_loaded.artifacts == CHEAP
        assert run_loaded.files == run.files

    def test_digests_stable_across_identical_runs(self, tmp_path):
        first = generate_artifacts(tmp_path / "a", only=CHEAP, plot=False)
        second = generate_artifacts(tmp_path / "b", only=CHEAP, plot=False)
        assert first.files == second.files

    def test_seeded_compute_artifact_is_digest_stable(self, tmp_path):
        first = generate_artifacts(
            tmp_path / "a", only=["fig5"], plot=False
        )
        second = generate_artifacts(
            tmp_path / "b", only=["fig5"], plot=False
        )
        assert first.files == second.files

    def test_second_run_is_cache_dominated(self, tmp_path):
        with cache_to(tmp_path / "cache"):
            generate_artifacts(tmp_path / "cold", only=["fig5"], plot=False)
            warm = generate_artifacts(
                tmp_path / "warm", only=["fig5"], plot=False
            )
        assert warm.cache["misses"] == 0
        assert warm.cache["hits"] > 0

    def test_quick_manifests_record_the_quick_claims(self, tmp_path):
        only = ["table2", "fig3", "fig5", "fig9", "css-sweep"]
        run = generate_artifacts(tmp_path, only=only, plot=False)
        for artifact in only:
            manifest = ArtifactManifest.load(
                tmp_path / f"{artifact}.manifest.json"
            )
            quick = [claim.name for claim in ARTIFACTS[artifact].claims
                     if not claim.full_only]
            assert sorted(manifest.claims) == sorted(quick)
            assert all(manifest.claims.values())
            assert run.claims[artifact] == manifest.claims
        # Figure 3's claims need the full PE sweep
        assert run.claims["fig3"] == {}

    def test_unknown_only_id_is_actionable(self, tmp_path):
        with pytest.raises(ValueError, match="table2"):
            generate_artifacts(tmp_path, only=["fig99"])

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            generate_artifacts(tmp_path, mode="fast")


def probe_producer(simulator: str, seed: int) -> ArtifactData:
    """A registry-shaped producer: one AF task on the requested backend.

    Requesting ``msg-fast`` forces a capability fallback to ``msg``
    (the fast path cannot serve the adaptive feedback loop), which the
    pipeline must surface in the manifest.
    """
    task = RunTask(
        technique="af",
        params=SchedulingParams(n=256, p=4, h=0.5, mu=1.0, sigma=1.0),
        workload=ExponentialWorkload(1.0),
        simulator=simulator,
    )
    results = run_replicated(task, 2, campaign_seed=seed, processes=1)
    mean = sum(r.makespan for r in results) / len(results)
    return ArtifactData(
        series={"AF": [mean]}, keys=(4,), key_header="pes",
        text="probe artifact",
    )


@pytest.fixture
def probe_spec(monkeypatch):
    spec = ArtifactSpec(
        id="probe",
        title="backend probe",
        paper_artifact="(test)",
        kind="lines",
        producer=probe_producer,
        quick={"simulator": "msg-fast", "seed": 7},
        full={"simulator": "msg-fast", "seed": 7},
    )
    monkeypatch.setitem(figures_registry.ARTIFACTS, "probe", spec)
    return spec


class TestProvenanceEvents:
    def test_forced_fallback_lands_in_manifest(self, tmp_path, probe_spec):
        generate_artifacts(tmp_path, only=["probe"], plot=False)
        manifest = ArtifactManifest.load(tmp_path / "probe.manifest.json")
        assert [(e["requested"], e["chosen"], e["category"])
                for e in manifest.fallbacks] == [
            ("msg-fast", "msg", "capability")
        ]
        assert manifest.backends == ["msg", "msg-fast"]
        assert manifest.requested_simulator == "msg-fast"

    def test_cache_corruption_lands_in_manifest(self, tmp_path, probe_spec):
        root = tmp_path / "cache"
        with cache_to(root):
            generate_artifacts(tmp_path / "a", only=["probe"], plot=False)
        entries = list(root.rglob("*.pkl"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"not a pickle")
        with cache_to(root):
            generate_artifacts(tmp_path / "b", only=["probe"], plot=False)
        manifest = ArtifactManifest.load(
            tmp_path / "b" / "probe.manifest.json"
        )
        assert manifest.cache["corrupt"] >= 1
        assert manifest.cache["misses"] >= 1

    def test_clean_artifact_claims_no_fallbacks(self, tmp_path):
        generate_artifacts(tmp_path, only=["fig5"], plot=False)
        manifest = ArtifactManifest.load(tmp_path / "fig5.manifest.json")
        assert manifest.fallbacks == []
        assert manifest.backends == ["direct-batch"]
        assert manifest.seeds == {"seed": 2017}


@pytest.fixture
def published_tss(monkeypatch):
    """``run_tss_experiment`` answering with the digitized published
    curves (SS ten times too fast), so the TSS producer renders its
    verdicts without simulating a full PE sweep."""
    from repro.experiments import tss_experiments
    from repro.experiments.published import (
        TSS_PUBLISHED_PES,
        tss_published_speedups,
    )

    def run_tss_experiment(experiment, pe_counts, simulator, seed):
        result = tss_experiments.TssExperimentResult(
            experiment=experiment, n=100_000, task_time=110e-6,
            pe_counts=tuple(pe_counts),
        )
        for label, curve in tss_published_speedups(experiment).items():
            at = dict(zip(TSS_PUBLISHED_PES, curve))
            scale = 10.0 if label == "SS" else 1.0
            result.speedups[label] = [scale * at.get(p, 1.0)
                                      for p in pe_counts]
        return result

    monkeypatch.setattr(tss_experiments, "run_tss_experiment",
                        run_tss_experiment)


class TestVerificationLines:
    """Full sweeps covering the published keys carry the paper's verdicts;
    quick sweeps never do, so their text stays as committed."""

    def test_full_tss_sweep_renders_verdicts(self, published_tss):
        text = ARTIFACTS["fig3"].produce("full").text
        lines = text.split(
            "\n\nReproduction verdicts vs digitized published curves:\n"
        )[1].splitlines()
        assert lines == [
            "        SS: max |rel. discrepancy| =  900.0%  -> NOT reproduced",
            "       CSS: max |rel. discrepancy| =    0.0%  -> reproduced",
            "    GSS(1): max |rel. discrepancy| =    0.0%  -> reproduced",
            "   GSS(80): max |rel. discrepancy| =    0.0%  -> reproduced",
            "       TSS: max |rel. discrepancy| =    0.0%  -> reproduced",
        ]

    def test_quick_sweeps_render_no_verification_lines(self, published_tss):
        assert "verdicts" not in ARTIFACTS["fig3"].produce("quick").text
        assert "reference" not in ARTIFACTS["fig5"].produce("quick").text


def make_reference(tmp_path, artifacts):
    """Generate a pristine out dir and a reference dir mirroring it."""
    out = tmp_path / "out"
    ref = tmp_path / "ref"
    ref.mkdir()
    generate_artifacts(out, only=artifacts, plot=False)
    for artifact in artifacts:
        for name in (f"{artifact}.csv", f"{artifact}.manifest.json"):
            (ref / name).write_bytes((out / name).read_bytes())
    return out, ref


class TestDriftDetection:
    def test_identical_runs_pass(self, tmp_path):
        out, ref = make_reference(tmp_path, CHEAP)
        report = check_against_reference(
            out, reference_dir=ref, artifacts=CHEAP
        )
        assert report.ok
        assert report.findings == []
        assert report.checked == CHEAP

    def test_numeric_drift_is_fatal(self, tmp_path):
        out, ref = make_reference(tmp_path, ["table3"])
        csv = out / "table3.csv"
        csv.write_text(csv.read_text().replace("6.0", "6.6"))
        report = check_against_reference(
            out, reference_dir=ref, artifacts=["table3"]
        )
        assert not report.ok
        assert [f.category for f in report.fatal] == ["numeric"]
        assert "table3" in report.describe()

    def test_zero_reference_cells_compared_exactly(self, tmp_path):
        # table2's X-matrix is full of 0.0 cells, which a relative
        # diff cannot score -- flipping one must still be fatal
        out, ref = make_reference(tmp_path, ["table2"])
        csv = out / "table2.csv"
        lines = csv.read_text().splitlines()
        lines[1] = lines[1].replace("0.0", "1.0", 1)
        csv.write_text("\n".join(lines) + "\n")
        report = check_against_reference(
            out, reference_dir=ref, artifacts=["table2"]
        )
        assert not report.ok
        assert any(f.category == "numeric" for f in report.fatal)

    @pytest.mark.parametrize("edit, category, detail", [
        (lambda lines: lines[:1], "structure",
         "table3 / figure: only in the reference campaign"),
        (lambda lines: [*lines, "extra,1.0,1.0,1.0,1.0"], "structure",
         "table3 / extra: only in the current campaign"),
        (lambda lines: [lines[0].replace("524288", "1048576"), lines[1]],
         "structure",
         "sweep keys differ: ['1024', '8192', '65536', '1048576'] vs "
         "reference ['1024', '8192', '65536', '524288']"),
        (lambda lines: [lines[0], lines[1].replace("6.0", "6.6")],
         "numeric", "table3 / figure @ 8192: +10.0% vs reference"),
    ], ids=["series-only-in-reference", "series-only-in-current",
            "keys-differ", "finding-names-the-cell"])
    def test_csv_edit_is_classified(self, tmp_path, edit, category, detail):
        out, ref = make_reference(tmp_path, ["table3"])
        csv = out / "table3.csv"
        csv.write_text("\n".join(edit(csv.read_text().splitlines())) + "\n")
        report = check_against_reference(
            out, reference_dir=ref, artifacts=["table3"]
        )
        assert [(f.category, f.detail) for f in report.fatal] == [
            (category, detail)
        ]

    def test_seed_drift_is_fatal(self, tmp_path):
        out, ref = make_reference(tmp_path, ["table3"])
        path = out / "table3.manifest.json"
        data = json.loads(path.read_text())
        data["seeds"] = {"seed": 4242}
        path.write_text(json.dumps(data))
        report = check_against_reference(
            out, reference_dir=ref, artifacts=["table3"]
        )
        assert [f.category for f in report.fatal] == ["seed"]

    def test_fallback_drift_is_fatal(self, tmp_path):
        out, ref = make_reference(tmp_path, ["table3"])
        path = out / "table3.manifest.json"
        data = json.loads(path.read_text())
        data["fallbacks"] = [{
            "task": "probe", "requested": "direct-batch",
            "chosen": "direct", "reason": "injected",
            "category": "capability",
        }]
        path.write_text(json.dumps(data))
        report = check_against_reference(
            out, reference_dir=ref, artifacts=["table3"]
        )
        assert [f.category for f in report.fatal] == ["fallback"]

    def test_environment_drift_is_warning_only(self, tmp_path):
        out, ref = make_reference(tmp_path, ["table3"])
        path = out / "table3.manifest.json"
        data = json.loads(path.read_text())
        data["environment"]["python"] = "3.99.0"
        path.write_text(json.dumps(data))
        report = check_against_reference(
            out, reference_dir=ref, artifacts=["table3"]
        )
        assert report.ok
        assert [f.category for f in report.warnings] == ["environment"]
        assert "[note:environment]" in report.describe()

    def test_missing_reference_names_the_regeneration_script(
        self, tmp_path
    ):
        out = tmp_path / "out"
        generate_artifacts(out, only=["table3"], plot=False)
        report = check_against_reference(
            out, reference_dir=tmp_path / "empty", artifacts=["table3"]
        )
        assert not report.ok
        assert any(
            "update_figure_references" in f.detail for f in report.fatal
        )

    def test_committed_references_cover_the_whole_registry(self):
        from repro.figures import artifact_ids, default_reference_dir

        reference = default_reference_dir()
        for artifact in artifact_ids():
            assert (reference / f"{artifact}.csv").exists()
            manifest = ArtifactManifest.load(
                reference / f"{artifact}.manifest.json"
            )
            assert manifest.artifact == artifact
            assert manifest.mode == "quick"


def constant_producer(seed: int) -> ArtifactData:
    """A registry-shaped producer whose data is fixed: SS at 2 s."""
    return ArtifactData(series={"SS": [2.0]}, keys=(2,), text="claimed")


@pytest.fixture
def claimed_spec(monkeypatch):
    spec = ArtifactSpec(
        id="claimed",
        title="an artifact that fails one of its claims",
        paper_artifact="(test)",
        kind="lines",
        producer=constant_producer,
        quick={"seed": 7},
        full={"seed": 7},
        claims=(
            Claim("SS is positive", lambda d, _: d.series["SS"][0] > 0),
            Claim("SS is below 1 s", lambda d, _: d.series["SS"][0] < 1),
        ),
    )
    monkeypatch.setitem(figures_registry.ARTIFACTS, "claimed", spec)
    return spec


class TestClaims:
    def test_check_reports_a_failed_claim_as_drift(
        self, tmp_path, capsys, claimed_spec
    ):
        _, ref = make_reference(tmp_path, ["claimed"])
        code = main([
            "figures", "--check", "--no-plot",
            "--out", str(tmp_path / "cli-out"),
            "--only", "claimed", "--reference", str(ref),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "1 drift(s)" in out
        assert "[DRIFT:claim] claimed: claim failed: SS is below 1 s" in out

    def test_full_figures_exits_one_and_names_the_claim(
        self, tmp_path, capsys, claimed_spec
    ):
        code = main([
            "figures", "--no-plot", "--out", str(tmp_path),
            "--only", "claimed",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert ("claims: 1/2 hold\n"
                "claim FAILED: claimed: SS is below 1 s") in out
        manifest = ArtifactManifest.load(tmp_path / "claimed.manifest.json")
        assert manifest.claims == {"SS is positive": True,
                                   "SS is below 1 s": False}

    def test_run_exits_one_and_names_the_claim(self, capsys, claimed_spec):
        assert main(["run", "claimed"]) == 1
        assert capsys.readouterr().out == (
            "claimed\nclaim holds: SS is positive\n"
            "claim FAILED: SS is below 1 s\n"
        )

    def test_only_the_unmodified_parameter_set_is_checked(
        self, claimed_spec
    ):
        assert produce_artifact(claimed_spec, "full", seed=8)[2] == {}
        # restating the full set's own value leaves it unmodified
        assert produce_artifact(claimed_spec, "full", seed=7)[2] == {
            "SS is positive": True, "SS is below 1 s": False,
        }

    def test_docs_claims_table_in_sync(self):
        from pathlib import Path

        rows = [
            f"| `{spec.id}` | {claim.name} | "
            f"{'full' if claim.full_only else 'quick, full'} |"
            for spec in ARTIFACTS.values() for claim in spec.claims
        ]
        text = Path(__file__).parent.parent.joinpath(
            "docs", "reproducing.md"
        ).read_text()
        embedded = text.split("<!-- artifact-claims:begin -->")[1].split(
            "<!-- artifact-claims:end -->"
        )[0].strip().splitlines()
        assert embedded == [
            "| artifact | claim | modes |", "| --- | --- | --- |", *rows
        ]


class TestCsvRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        series = {"SS": [1.5, 2.25], "FAC": [3.0, 4.125]}
        path = tmp_path / "series.csv"
        write_csv(path, series, (2, 8), key_header="pes")
        read, keys, header = read_csv_series(path)
        assert read == series
        assert keys == ["2", "8"]
        assert header == "pes"

    def test_headerless_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_csv_series(path)


class TestFiguresCli:
    def test_quick_subset_exits_zero(self, tmp_path, capsys):
        code = main([
            "figures", "--quick", "--no-plot",
            "--out", str(tmp_path / "out"),
            "--only", "table2", "--only", "table3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 artifact(s)" in out
        assert (tmp_path / "out" / "run.manifest.json").exists()

    def test_unknown_only_exits_two(self, tmp_path, capsys):
        code = main([
            "figures", "--quick", "--no-plot",
            "--out", str(tmp_path / "out"), "--only", "fig99",
        ])
        assert code == 2
        assert "fig99" in capsys.readouterr().err

    def test_check_clean_exits_zero_and_drift_exits_one(
        self, tmp_path, capsys
    ):
        out, ref = make_reference(tmp_path, ["table3"])
        code = main([
            "figures", "--check", "--no-plot",
            "--out", str(tmp_path / "cli-out"),
            "--only", "table3", "--reference", str(ref),
        ])
        assert code == 0
        assert "0 drift(s)" in capsys.readouterr().out
        ref_csv = ref / "table3.csv"
        ref_csv.write_text(ref_csv.read_text().replace("7.0", "7.7"))
        code = main([
            "figures", "--check", "--no-plot",
            "--out", str(tmp_path / "cli-out2"),
            "--only", "table3", "--reference", str(ref),
        ])
        assert code == 1
        assert "[DRIFT:numeric]" in capsys.readouterr().out

    def test_journal_records_artifacts(self, tmp_path):
        from repro.obs.report import load_journal, summarize_journal

        trace = tmp_path / "journal.jsonl"
        code = main([
            "figures", "--quick", "--no-plot",
            "--out", str(tmp_path / "out"),
            "--only", "table2", "--trace", str(trace),
        ])
        assert code == 0
        records = load_journal(trace)
        artifact_records = [
            r for r in records if r.get("kind") == "artifact"
        ]
        assert [r["artifact"] for r in artifact_records] == ["table2"]
        summary = summarize_journal(records)
        assert "figure pipeline: 1 artifact(s)" in summary
