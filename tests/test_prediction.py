"""Tests for the pre-execution performance predictor."""

from __future__ import annotations

import statistics

import pytest

from repro.core.params import SchedulingParams
from repro.core.prediction import (
    Prediction,
    predict,
    predict_all,
    prediction_report,
    recommend_technique,
)
from repro.core.registry import make_factory
from repro.directsim import DirectSimulator
from repro.workloads import ExponentialWorkload


def params(n=8192, p=8, h=0.5, mu=1.0, sigma=1.0) -> SchedulingParams:
    return SchedulingParams(n=n, p=p, h=h, mu=mu, sigma=sigma)


class TestPredict:
    def test_ss_overhead_is_exact(self):
        pr = predict("ss", params())
        assert pr.num_chunks == 8192
        assert pr.overhead_time == pytest.approx(0.5 * 8192 / 8)

    def test_stat_zero_variance_zero_waste(self):
        pr = predict("stat", params(sigma=0.0, h=0.0))
        assert pr.predicted_wasted_time == 0.0

    def test_stat_divisible_has_no_quantisation(self):
        pr = predict("stat", params(n=8192, p=8, sigma=0.0))
        assert pr.imbalance_time == 0.0

    def test_imbalance_grows_with_sigma(self):
        low = predict("stat", params(sigma=0.5))
        high = predict("stat", params(sigma=2.0))
        assert high.imbalance_time > low.imbalance_time

    def test_zero_tasks(self):
        pr = predict("gss", params(n=0))
        assert pr.num_chunks == 0
        assert pr.predicted_wasted_time == 0.0

    def test_kwargs_forwarded(self):
        small = predict("gss", params(), min_chunk=1)
        large = predict("gss", params(), min_chunk=64)
        assert large.num_chunks < small.num_chunks


class TestRanking:
    def test_predicted_ranking_matches_simulation(self):
        """The paper's goal: pick the right technique before execution."""
        pr = params(n=4096, p=8, h=0.5)
        predictions = {
            x.technique: x.predicted_wasted_time for x in predict_all(pr)
        }
        sim = DirectSimulator(pr, ExponentialWorkload(1.0))
        measured = {}
        for name in ("stat", "ss", "fsc", "gss", "tss", "fac", "fac2",
                     "bold"):
            label = predict(name, pr).technique
            measured[label] = statistics.mean(
                sim.run(make_factory(name), seed=i).average_wasted_time
                for i in range(12)
            )
        # Rank correlation between prediction and measurement.
        from scipy import stats

        order = sorted(predictions)
        rho, _ = stats.spearmanr(
            [predictions[t] for t in order],
            [measured[t] for t in order],
        )
        assert rho > 0.7

    def test_worst_and_best_identified(self):
        pr = params(n=8192, p=8, h=0.5)
        ranked = predict_all(pr)
        names = [x.technique for x in ranked]
        # SS's overhead puts it last; a factoring-family/guided technique
        # leads.
        assert names[-1] == "SS"
        assert names[0] in ("GSS", "FAC", "FAC2", "BOLD")

    #: (n, p, h) cells spanning light to heavy scheduling overhead
    GRID = ((1024, 8, 0.5), (4096, 16, 0.1), (8192, 8, 0.01),
            (4096, 64, 1.0), (16384, 32, 0.05))
    PAPER_EIGHT = ("stat", "ss", "fsc", "gss", "tss", "fac", "fac2",
                   "bold")

    def test_never_recommends_ss_under_overhead(self):
        # SS pays h on every task, so any h > 0 puts it behind a
        # batching technique
        for n, p, h in self.GRID:
            best = predict_all(params(n=n, p=p, h=h), self.PAPER_EIGHT)[0]
            assert best.technique != "SS", (n, p, h)

    def test_recommendation_is_near_the_simulated_best(self):
        """The paper's future-work goal, measured: the technique picked
        before execution wastes little more than the simulated best."""
        regrets = []
        for n, p, h in self.GRID:
            pr = params(n=n, p=p, h=h)
            sim = DirectSimulator(pr, ExponentialWorkload(1.0))
            measured = {
                name: statistics.mean(
                    sim.run(make_factory(name), seed=i).average_wasted_time
                    for i in range(6)
                )
                for name in self.PAPER_EIGHT
            }
            picked = recommend_technique(pr, self.PAPER_EIGHT)
            regrets.append(
                measured[picked.technique.lower()] / min(measured.values())
            )
        assert all(regret < 2.5 for regret in regrets), regrets
        assert statistics.geometric_mean(regrets) < 1.6

    def test_recommendation_depends_on_overhead(self):
        # With huge overhead, coarse chunking wins; with none, variance
        # smoothing wins.
        coarse = recommend_technique(params(h=50.0, sigma=0.1))
        fine = recommend_technique(params(h=0.0, sigma=2.0))
        assert coarse.num_chunks <= fine.num_chunks

    def test_recommend_returns_prediction(self):
        rec = recommend_technique(params())
        assert isinstance(rec, Prediction)


class TestReport:
    def test_report_sorted_best_first(self):
        text = prediction_report(params())
        lines = text.splitlines()[2:]
        values = [float(line.split()[-1]) for line in lines]
        assert values == sorted(values)

    def test_report_contains_all_defaults(self):
        text = prediction_report(params())
        for label in ("STAT", "SS", "GSS", "TSS", "FAC2", "BOLD"):
            assert label in text

    def test_custom_technique_list(self):
        text = prediction_report(params(), techniques=("ss", "stat"))
        assert "GSS" not in text
