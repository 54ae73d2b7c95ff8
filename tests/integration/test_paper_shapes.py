"""Scaled-down versions of the paper's headline results.

The full reproductions live in ``benchmarks/``; these tests assert the
qualitative *shapes* on smaller instances so they run in CI time:

- Fig. 2: withdrawal convergence falls ~linearly with the SDN fraction;
- §4: announcement shows no such improvement;
- §4: fail-over improvement is bounded (exploration depth is capped by
  the primary/backup path-length gap).
"""

import pytest

from repro.analysis.stats import linear_fit
from repro.experiments.common import (
    AnnouncementScenario,
    WithdrawalScenario,
    paper_config,
    run_fraction_sweep,
    run_scenario_once,
    sdn_set_for,
)
from repro.framework.convergence import measure_event
from repro.framework.experiment import Experiment
from repro.topology.builders import clique

MRAI = 5.0  # scaled down from 30s; dynamics identical, CI-friendly


@pytest.fixture(scope="module")
def withdrawal_sweep_result():
    return run_fraction_sweep(
        WithdrawalScenario,
        n=8,
        sdn_counts=[0, 2, 4, 6],
        runs=3,
        mrai=MRAI,
        recompute_delay=0.2,
    )


class TestFig2Shape:
    def test_convergence_decreases_monotonically(self, withdrawal_sweep_result):
        medians = withdrawal_sweep_result.medians()
        assert all(a > b for a, b in zip(medians, medians[1:])), medians

    def test_trend_is_linear(self, withdrawal_sweep_result):
        fit = withdrawal_sweep_result.fit()
        assert fit.is_decreasing
        assert fit.r_squared > 0.9, (
            withdrawal_sweep_result.medians(), fit
        )

    def test_substantial_total_reduction(self, withdrawal_sweep_result):
        assert withdrawal_sweep_result.reduction_at_full() > 0.5

    def test_zero_percent_dominated_by_mrai_exploration(
        self, withdrawal_sweep_result
    ):
        baseline = withdrawal_sweep_result.points[0].stats.median
        # several MRAI rounds of path exploration
        assert baseline > 2 * MRAI

    def test_update_count_shrinks_with_deployment(self, withdrawal_sweep_result):
        updates = [p.median_updates for p in withdrawal_sweep_result.points]
        assert updates[0] > updates[-1]

    @pytest.mark.parametrize("sdn_count", [0, 4])
    def test_converged_routers_agree_with_full_scan_oracle(self, sdn_count):
        # Every legacy router's Loc-RIB after the withdrawal equals what
        # a full scan of its Adj-RIBs-In picks, prefix by prefix.
        scenario = WithdrawalScenario()
        topology = scenario.topology(8)
        members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
        exp = Experiment(
            topology, sdn_members=members, name=scenario.name,
            config=paper_config(seed=3, mrai=MRAI, recompute_delay=0.2),
        ).build()
        scenario.configure(exp)
        exp.start()
        scenario.prepare(exp)
        measure_event(exp, lambda: scenario.event(exp))
        scenario.finish(exp)
        assert len(exp.legacy_asns()) == 8 - sdn_count
        for asn in exp.legacy_asns():
            assert exp.node(asn).verify_decisions() == [], f"AS{asn}"


class TestAnnouncementShape:
    def test_announcement_gets_no_linear_improvement(self):
        """§4: announcement converges fast already; SDN cannot help much."""
        times = {}
        for k in (0, 4):
            scenario = AnnouncementScenario()
            topo = scenario.topology(8)
            members = sdn_set_for(topo, k, scenario.reserved_legacy)
            m = run_scenario_once(
                scenario, topo, members,
                paper_config(seed=11, mrai=MRAI, recompute_delay=0.2),
            )
            times[k] = m.convergence_time
        # pure BGP announcement floods in well under one MRAI
        assert times[0] < MRAI
        # and SDN deployment does not produce a large absolute reduction
        assert abs(times[0] - times[4]) < MRAI


class TestWithdrawalVsAnnouncement:
    def test_withdrawal_much_slower_than_announcement_in_pure_bgp(self):
        config = paper_config(seed=5, mrai=MRAI)
        wd = WithdrawalScenario()
        topo = wd.topology(8)
        wd_m = run_scenario_once(wd, topo, frozenset(), config)
        an = AnnouncementScenario()
        topo2 = an.topology(8)
        an_m = run_scenario_once(
            an, topo2, frozenset(), paper_config(seed=5, mrai=MRAI)
        )
        assert wd_m.convergence_time > 3 * an_m.convergence_time
