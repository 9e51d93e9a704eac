"""Tests of the energy-aware scheduler (repro.serve.energy).

Three layers: the :class:`EnergyModel`'s predictions must agree with the
executor's measured accounting (prediction parity is what makes the
policy's choices meaningful), the :class:`EnergyPolicy`'s decisions must
respect deadline slack, and the broker's ``select`` take must preserve
per-tank FIFO order (the invariant that keeps any scheduling policy
bit-exact against the single-system reference).
"""

import pytest

from repro.app.system import FpgaReconfigSystem
from repro.fabric.device import get_device
from repro.serve import (
    DeviceMixPlanner,
    EnergyModel,
    EnergyPolicy,
    FleetService,
    MeasurementRequest,
    RequestBroker,
    offered_load_from_admission,
    synthetic_load,
)
from repro.serve.batching import STANDARD_PIPELINE
from repro.serve.energy import DEFAULT_FILL_WINDOW_S
from repro.serve.supervisor import AdmissionController
from repro.serve.thermal import ThermalGovernor, ThermalParams


@pytest.fixture(scope="module")
def system():
    return FpgaReconfigSystem()


@pytest.fixture(scope="module")
def model(system):
    return EnergyModel.from_system(system)


# -------------------------------------------------------------- EnergyModel


def _predicted_and_charged(n_requests, thermal=None):
    """Serve ``n_requests`` through one energy-policy worker; return the
    service and, per executed batch, the policy's estimate made just
    before it ran, the executor's outcome, and the worker's clock."""
    service = FleetService(
        workers=1, max_batch=8, batched=True, seed=7, policy="energy", thermal=thermal
    )
    executor = service.workers[0].executor
    model = service.scheduler.policy.model
    execute = executor.execute
    charged = []

    def spy(batch, worker=None):
        resident = executor.system.controller.resident[executor.slot_index]
        predicted = model.estimate(STANDARD_PIPELINE, batch.size, resident=resident)
        clock_mhz = executor.system.hw_clock_mhz
        outcome = execute(batch, worker=worker)
        charged.append((predicted, outcome, clock_mhz))
        return outcome

    executor.execute = spy
    accepted, rejected = service.submit_many(synthetic_load(n_requests, n_tanks=2))
    assert not rejected
    service.start()
    assert service.await_responses(accepted, timeout_s=120)
    assert service.shutdown()
    for predicted, outcome, _clock in charged:
        assert outcome.sweeps == 1 and outcome.faults == 0  # full batches
        assert predicted.energy_j == pytest.approx(outcome.energy_j, rel=1e-12, abs=0)
        assert predicted.device_time_s == pytest.approx(
            outcome.device_time_s, rel=1e-12, abs=0
        )
    return service, charged


def test_estimate_matches_measured_batch_energy():
    """Prediction parity: the energy policy's estimate of every batch the
    fleet then executes equals the executor's charge — on a cold system,
    and after a thermal governor has heated the worker and derated its
    clock (prediction and charge are one function, ``EnergyModel.charge``)."""
    service, charged = _predicted_and_charged(8)
    snap = service.metrics_snapshot()
    assert snap["counters"]["batches_formed"] == 1
    predicted = charged[0][0]
    assert snap["gauges"]["energy_j"] == pytest.approx(predicted.energy_j, rel=1e-9)
    assert snap["gauges"]["reconfig_energy_j"] == pytest.approx(
        predicted.reconfig_energy_j, rel=1e-9
    )

    governor = ThermalGovernor(
        ThermalParams(ambient_c=55.0, r_theta_c_per_w=300.0, tau_s=0.02)
    )
    _service, charged = _predicted_and_charged(16, thermal=governor)
    assert governor.derate_events >= 1
    cold_clock = charged[0][2]
    assert any(clock < cold_clock for _p, _o, clock in charged[1:])


def test_joules_per_request_decreases_with_batch_size(model):
    """Reconfiguration cost is per batch, so J/request must fall
    monotonically as the batch amortizes it over more requests."""
    costs = [
        model.estimate(STANDARD_PIPELINE, n).joules_per_request
        for n in range(1, 17)
    ]
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert costs[0] > 3 * costs[-1]


def test_optimal_batch_is_the_largest_under_this_cost_structure(model):
    size, estimate = model.optimal_batch_size(STANDARD_PIPELINE, 16)
    assert size == 16
    assert estimate.batch_size == 16


def test_resident_module_skips_the_first_reconfiguration(model):
    cold = model.estimate(("amp_phase", "capacity"), 4, resident=None)
    warm = model.estimate(("amp_phase", "capacity"), 4, resident="amp_phase")
    assert warm.reconfig_energy_j < cold.reconfig_energy_j
    assert warm.energy_j < cold.energy_j
    # Exactly one stage switch was saved.
    saved = model.stage_costs["amp_phase"].reconfig_energy_j
    assert cold.reconfig_energy_j - warm.reconfig_energy_j == pytest.approx(saved)


def test_estimate_validates_inputs(model):
    with pytest.raises(ValueError):
        model.estimate(STANDARD_PIPELINE, 0)
    with pytest.raises(ValueError):
        model.estimate(("frontend", "warp_drive"), 1)
    with pytest.raises(ValueError):
        model.optimal_batch_size(STANDARD_PIPELINE, 0)


def test_analytic_device_model_tracks_the_live_system(system, model):
    """``for_device`` prices a catalog device without building a system;
    it must agree with the live-system model to within the bitstream
    header overhead it cannot see (a few percent)."""
    analytic = EnergyModel.for_device(system.device)
    live = model.estimate(STANDARD_PIPELINE, 8, resident="filter")
    approx = analytic.estimate(STANDARD_PIPELINE, 8, resident="filter")
    assert approx.energy_j == pytest.approx(live.energy_j, rel=0.10)


# ------------------------------------------------------------- EnergyPolicy


def _groups(count, deadline=None, head=0, pipeline=STANDARD_PIPELINE):
    return {
        tuple(pipeline): {
            "count": count,
            "earliest_deadline_s": deadline,
            "head_position": head,
        }
    }


def test_policy_waits_to_fill_when_slack_allows(model):
    policy = EnergyPolicy(model, max_batch=8, fill_window_s=0.2)
    decision = policy.decide(_groups(2, deadline=100.0), now=0.0)
    assert decision.target_batch == 8
    assert decision.wait_until_s == pytest.approx(0.2)


def test_policy_dispatches_immediately_when_optimal_batch_is_queued(model):
    policy = EnergyPolicy(model, max_batch=4, fill_window_s=0.2)
    decision = policy.decide(_groups(6, deadline=100.0), now=0.0)
    assert decision.target_batch == 4
    assert decision.wait_until_s == 0.0


def test_policy_serves_urgent_deadline_without_waiting(model):
    policy = EnergyPolicy(model, max_batch=8, fill_window_s=0.2, slo_margin_s=0.02)
    decision = policy.decide(_groups(2, deadline=0.01), now=0.0)
    assert decision.wait_until_s == 0.0
    assert decision.target_batch == 2  # what is queued, now


def test_policy_wait_is_bounded_by_deadline_slack(model):
    policy = EnergyPolicy(model, max_batch=8, fill_window_s=10.0, slo_margin_s=0.0)
    decision = policy.decide(_groups(1, deadline=0.5), now=0.0)
    assert 0.0 < decision.wait_until_s <= 0.5


def test_policy_picks_the_cheaper_group(model):
    """Two pipeline groups queued: the fuller one amortizes better, so
    the policy must serve it first even though the other is the head."""
    policy = EnergyPolicy(model, max_batch=8, fill_window_s=0.0)
    short = ("amp_phase", "capacity")
    groups = {
        tuple(short): {"count": 1, "earliest_deadline_s": None, "head_position": 0},
        STANDARD_PIPELINE: {
            "count": 8,
            "earliest_deadline_s": None,
            "head_position": 1,
        },
    }
    decision = policy.decide(groups, now=0.0)
    assert decision.pipeline == STANDARD_PIPELINE


def test_policy_rejects_empty_queue_and_bad_config(model):
    policy = EnergyPolicy(model)
    with pytest.raises(ValueError):
        policy.decide({}, now=0.0)
    with pytest.raises(ValueError):
        EnergyPolicy(model, max_batch=0)
    with pytest.raises(ValueError):
        EnergyPolicy(model, fill_window_s=-1.0)


def test_policy_uses_admission_ewma_to_budget_the_wait(model):
    """With a slow measured service time, the execution estimate eats the
    deadline slack and the policy must not wait."""
    admission = AdmissionController(workers=1)
    admission.observe_batch(1, 10.0)  # 10 s/request measured
    policy = EnergyPolicy(
        model, max_batch=8, fill_window_s=0.2, slo_margin_s=0.0, admission=admission
    )
    decision = policy.decide(_groups(2, deadline=1.0), now=0.0)
    assert decision.wait_until_s == 0.0


# ----------------------------------------------------- broker group support


def _req(rid, tank, pipeline=STANDARD_PIPELINE, deadline=None):
    return MeasurementRequest(
        request_id=rid,
        tank_id=tank,
        level=0.5,
        pipeline=tuple(pipeline),
        deadline_s=deadline,
    )


def test_group_summary_counts_and_deadlines():
    broker = RequestBroker(capacity=16)
    short = ("amp_phase", "capacity")
    broker.submit(_req(1, "t0", deadline=9.0))
    broker.submit(_req(2, "t1", pipeline=short))
    broker.submit(_req(3, "t2", deadline=5.0))
    groups = broker.group_summary()
    assert groups[STANDARD_PIPELINE]["count"] == 2
    assert groups[STANDARD_PIPELINE]["earliest_deadline_s"] == 5.0
    assert groups[STANDARD_PIPELINE]["head_position"] == 0
    assert groups[tuple(short)] == {
        "count": 1,
        "earliest_deadline_s": None,
        "head_position": 1,
    }


def test_take_select_skips_other_pipelines():
    broker = RequestBroker(capacity=16)
    short = ("amp_phase", "capacity")
    broker.submit(_req(1, "t0", pipeline=short))
    broker.submit(_req(2, "t1"))
    broker.submit(_req(3, "t2"))
    taken = broker.take(8, timeout_s=0.0, select=STANDARD_PIPELINE)
    assert [r.request_id for r in taken] == [2, 3]
    assert broker.depth == 1  # the short-pipeline request stays queued


def test_take_select_preserves_per_tank_fifo():
    """A tank's earlier request of another pipeline blocks its later
    selected-pipeline request: measurements of one tank must never be
    reordered (the IIR filter state depends on it)."""
    broker = RequestBroker(capacity=16)
    short = ("amp_phase", "capacity")
    broker.submit(_req(1, "tankA", pipeline=short))
    broker.submit(_req(2, "tankA"))
    broker.submit(_req(3, "tankB"))
    taken = broker.take(8, timeout_s=0.0, select=STANDARD_PIPELINE)
    assert [r.request_id for r in taken] == [3]
    assert [r.request_id for r in broker.take(8, timeout_s=0.0)] == [1]
    assert [r.request_id for r in broker.take(8, timeout_s=0.0)] == [2]


def test_take_select_falls_back_to_head_group():
    """When the selected group vanished (stale policy view), a non-empty
    queue must still yield a batch."""
    broker = RequestBroker(capacity=16)
    short = ("amp_phase", "capacity")
    broker.submit(_req(1, "t0", pipeline=short))
    broker.submit(_req(2, "t1", pipeline=short))
    taken = broker.take(8, timeout_s=0.0, select=STANDARD_PIPELINE)
    assert [r.request_id for r in taken] == [1, 2]


# --------------------------------------------------------- DeviceMixPlanner


@pytest.fixture(scope="module")
def planner():
    return DeviceMixPlanner(max_batch=16)


def test_planner_small_die_wins_at_low_load(planner):
    assert planner.best(5.0).device == "XC3S400"


def test_planner_big_die_wins_at_high_load(planner):
    best = planner.best(5000.0)
    assert best.slots_per_die > 1
    assert get_device(best.device).slices > get_device("XC3S400").slices


def test_planner_skips_infeasible_devices(planner):
    plans = planner.plan(50.0)
    names = {p.device for p in plans}
    # XC3S50/XC3S200 cannot hold the static side plus one slot.
    assert "XC3S50" not in names and "XC3S200" not in names
    assert "XC3S400" in names
    # Sorted best-first by fleet power.
    powers = [p.total_power_w for p in plans]
    assert powers == sorted(powers)


def test_planner_capacity_covers_the_offered_load(planner):
    for load in (1.0, 300.0, 2000.0):
        for plan in planner.plan(load):
            assert plan.capacity_rps >= load
            assert 0.0 < plan.utilization <= 1.0


def test_planner_rejects_non_positive_load(planner):
    with pytest.raises(ValueError):
        planner.plan(0.0)


def test_offered_load_from_admission():
    admission = AdmissionController(workers=3)
    assert offered_load_from_admission(admission) == 0.0
    admission.observe_batch(4, 2.0)  # 0.5 s/request
    assert offered_load_from_admission(admission) == pytest.approx(6.0)


# ------------------------------------------------------------ fleet wiring


def test_energy_policy_service_serves_everything_exactly():
    """The energy policy changes *when* requests run, never *what* they
    compute: responses must equal the FIFO service's bit for bit."""
    results = {}
    for policy in ("fifo", "energy"):
        service = FleetService(
            workers=1, max_batch=8, batched=True, seed=11, policy=policy
        )
        service.start()
        requests = synthetic_load(12, n_tanks=3)
        accepted, rejected = service.submit_many(requests)
        assert not rejected
        assert service.await_responses(accepted, timeout_s=120)
        assert service.shutdown()
        results[policy] = {
            r.request_id: (r.status, r.level_measured, r.capacitance_pf)
            for r in service.responses()
        }
        assert service.metrics_snapshot()["service"]["policy"] == policy
    assert results["fifo"] == results["energy"]


def test_energy_policy_serves_unbatched_as_batches_of_one():
    """Unbatched, the energy policy targets batches of one and never
    waits to fill."""
    service = FleetService(workers=1, batched=False, policy="energy")
    policy = service.scheduler.policy
    assert policy.max_batch == service.scheduler.max_batch == 1
    queued = {STANDARD_PIPELINE: {"count": 1, "earliest_deadline_s": None, "head_position": 0}}
    decision = policy.decide(queued, now=5.0)
    assert (decision.target_batch, decision.wait_until_s) == (1, 5.0)
    accepted, _ = service.submit_many(synthetic_load(4, n_tanks=2))
    service.start()
    assert service.await_responses(accepted, timeout_s=60)
    service.shutdown()
    assert service.metrics_snapshot()["histograms"]["batch_size"]["max"] == 1
    with pytest.raises(ValueError):
        FleetService(policy="thermal")


def test_energy_service_defaults_the_fill_window():
    service = FleetService(workers=1, policy="energy")
    assert service.scheduler.policy.fill_window_s == DEFAULT_FILL_WINDOW_S
    service = FleetService(workers=1, policy="energy", window_s=0.2)
    assert service.scheduler.policy.fill_window_s == 0.2
