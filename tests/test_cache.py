"""The content-addressed result cache (repro.cache).

Covers the PR-6 guarantees: a cached hit is bit-identical to a fresh
run, the cache key changes exactly when results can change, stale or
corrupt entries miss cleanly, concurrent processes share one directory
safely, verification sampling fails loudly on divergence, and cache
traffic is observable through the journal, the metrics registry and
``repro-dls cache``/``repro-dls stats``.
"""

from __future__ import annotations

import copyreg
import dataclasses
import io
import json
import multiprocessing
import pickle
from pathlib import Path

import pytest

from repro.cache import (
    SCHEMA_VERSION,
    CacheVerificationError,
    ResultCache,
    active_cache,
    cache_to,
    suspended,
)
from repro.core.params import SchedulingParams
from repro.experiments.runner import RunTask, run_campaign, run_replicated
from repro.metrics.wasted_time import OverheadModel
from repro.obs import journal_to, load_journal, metrics_to, summarize_journal
from repro.obs.stats import RunStats
from repro.results import RunResult
from repro.scenarios import get_scenario
from repro.simgrid.platform import star_platform
from repro.workloads import ConstantWorkload, ExponentialWorkload


def small_task(**overrides) -> RunTask:
    base = dict(
        technique="fac2",
        params=SchedulingParams(n=512, p=4, h=0.5, mu=1.0, sigma=1.0),
        workload=ExponentialWorkload(1.0),
        simulator="msg-fast",
    )
    base.update(overrides)
    return RunTask(**base)


def tiny_platform() -> Platform:
    return star_platform(workers=4, worker_speed=2.0)


# -- round trips -----------------------------------------------------------
def test_sweep_roundtrip_is_bit_identical(tmp_path):
    task = small_task()
    with cache_to(tmp_path / "cache") as cache:
        cold = run_replicated(task, 6, campaign_seed=11, processes=1)
        warm = run_replicated(task, 6, campaign_seed=11, processes=1)
    assert cold == warm
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.saved_wall_s > 0


def test_sweep_hit_matches_uncached_run(tmp_path):
    task = small_task()
    reference = run_replicated(task, 5, campaign_seed=3, processes=1)
    with cache_to(tmp_path / "cache"):
        stored = run_replicated(task, 5, campaign_seed=3, processes=1)
        served = run_replicated(task, 5, campaign_seed=3, processes=1)
    assert stored == reference
    assert served == reference


def test_execute_single_task_roundtrip(tmp_path):
    task = small_task(seed_entropy=(42,))
    fresh = task.execute()
    with cache_to(tmp_path / "cache") as cache:
        first = task.execute()
        second = task.execute()
    assert first == fresh
    assert second == fresh
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)


def test_campaign_partial_hits_simulate_only_misses(tmp_path):
    tasks = [small_task(seed_entropy=(i,)) for i in range(3)]
    extra = small_task(seed_entropy=(99,))
    with cache_to(tmp_path / "cache") as cache:
        first = run_campaign(tasks, processes=1)
        second = run_campaign(tasks + [extra], processes=1)
    assert second[:3] == first
    assert cache.stats.misses == 4  # 3 cold + 1 new cell
    assert cache.stats.hits == 3
    assert cache.stats.stores == 4


def test_pooled_campaign_shares_cache_with_serial(tmp_path):
    tasks = [small_task(seed_entropy=(i,)) for i in range(4)]
    serial = run_campaign(tasks, processes=1)
    with cache_to(tmp_path / "cache") as cache:
        pooled = run_campaign(tasks, processes=2)
        warm = run_campaign(tasks, processes=2)
    assert pooled == serial
    assert warm == serial
    assert cache.stats.hits == 4
    assert cache.stats.stores == 4


def test_msg_fast_and_msg_share_entries(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    fast = small_task(seed_entropy=(7,))
    slow = dataclasses.replace(fast, simulator="msg")
    assert cache.task_key(fast) == cache.task_key(slow)
    with cache_to(tmp_path / "cache") as active:
        stored = slow.execute()
        served = fast.execute()
    assert served == stored
    assert active.stats.hits == 1


# -- key coverage (every RunTask field) -----------------------------------
#: field -> (mutation, cache key must change, derived entropy must change)
KEY_MUTATIONS = {
    "technique": ("gss", True, True),
    "params": (
        SchedulingParams(n=1024, p=4, h=0.5, mu=1.0, sigma=1.0), True, True,
    ),
    "workload": (ConstantWorkload(2.0), True, True),
    "simulator": ("direct", True, True),
    "overhead_model": (OverheadModel.PER_WORKER, True, True),
    "platform": (tiny_platform(), True, True),
    "technique_kwargs": ({"chunk_override": 3}, True, True),
    # explicit seeds change the run, but not the *derived* entropy
    "seed_entropy": ((1, 2, 3), True, False),
    # tracing populates chunk_log (a different result object), but is
    # excluded from seed derivation so traced runs stay bit-identical
    "collect_chunk_log": (True, True, False),
    # a perturbation scenario changes both the machine and the seeds;
    # scenario=None stays on the pre-scenario key so old entries survive
    "scenario": (get_scenario("slow-quarter"), True, True),
}


def test_key_mutation_table_covers_every_field():
    fields = {f.name for f in dataclasses.fields(RunTask)}
    assert fields == set(KEY_MUTATIONS), (
        "RunTask grew a field the cache-key coverage table does not "
        "classify — decide whether it can affect results and add it to "
        "KEY_MUTATIONS"
    )


@pytest.mark.parametrize("field", sorted(KEY_MUTATIONS))
def test_cache_key_changes_iff_results_can_change(field, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    base = small_task()
    value, key_changes, entropy_changes = KEY_MUTATIONS[field]
    mutated = dataclasses.replace(base, **{field: value})
    assert (cache.task_key(mutated) != cache.task_key(base)) == key_changes
    assert (
        mutated.derived_entropy() != base.derived_entropy()
    ) == entropy_changes


def test_bit_identical_backends_share_keys_but_distinct_do_not(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    base = small_task()
    assert cache.task_key(
        dataclasses.replace(base, simulator="msg")
    ) == cache.task_key(base)
    assert cache.task_key(
        dataclasses.replace(base, simulator="direct")
    ) != cache.task_key(base)


def test_perturbed_sweeps_cache_separately_from_clean(tmp_path):
    clean = small_task(simulator="direct")
    perturbed = dataclasses.replace(
        clean, scenario=get_scenario("slow-quarter")
    )
    with cache_to(tmp_path / "cache") as cache:
        baseline = run_replicated(clean, 2, campaign_seed=3, processes=1)
        cold = run_replicated(perturbed, 2, campaign_seed=3, processes=1)
        warm = run_replicated(perturbed, 2, campaign_seed=3, processes=1)
    assert warm == cold
    assert cold != baseline  # the scenario really perturbed the machine
    assert cache.stats.misses == 2  # clean and perturbed are distinct keys
    assert cache.stats.hits == 1
    assert all(r.extras["scenario"] == "slow-quarter" for r in warm)


#: task and sweep keys (4 runs, campaign seed 1) that must not move, so
#: these cells' entries stay hits.  msg-fast shares msg's keys and
#: direct-batch shares direct's: each fast path runs its oracle's runs
#: under its oracle's seeds, so it serves and is served by the oracle's
#: entries.  Pinned at cache schema 2; :data:`SCHEMA_1_KEYS` holds the
#: keys they had before.
UNCHANGED_KEYS = {
    ("fac2", "direct", "exponential", None): (
        "142a59b9aab8a470782f5ac102804a813cf6da57f4602bdfed08bf5a191abef4",
        "4f6870f44b85d0b18a2961c08fcaf97f3019a746bec8611ee02103c2c2177b64",
    ),
    ("fac2", "msg", "exponential", None): (
        "0bb6cb2148c76b2a17e80dc7dcbc02993006af291e44172da3ade18f601ad535",
        "ad033220ebf1532df0e0ef3394a93159aaf66cf139cef31255cb093078f0beef",
    ),
    ("fac2", "msg-fast", "exponential", None): (
        "0bb6cb2148c76b2a17e80dc7dcbc02993006af291e44172da3ade18f601ad535",
        "ad033220ebf1532df0e0ef3394a93159aaf66cf139cef31255cb093078f0beef",
    ),
    # the stepping path, stochastic and deterministic
    ("awf-c", "direct-batch", "exponential", None): (
        "b57a5d54933f9d90566194a2e8545fbfbf533ed5f7ffddf056e5963bda26ff3f",
        "1041b78dcdb6ad578b9b3f446ec1432a13fb13e4fff5d379dad03ae9b95120c4",
    ),
    ("awf-c", "direct-batch", "constant", None): (
        "c4402099f99c08253307fd2023cadc449835b5202a1369ab07a6bdfa7c20a31a",
        "5dff7d2dbf9629a4858aee733ace23f36e461136b54b6f58e6f9919d2bd61711",
    ),
    # closed-form and scenario cells, pinned when per-worker speeds and
    # start times stopped being task fields; their slots in the derived
    # entropy must not move
    ("ss", "direct-batch", "constant", None): (
        "a41924e17483560ff59156b7d96c77e4e3a0183cc09a3a8dc83841efae5e1ad9",
        "f5e312882980297abc30dbaf8aa5f51b710fd008348323ae1c7dbf787f592bb5",
    ),
    ("fac2", "direct-batch", "exponential", None): (
        "142a59b9aab8a470782f5ac102804a813cf6da57f4602bdfed08bf5a191abef4",
        "4f6870f44b85d0b18a2961c08fcaf97f3019a746bec8611ee02103c2c2177b64",
    ),
    ("awf-c", "direct-batch", "exponential", "wave-mild"): (
        "96a66a69bb29d01c5bd27997c7aa67f743f3e33cb29fea86df788871a22994da",
        "773a76f1832eb2814dff4eec6239c684d7cd929a34b161e14de4b7d9e5f11fbd",
    ),
    # fail-stop faults send this cell to direct, whose seed it derives
    ("gss", "direct-batch", "constant", "failstop-quarter"): (
        "2ad4eb48f0871becae00f0d702257c854e659202614960f7814bcb857d09fc07",
        "1d7c096c6ba244c4c8dde16b705df5e0f7d288526eac4a77798c5be8cddcd785",
    ),
}
#: the same cells' keys at cache schema 1, before results packed their
#: per-PE times into ``array('d')`` and declared ``__slots__``.  Schema-1
#: pickles no longer load, so these entries must miss.
SCHEMA_1_KEYS = {
    ("fac2", "direct", "exponential", None): (
        "696bd7d6fa3e1cd4f9a983d1ba5939c94346db424ad4d433e469e8cb69a9e1b8",
        "16dd5a17cd49cf81d253531daee5a94639a4e7a4384e77b80064a366900e42df",
    ),
    ("fac2", "msg", "exponential", None): (
        "c003a1bcd03625256c55279123be046d3279d87c697796b3f66d1afcc49f1c40",
        "940ed90901605080e414e3f5eef5164b6a1a2ff21adb31a68117b3b4e4199029",
    ),
    ("fac2", "msg-fast", "exponential", None): (
        "c003a1bcd03625256c55279123be046d3279d87c697796b3f66d1afcc49f1c40",
        "940ed90901605080e414e3f5eef5164b6a1a2ff21adb31a68117b3b4e4199029",
    ),
    # the stepping path, stochastic and deterministic
    ("awf-c", "direct-batch", "exponential", None): (
        "12b178a8679376af9795193f753b755a3e15e2cb53be7454d8c555d0b8bb0377",
        "c2a6c2b212e947988448fc06deed7dc413b6da1053c2396e56413d92af023d57",
    ),
    ("awf-c", "direct-batch", "constant", None): (
        "d79a6352e34c294e95a709ec289d9399156f0152005b7e352fa7fa46fbb8cf01",
        "3177477411b79b55bed12826af60a78e90dc92960ca7f4cf2bc4217914b9f2a5",
    ),
    # closed-form and scenario cells, pinned when per-worker speeds and
    # start times stopped being task fields; their slots in the derived
    # entropy must not move
    ("ss", "direct-batch", "constant", None): (
        "94b63be3124a5258b068d154378d492f3b308aaa76b7ed1eaefd49b2798ad95f",
        "bdc9c04af752b5a9cb1c478c55e6d98fcdfbe98f428bf996791888bc3b9e791f",
    ),
    ("fac2", "direct-batch", "exponential", None): (
        "696bd7d6fa3e1cd4f9a983d1ba5939c94346db424ad4d433e469e8cb69a9e1b8",
        "16dd5a17cd49cf81d253531daee5a94639a4e7a4384e77b80064a366900e42df",
    ),
    ("awf-c", "direct-batch", "exponential", "wave-mild"): (
        "56c23bd45a335769d8002a478e7b890735d6fcca56b4e2a8ca3f1756eda3cc05",
        "ccf128360bca2e2a8b895946119a2d54291502181721a70efbdc6dd4945b8cc0",
    ),
    # fail-stop faults send this cell to direct, whose seed it derives
    ("gss", "direct-batch", "constant", "failstop-quarter"): (
        "2b525a39372cd7d83730b48c62bb167d56ec6d23b8ad9619aef88e678e782c01",
        "002ab7ccadc5aca5f55c85888dfe40532c1ceb306ca22846ce9c9d11c2ff47c1",
    ),
}
#: keys direct-batch cells had before: the closed-form ones before that
#: kernel summed ``total_task_time`` in chunk order, then every one
#: before direct-batch took direct's seeds and entropy namespace.  Their
#: entries must miss.
OLD_CLOSED_FORM_KEYS = {
    ("fac2", "direct-batch", "exponential", None): (
        (
            "71b199c72a7f5182e2a5dc4127e7a9e52ca69a8148a7af385bd343c5aad83782",
            "ffe07435ca957a716dc3fb57a571891f09eee3847bedcbb183902b3dcca0a725",
        ),
        (
            "8e75d14035082051e8bf074b3d6dbbe28637f2c9c6ad58a3e48530f9513e28d6",
            "1fda6fb60728c663216dd63b58caa5a231301e63dc2db5586de7d2948fe21945",
        ),
    ),
    ("ss", "direct-batch", "constant", None): (
        (
            "c49c63f2cd884e63ede9d294c5febd126b5dcbfff8632d19a6b3ec6d7783a79a",
            "b2bf58af4bd6d7acfc868085a18fc9f87a6d699a665d9a40c1a6b427605ec575",
        ),
        (
            "9440c08f61226878f7117842e619e9c33c1ebbc9d4f40653d80eadd25ab34b09",
            "e005946bf110e891e162a18e9a18f60f183b05b81a83a168c0a3dcfec51828ad",
        ),
    ),
    ("gss", "direct-batch", "constant", "failstop-quarter"): (
        (
            "5bd7ddf39066aefe2c5a2e4c397307c2a479596a427d58be0910f73afb3b9a83",
            "0d99cb7bb465db53572e2aedb90e7977cad544854b2cde63124c9321a51c0246",
        ),
        (
            "ef8fc176273a9c9ba60ac853ba45be2a8dcfafa692805024faebd41d5f887ed4",
            "65003c06ca1a11e38098cd316f15cc9311ecdbbbb6f74d5aef64cce695f5ec43",
        ),
    ),
    ("awf-c", "direct-batch", "exponential", None): ((
        "c6d0122a48c89a107d67df94e4521e2eccb4ef568bbb8447e8b17d99d084f40a",
        "3ccebe7e4631f7484e424ac2cc1208eb7c224a4f69d11e5e97ca0cc7ea5b281b",
    ),),
    ("awf-c", "direct-batch", "constant", None): ((
        "f09746e7026c32bb2d76fed3fa71285ba8c86ea94e375210b3bbc3ad798f405f",
        "ff1999fb510cffda033d3712bb2e67bdde0075eecf54eb75c6392146e57b4bc7",
    ),),
    ("awf-c", "direct-batch", "exponential", "wave-mild"): ((
        "de6b4a1c010ad6f3b21f5a77edcee57a41f0b77b2c6fc927e1dc3c6ef49efab4",
        "b94addb47c5807efdcece6c9a7324aac9f65e9ba1025498ca370ccc4a94565e1",
    ),),
}


def _keys(cache, technique, simulator, dist, scenario):
    task = RunTask(
        technique=technique,
        params=SchedulingParams(n=256, p=4, h=0.5, mu=1.0, sigma=1.0),
        workload=(
            ExponentialWorkload(1.0) if dist == "exponential"
            else ConstantWorkload(1.0)
        ),
        simulator=simulator,
        scenario=None if scenario is None else get_scenario(scenario),
    )
    return cache.task_key(task), cache.sweep_key(task, 4, 1)


@pytest.mark.parametrize("cell", sorted(UNCHANGED_KEYS, key=str), ids=str)
def test_unchanged_simulators_keep_their_keys(tmp_path, cell):
    cache = ResultCache(tmp_path / "cache")
    assert _keys(cache, *cell) == UNCHANGED_KEYS[cell]


@pytest.mark.parametrize("cell", sorted(SCHEMA_1_KEYS, key=str), ids=str)
def test_schema_1_keys_changed(tmp_path, cell):
    cache = ResultCache(tmp_path / "cache")
    task_key, sweep_key = _keys(cache, *cell)
    old_task_key, old_sweep_key = SCHEMA_1_KEYS[cell]
    assert task_key != old_task_key
    assert sweep_key != old_sweep_key


class _Schema1Pickler(pickle.Pickler):
    """Pickles results as schema 1 stored them: an instance ``__dict__``
    as the state, per-PE times as lists of floats."""

    def reducer_override(self, obj):
        if not isinstance(obj, (RunResult, RunStats)):
            return NotImplemented
        state = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        if isinstance(obj, RunResult):
            state["compute_times"] = list(obj.compute_times)
        return copyreg.__newobj__, (type(obj),), state


def test_schema_1_entry_is_a_clean_miss(tmp_path):
    """An entry stored at schema 1 no longer unpickles, and it lies under
    a schema-1 key, so a lookup misses it cleanly instead of reading it
    as corrupt."""
    cell = ("fac2", "direct", "exponential", None)
    task = RunTask(
        technique="fac2",
        params=SchedulingParams(n=256, p=4, h=0.5, mu=1.0, sigma=1.0),
        workload=ExponentialWorkload(1.0),
        simulator="direct",
    )
    results = run_replicated(task, 4, campaign_seed=1, processes=1)
    old_key = SCHEMA_1_KEYS[cell][1]
    buffer = io.BytesIO()
    _Schema1Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump({
        "schema": 1, "key": old_key, "kind": "sweep", "describe": {},
        "provenance": {}, "wall_time_s": 0.0, "created": 0.0,
        "results": results,
    })
    with pytest.raises(AttributeError, match="__dict__"):
        pickle.loads(buffer.getvalue())
    root = tmp_path / "cache"
    path = ResultCache(root)._object_path(old_key)
    path.parent.mkdir(parents=True)
    path.write_bytes(buffer.getvalue())
    with cache_to(root) as cache:
        again = run_replicated(task, 4, campaign_seed=1, processes=1)
        assert cache.sweep_key(task, 4, 1) == UNCHANGED_KEYS[cell][1]
    assert again == results
    assert (cache.stats.misses, cache.stats.hits) == (1, 0)
    assert (cache.stats.stale, cache.stats.corrupt) == (0, 0)
    assert cache.stats.stores == 1


@pytest.mark.parametrize(
    "cell", sorted(OLD_CLOSED_FORM_KEYS, key=str), ids=str
)
def test_closed_form_direct_batch_keys_changed(tmp_path, cell):
    cache = ResultCache(tmp_path / "cache")
    task_key, sweep_key = _keys(cache, *cell)
    for old_task_key, old_sweep_key in OLD_CLOSED_FORM_KEYS[cell]:
        assert task_key != old_task_key
        assert sweep_key != old_sweep_key


def test_sweep_key_ignores_seed_entropy_but_not_runs(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    base = small_task()
    seeded = dataclasses.replace(base, seed_entropy=(5,))
    assert cache.sweep_key(base, 4, 1) == cache.sweep_key(seeded, 4, 1)
    assert cache.sweep_key(base, 4, 1) != cache.sweep_key(base, 5, 1)
    assert cache.sweep_key(base, 4, 1) != cache.sweep_key(base, 4, 2)


# -- verification ----------------------------------------------------------
def test_cache_verify_passes_on_clean_entries(tmp_path):
    task = small_task()
    with cache_to(tmp_path / "cache", verify_fraction=1.0) as cache:
        run_replicated(task, 4, campaign_seed=1, processes=1)
        again = run_replicated(task, 4, campaign_seed=1, processes=1)
    assert cache.stats.verified == 1
    assert len(again) == 4


def test_cache_verify_fails_loudly_on_poisoned_entry(tmp_path):
    task = small_task()
    root = tmp_path / "cache"
    with cache_to(root) as cache:
        run_replicated(task, 3, campaign_seed=2, processes=1)
        key = cache.sweep_key(task, 3, 2)
    path = root / "objects" / key[:2] / f"{key}.pkl"
    payload = pickle.loads(path.read_bytes())
    payload["results"][1].makespan += 1.0  # poison one replication
    path.write_bytes(pickle.dumps(payload))
    with cache_to(root, verify_fraction=1.0):
        with pytest.raises(CacheVerificationError, match="replication 1"):
            run_replicated(task, 3, campaign_seed=2, processes=1)


def test_cache_verify_samples_the_same_keys_on_every_pass(tmp_path):
    """Two caches over one warmed directory verify the same hits: those
    whose key's first 8 hex digits, as a fraction of 16**8, fall below
    the verify fraction."""
    root = tmp_path / "cache"
    tasks = [small_task(seed_entropy=(i,)) for i in range(24)]
    with cache_to(root) as warm:
        run_campaign(tasks, processes=1)
        keys = [warm.task_key(task) for task in tasks]
    verified = []
    for _ in range(2):
        journal = tmp_path / f"journal-{len(verified)}.jsonl"
        with cache_to(root, verify_fraction=0.5), journal_to(journal):
            run_campaign(tasks, processes=1)
        verified.append(sorted(
            record["key"] for record in load_journal(journal)
            if record.get("kind") == "cache" and record.get("op") == "verify"
        ))
    selected = sorted(
        key[:16] for key in keys if int(key[:8], 16) / 16 ** 8 < 0.5
    )
    assert verified == [selected, selected]
    assert 0 < len(selected) < len(tasks)


# -- robustness ------------------------------------------------------------
def test_stale_schema_misses_cleanly(tmp_path):
    task = small_task()
    root = tmp_path / "cache"
    with cache_to(root) as cache:
        first = run_replicated(task, 3, campaign_seed=4, processes=1)
        key = cache.sweep_key(task, 3, 4)
    path = root / "objects" / key[:2] / f"{key}.pkl"
    payload = pickle.loads(path.read_bytes())
    payload["schema"] = SCHEMA_VERSION + 1
    path.write_bytes(pickle.dumps(payload))
    with cache_to(root) as cache:
        second = run_replicated(task, 3, campaign_seed=4, processes=1)
        assert cache.stats.stale == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
    assert second == first


def test_corrupt_entry_misses_cleanly(tmp_path):
    task = small_task()
    root = tmp_path / "cache"
    with cache_to(root) as cache:
        first = run_replicated(task, 3, campaign_seed=5, processes=1)
        key = cache.sweep_key(task, 3, 5)
    path = root / "objects" / key[:2] / f"{key}.pkl"
    path.write_bytes(b"not a pickle")
    with cache_to(root) as cache:
        second = run_replicated(task, 3, campaign_seed=5, processes=1)
        assert cache.stats.errors == 1
        assert cache.stats.misses == 1
    assert second == first


def test_suspended_hides_the_active_cache(tmp_path):
    with cache_to(tmp_path / "cache") as cache:
        assert active_cache() is cache
        with suspended():
            assert active_cache() is None
        assert active_cache() is cache


def test_overlapping_suspensions_in_two_threads_leave_the_cache_active(
        tmp_path):
    # first enters, second enters, first leaves, second leaves: a
    # save-and-restore global ends this sequence suspended for everyone
    import threading

    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen: dict[str, object] = {}

    def first():
        with suspended():
            first_in.set()
            seen["first waited"] = second_in.wait(10)
        first_out.set()

    def second():
        seen["second waited"] = first_in.wait(10)
        seen["second sees"] = active_cache()  # while first is suspended
        with suspended():
            second_in.set()
            seen["second waited again"] = first_out.wait(10)

    with cache_to(tmp_path / "cache") as cache:
        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert active_cache() is cache
        assert seen == {"first waited": True, "second waited": True,
                        "second sees": cache, "second waited again": True}


# -- provenance ------------------------------------------------------------
def test_entry_records_provenance(tmp_path):
    task = small_task()
    with cache_to(tmp_path / "cache") as cache:
        run_replicated(task, 2, campaign_seed=1, processes=1)
        key = cache.sweep_key(task, 2, 1)
        entry = cache.get(key)
    assert entry is not None
    assert entry.provenance["backend"] == "msg-fast"
    assert "package_version" in entry.provenance
    assert entry.provenance["fallbacks"] == []
    assert entry.describe["technique"] == "fac2"
    assert entry.wall_time_s > 0


def test_entry_records_fallback_provenance(tmp_path):
    # BOLD is adaptive: msg-fast degrades to msg, and the entry says so
    task = small_task(technique="bold")
    with cache_to(tmp_path / "cache") as cache:
        run_replicated(task, 2, campaign_seed=1, processes=1)
        entry = cache.get(cache.sweep_key(task, 2, 1))
    assert entry.provenance["backend"] == "msg"
    assert any(
        event["requested"] == "msg-fast" and event["chosen"] == "msg"
        for event in entry.provenance["fallbacks"]
    )


def test_hits_replay_stored_fallback_events(tmp_path):
    # a fully cached campaign must still report that its results were
    # produced by a degraded backend, exactly like a fresh run would
    from repro.backends import drain_fallback_events

    drain_fallback_events()  # the log is process-wide: start it empty
    task = small_task(technique="bold")
    with cache_to(tmp_path / "cache"):
        run_replicated(task, 2, campaign_seed=1, processes=1)
        fresh_events = drain_fallback_events()
        run_replicated(task, 2, campaign_seed=1, processes=1)
        replayed = drain_fallback_events()
    assert fresh_events  # bold cannot precompute chunks on msg-fast
    assert replayed == fresh_events


def test_entry_fallbacks_belong_to_the_stored_task_alone(tmp_path):
    # the perturbed cell falls back from direct-batch; the clean cell
    # with the same technique(n, p) runs on direct-batch and must not be
    # stored with the perturbed cell's fallback
    clean = RunTask(
        technique="ss", params=SchedulingParams(n=1024, p=4),
        workload=ExponentialWorkload(1.0), simulator="direct-batch",
    )
    perturbed = dataclasses.replace(
        clean, scenario=get_scenario("failstop-quarter")
    )
    with cache_to(tmp_path / "cache") as cache:
        run_replicated(perturbed, 2, campaign_seed=1, processes=1)
        results = run_replicated(clean, 2, campaign_seed=1, processes=1)
        perturbed_entry = cache.get(cache.sweep_key(perturbed, 2, 1))
        clean_entry = cache.get(cache.sweep_key(clean, 2, 1))
    assert perturbed_entry.provenance["fallbacks"]
    assert {r.stats.backend for r in results} == {"direct-batch"}
    assert clean_entry.provenance["backend"] == "direct-batch"
    assert clean_entry.provenance["fallbacks"] == []


def test_platform_hash_in_entry_provenance(tmp_path):
    task = small_task(simulator="msg", platform=tiny_platform())
    with cache_to(tmp_path / "cache") as cache:
        task.execute()
        entry = cache.get(cache.task_key(task))
    assert "platform_xml_sha256" in entry.provenance


# -- observability ---------------------------------------------------------
def test_journal_and_stats_report_cache_traffic(tmp_path):
    task = small_task()
    journal = tmp_path / "journal.jsonl"
    with journal_to(journal):
        with cache_to(tmp_path / "cache"):
            run_replicated(task, 3, campaign_seed=9, processes=1)
            run_replicated(task, 3, campaign_seed=9, processes=1)
    records = load_journal(journal)
    ops = [r["op"] for r in records if r["kind"] == "cache"]
    assert ops == ["miss", "store", "hit"]
    hit = next(r for r in records if r.get("op") == "hit")
    assert hit["saved_wall_s"] > 0
    assert hit["technique"] == "fac2"
    # a cached sweep writes no fresh `task` record
    assert sum(1 for r in records if r["kind"] == "task") == 1
    summary = summarize_journal(records)
    assert "result cache: 1 hit(s), 1 miss(es), 1 store(s)" in summary
    assert "hit-rate 50.0%" in summary
    assert "of simulation saved" in summary


def test_metrics_counters_and_lookup_histogram(tmp_path):
    task = small_task()
    with metrics_to() as registry:
        with cache_to(tmp_path / "cache"):
            run_replicated(task, 3, campaign_seed=9, processes=1)
            run_replicated(task, 3, campaign_seed=9, processes=1)
    assert registry.counters["cache_hits_total"].value == 1
    assert registry.counters["cache_misses_total"].value == 1
    assert registry.counters["cache_stores_total"].value == 1
    assert registry.counters["cache_read_bytes_total"].value > 0
    assert registry.counters["cache_written_bytes_total"].value > 0
    assert registry.histograms["cache_lookup_seconds"].count == 2


# -- maintenance -----------------------------------------------------------
def test_clear_and_gc_roundtrip(tmp_path):
    root = tmp_path / "cache"
    with cache_to(root):
        for i in range(3):
            small_task(seed_entropy=(i,)).execute()
    cache = ResultCache(root)
    assert cache.entry_count() == 3
    removed, remaining = cache.gc()
    assert removed == 0 and remaining == cache.total_bytes()
    assert cache.clear() == 3
    assert cache.entry_count() == 0
    assert ResultCache(root).session_records() == []


def test_gc_removes_stale_schema_and_respects_byte_budget(tmp_path):
    root = tmp_path / "cache"
    with cache_to(root) as active:
        for i in range(4):
            small_task(seed_entropy=(i,)).execute()
        key = active.task_key(small_task(seed_entropy=(0,)))
    path = root / "objects" / key[:2] / f"{key}.pkl"
    payload = pickle.loads(path.read_bytes())
    payload["schema"] = SCHEMA_VERSION + 7
    path.write_bytes(pickle.dumps(payload))
    cache = ResultCache(root)
    removed, _ = cache.gc()
    assert removed == 1  # the stale entry, nothing else
    assert cache.entry_count() == 3
    removed, remaining = cache.gc(max_bytes=0)
    assert removed == 3
    assert remaining == 0
    assert cache.stats.evictions == 4


def test_session_stats_persist_and_aggregate(tmp_path):
    root = tmp_path / "cache"
    with cache_to(root):
        small_task(seed_entropy=(1,)).execute()
    with cache_to(root):
        small_task(seed_entropy=(1,)).execute()
    cache = ResultCache(root)
    summary = cache.describe_store()
    assert summary["entries"] == 1
    assert summary["sessions"] == 2
    assert summary["last_session"]["hits"] == 1
    assert summary["last_session"]["misses"] == 0
    assert summary["last_session"]["hit_rate_percent"] == 100.0
    assert summary["lifetime"]["hits"] == 1
    assert summary["lifetime"]["misses"] == 1
    assert summary["lifetime"]["stores"] == 1


# -- concurrent access -----------------------------------------------------
def _concurrent_worker(root, seeds, queue):
    """One process of the overlapping-campaign test (module-level so it
    pickles under any multiprocessing start method)."""
    from repro.cache import cache_to
    from repro.experiments.runner import run_replicated

    out = []
    with cache_to(root):
        for campaign_seed in seeds:
            results = run_replicated(
                small_task(), 3, campaign_seed=campaign_seed, processes=1
            )
            out.append((campaign_seed, [r.makespan for r in results]))
    queue.put(out)


def test_concurrent_campaigns_share_one_directory(tmp_path):
    root = str(tmp_path / "cache")
    # overlapping cells: both processes run seeds 1 and 2
    ctx = multiprocessing.get_context()
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_concurrent_worker, args=(root, seeds, queue)
        )
        for seeds in ((1, 2, 3), (2, 1, 4))
    ]
    for proc in procs:
        proc.start()
    outputs = [queue.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    by_seed: dict[int, list[float]] = {}
    for output in outputs:
        for campaign_seed, makespans in output:
            if campaign_seed in by_seed:
                assert by_seed[campaign_seed] == makespans
            else:
                by_seed[campaign_seed] = makespans
    # afterwards every cell is a clean hit, bit-identical to the runs
    with cache_to(root) as cache:
        for campaign_seed, makespans in by_seed.items():
            served = run_replicated(
                small_task(), 3, campaign_seed=campaign_seed, processes=1
            )
            assert [r.makespan for r in served] == makespans
        assert cache.stats.hits == 4
        assert cache.stats.misses == 0


# -- CLI -------------------------------------------------------------------
def test_cli_simulate_and_cache_stats_roundtrip(tmp_path, capsys):
    from repro.cli import main

    root = str(tmp_path / "cache")
    args = ["simulate", "--technique", "fac2", "--n", "512", "--p", "4",
            "--runs", "2", "--cache", root]
    assert main(args) == 0
    assert "2 miss(es)" in capsys.readouterr().out
    assert main(args) == 0
    assert "2 hit(s)" in capsys.readouterr().out

    assert main(["cache", "stats", root, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["entries"] == 2
    assert summary["last_session"]["hits"] == 2
    assert summary["last_session"]["misses"] == 0
    assert summary["last_session"]["hit_rate_percent"] == 100.0

    assert main(["cache", "gc", root]) == 0
    assert "removed 0" in capsys.readouterr().out
    assert main(["cache", "clear", root]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert main(["cache", "stats", root]) == 0
    assert "0 entr(ies)" in capsys.readouterr().out


def test_cli_no_cache_overrides_env(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE", str(root))
    args = ["simulate", "--technique", "gss", "--n", "256", "--p", "4",
            "--runs", "1", "--no-cache"]
    assert main(args) == 0
    assert "cache" not in capsys.readouterr().out
    assert not root.exists()


def test_cli_cache_without_dir_fails_cleanly(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert main(["cache", "stats"]) == 2
    assert "REPRO_CACHE" in capsys.readouterr().err


def test_cli_cache_verify_catches_poison(tmp_path, capsys):
    from repro.cli import main

    root = tmp_path / "cache"
    args = ["simulate", "--technique", "fac2", "--n", "512", "--p", "4",
            "--runs", "1", "--seed", "3", "--cache", str(root)]
    assert main(args) == 0
    capsys.readouterr()
    objects = list((root / "objects").glob("*/*.pkl"))
    assert len(objects) == 1
    payload = pickle.loads(objects[0].read_bytes())
    payload["results"][0].makespan += 5.0
    objects[0].write_bytes(pickle.dumps(payload))
    with pytest.raises(CacheVerificationError):
        main(args + ["--cache-verify", "1.0"])


# -- corruption signals ----------------------------------------------------
def _hex_key(label: str) -> str:
    import hashlib

    return hashlib.sha256(label.encode()).hexdigest()


def test_corrupt_entry_is_a_counted_signalled_miss(tmp_path):
    """An unreadable entry is a clean miss, but never a silent one."""
    root = tmp_path / "cache"
    journal = tmp_path / "journal.jsonl"
    cache = ResultCache(root)
    key = _hex_key("victim")
    cache.put(key, [1, 2, 3])
    cache._object_path(key).write_bytes(b"not a pickle")
    with journal_to(journal), metrics_to() as registry:
        assert cache.get(key) is None
    assert cache.stats.misses == 1
    assert cache.stats.corrupt == 1
    assert cache.stats.errors == 1
    assert registry.counters["cache_corrupt_entries_total"].value == 1
    records = [r for r in load_journal(journal)
               if r["kind"] == "cache" and r["op"] == "corrupt"]
    assert len(records) == 1
    assert records[0]["where"] == "get"
    assert records[0]["key"] == key[:16]
    # truncation mid-write cannot happen (atomic replace) but a torn
    # file on disk must behave the same way
    cache.put(key, [1, 2, 3])
    data = cache._object_path(key).read_bytes()
    cache._object_path(key).write_bytes(data[: len(data) // 2])
    assert cache.get(key) is None
    assert cache.stats.corrupt == 2


def test_corrupt_stats_survive_session_merge(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = _hex_key("victim")
    cache.put(key, [1])
    cache._object_path(key).write_bytes(b"garbage")
    assert cache.get(key) is None
    cache.flush_session()
    summary = ResultCache(tmp_path / "cache").describe_store()
    assert summary["lifetime"]["corrupt"] == 1


def test_gc_removes_corrupt_entry_with_signal(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    good, bad = _hex_key("good"), _hex_key("bad")
    cache.put(good, [1])
    cache.put(bad, [2])
    cache._object_path(bad).write_bytes(b"garbage")
    with metrics_to() as registry:
        removed, _ = cache.gc()
    assert removed == 1
    assert cache.stats.corrupt == 1
    assert registry.counters["cache_corrupt_entries_total"].value == 1
    assert cache.get(good) is not None
    assert not cache._object_path(bad).exists()


# -- gc vs concurrent writers ----------------------------------------------
def test_gc_spares_entry_rewritten_between_examine_and_unlink(
    tmp_path, monkeypatch
):
    """The age pass must not delete an entry another process just
    replaced: the unlink re-checks the examined file version first."""
    import os as _os
    import time as _time

    cache = ResultCache(tmp_path / "cache")
    key = _hex_key("hot")
    cache.put(key, ["old"])
    path = cache._object_path(key)
    aged = _time.time() - 3600
    _os.utime(path, (aged, aged))

    writer = ResultCache(tmp_path / "cache")
    real_unlink = ResultCache._unlink_examined

    def rewrite_then_unlink(p, examined):
        # a concurrent campaign swaps a fresh entry in at the worst
        # possible moment — right between gc's examination and unlink
        writer.put(key, ["fresh"])
        return real_unlink(p, examined)

    monkeypatch.setattr(
        ResultCache, "_unlink_examined", staticmethod(rewrite_then_unlink)
    )
    removed, _ = cache.gc(max_age_s=60.0)
    assert removed == 0
    entry = cache.get(key)
    assert entry is not None and entry.results == ["fresh"]


def test_gc_budget_pass_spares_refreshed_entries(tmp_path, monkeypatch):
    """max_bytes eviction re-checks too: an entry rewritten since the
    scan is no longer the oldest and must survive the sweep."""
    cache = ResultCache(tmp_path / "cache")
    key = _hex_key("hot")
    cache.put(key, ["old"])

    writer = ResultCache(tmp_path / "cache")
    real_unlink = ResultCache._unlink_examined

    def rewrite_then_unlink(p, examined):
        writer.put(key, ["fresher"])
        return real_unlink(p, examined)

    monkeypatch.setattr(
        ResultCache, "_unlink_examined", staticmethod(rewrite_then_unlink)
    )
    removed, _ = cache.gc(max_bytes=0)
    assert removed == 0
    entry = cache.get(key)
    assert entry is not None and entry.results == ["fresher"]


def test_gc_vanished_entries_are_not_counted_corrupt(tmp_path, monkeypatch):
    """Entries a concurrent gc already collected are skipped silently."""
    cache = ResultCache(tmp_path / "cache")
    key = _hex_key("gone")
    cache.put(key, [1])
    path = cache._object_path(key)
    original_read_bytes = Path.read_bytes

    def unlink_then_read(self):
        if self == path:
            self.unlink(missing_ok=True)
        return original_read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", unlink_then_read)
    removed, _ = cache.gc()
    assert removed == 0
    assert cache.stats.corrupt == 0


def _gc_stress_writer(root, rounds, queue):
    """Rewrites hot keys while a sibling process garbage-collects."""
    import time as _time

    from repro.cache import ResultCache

    cache = ResultCache(root)
    keys = [_hex_key(f"hot{i}") for i in range(4)]
    lost = []
    for round_no in range(rounds):
        for i, key in enumerate(keys):
            stamp = [round_no, i]
            cache.put(key, stamp)
            entry = cache.get(key)
            if entry is None or entry.results != stamp:
                lost.append((round_no, i))
        _time.sleep(0.15)
    queue.put(("writer", lost, cache.stats.corrupt))


def _gc_stress_collector(root, duration_s, queue):
    """Loops age-based gc against the writer's directory."""
    import time as _time

    from repro.cache import ResultCache

    cache = ResultCache(root)
    deadline = _time.monotonic() + duration_s
    sweeps = 0
    while _time.monotonic() < deadline:
        cache.gc(max_age_s=0.1)
        sweeps += 1
    queue.put(("collector", sweeps, cache.stats.corrupt))


def test_concurrent_gc_never_loses_fresh_entries(tmp_path):
    """Two processes — one rewriting entries, one gc-ing aggressively —
    must never lose a just-written entry or misread a half-written one
    (regression for the examine/unlink race in ``ResultCache.gc``)."""
    root = str(tmp_path / "cache")
    rounds = 8
    ctx = multiprocessing.get_context()
    queue = ctx.Queue()
    writer = ctx.Process(
        target=_gc_stress_writer, args=(root, rounds, queue)
    )
    collector = ctx.Process(
        target=_gc_stress_collector, args=(root, rounds * 0.15 + 1.0, queue)
    )
    writer.start()
    collector.start()
    outputs = dict()
    for _ in range(2):
        role, detail, corrupt = queue.get(timeout=120)
        outputs[role] = (detail, corrupt)
    writer.join(timeout=120)
    collector.join(timeout=120)
    assert writer.exitcode == 0
    assert collector.exitcode == 0
    lost, writer_corrupt = outputs["writer"]
    assert lost == []          # gc never deleted a just-written entry
    assert writer_corrupt == 0  # atomic writes: no torn reads either
    sweeps, collector_corrupt = outputs["collector"]
    assert sweeps > 0
    assert collector_corrupt == 0
