"""The ``advise`` workload: a SimAS caller waiting for technique advice.

The advisor service (``make_server`` + ``Advisor()``, with its default
pool of one worker per CPU) runs in this process; one HTTP client sends
a seeded query sequence in a closed loop, because a SimAS caller waits
for the advice before it schedules its next loop.  Set-up primes a few
popular cells; the timed sequence mixes repeats of those (cache hits)
with cells never seen before (misses, which run the kernels in the pool)
and a few malformed queries, which must be refused with a 400 naming
the bad field.  It is the only workload that exercises the serve and
HTTP layers, mixes cache writes with reads, and uses the pool.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

#: distinct cells primed in set-up; hits repeat these
POPULAR_CELLS = 16
DISTS = ("constant", "exponential", "uniform", "gamma")
#: seeds the fixed design that pairs the strata of the query cells
DESIGN = "perfbench-advise-v1"
#: scenario presets of the scenario misses; failstop-quarter has
#: fail-stop faults, which send closed-form techniques to scalar direct
SCENARIOS = ("failstop-quarter", "wave-mild")
#: (payload change, field the 400 must name)
MALFORMED = (
    ({"n": 0}, "n"),
    ({"dist": "zipf"}, "dist"),
    ({"techniques": ["no-such-technique"]}, "techniques"),
    ({"scenario": "/etc/passwd"}, "scenario"),
    ({"runs": 0}, "runs"),
    ({"bogus": 1}, "bogus"),
)


@dataclass(frozen=True)
class Query:
    kind: str            # "hit", "miss" or "malformed"
    payload: dict
    bad_field: str = ""


def _cells(rng: random.Random, count: int, n=(1024, 16384), p=(4, 64),
           runs=(5, 8), **extra) -> list[dict]:
    """``count`` cells spread over the ranges by stratified sampling.

    Each range is cut into ``count`` strata and every stratum is used
    once.  Which strata of n, p and runs share a cell, and the
    distributions and ``h`` values dealt to the cells, follow a fixed
    design; the seed draws each value inside its stratum and each
    cell's simulation seed.  So every seed covers each range alike and
    the work of a run barely depends on the seed.  ``n`` and ``p`` are
    log-uniform, ``runs`` uniform.
    """
    design = random.Random(f"{DESIGN}:{count}:{sorted(extra.items())}")

    def strata(low, high, log):
        out = []
        for k in design.sample(range(count), count):
            u = (k + rng.random()) / count
            if log:
                out.append(round(low * (high / low) ** u))
            else:
                out.append(min(high, low + int(u * (high - low + 1))))
        return out

    def dealt(values):
        return design.sample(
            [values[i % len(values)] for i in range(count)], count)

    columns = zip(strata(*n, True), strata(*p, True), strata(*runs, False),
                  dealt(DISTS), dealt((0.0, 0.5)))
    return [
        {"n": n_, "p": p_, "runs": runs_, "dist": dist, "h": h,
         "seed": rng.randrange(1 << 30), **extra}
        for n_, p_, runs_, dist, h in columns
    ]


def miss_cells(rng: random.Random, count: int) -> list[dict]:
    """``count`` never-seen cells in fixed shares of four query classes.

    Every seed gets the same number of cells of each class: a tenth
    carry a scenario preset (half of them with fail-stop faults), a
    twentieth ask for ``msg-fast`` (whose adaptive techniques fall back
    to ``msg``), a tenth run 32-64 replications on n <= 4096 (reps x p
    up to 4096), and the rest run 5-8 replications on n up to 16,384
    (reps x p down to 20).
    """
    scenario = max(1, count // 10)
    msg_fast = max(1, count // 20)
    wide = max(1, count // 10)
    cells = []
    for i, preset in enumerate(SCENARIOS):
        share = scenario // len(SCENARIOS) + (i < scenario % len(SCENARIOS))
        cells += _cells(rng, share, n=(1024, 4096), p=(4, 16),
                        scenario=preset)
    cells += _cells(rng, msg_fast, n=(1024, 4096), p=(4, 16),
                    simulator="msg-fast")
    cells += _cells(rng, wide, n=(1024, 4096), runs=(32, 64))
    cells += _cells(rng, count - len(cells))
    return cells


def _key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def plan(seed: int, hits: int, misses: int, malformed: int):
    """The popular cells and the shuffled timed query sequence."""
    rng = random.Random(seed)
    popular = _cells(rng, POPULAR_CELLS, n=(1024, 2048), p=(4, 8),
                     runs=(5, 5))
    queries = [Query("hit", dict(rng.choice(popular))) for _ in range(hits)]
    queries += [Query("miss", cell) for cell in miss_cells(rng, misses)]
    for i in range(malformed):
        change, field = MALFORMED[i % len(MALFORMED)]
        queries.append(Query("malformed", {**rng.choice(popular), **change},
                             field))
    rng.shuffle(queries)
    seen = [_key(c) for c in popular] + [
        _key(q.payload) for q in queries if q.kind == "miss"]
    if len(set(seen)) != len(seen):
        raise ValueError(f"seed {seed} drew a repeated cell")
    return popular, queries


class Client:
    """A caller that opens one HTTP connection per query.

    A fresh connection per query is what a simple SimAS caller does.  It
    also keeps the measurement off a keep-alive artefact: the server
    writes a response's headers and body separately, so on a reused
    connection Nagle's algorithm holds the body until the client's
    delayed ACK fires, about 40 ms later.
    """

    def __init__(self, port: int):
        self.port = port

    def post(self, payload: dict) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            conn.request("POST", "/advise", body=json.dumps(payload),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()


class Setup:
    """Server, pool and a fresh cache under ``tmp``, popular cells primed.

    ``primed`` popular cells are queried, in order; the first query
    starts the pool.
    """

    def __init__(self, tmp: Path, seed: int, hits: int, misses: int,
                 malformed: int, primed: int = POPULAR_CELLS):
        from repro.cache import cache_to
        from repro.obs.metrics import clear_registry, set_registry
        from repro.serve import Advisor, make_server, serve_forever_in_thread

        self.popular, self.queries = plan(seed, hits, misses, malformed)
        self._stack = contextlib.ExitStack()
        # repro-dls serve always installs a registry (/metrics scrapes it)
        set_registry()
        self._stack.callback(clear_registry)
        self._stack.enter_context(cache_to(tmp / "cache"))
        self.server = make_server("127.0.0.1", 0, Advisor())
        serve_forever_in_thread(self.server)
        self._stack.callback(self._stop_server)
        self.client = Client(self.server.server_address[1])
        self.first_answers = []
        for cell in self.popular[:primed]:
            status, body = self.client.post(cell)
            if status != 200:
                raise RuntimeError(f"priming {cell} answered {status}: {body}")
            self.first_answers.append(body)

    def _stop_server(self) -> None:
        from repro.experiments.runner import shutdown_pool

        self.server.shutdown()
        self.server.server_close()
        shutdown_pool()

    def close(self) -> None:
        self._stack.close()


def answer_problem(query: Query, status: int, body: dict,
                   techniques: list[str], first: dict | None) -> str:
    """Why the answer to ``query`` is wrong, or "" when it is right."""
    if query.kind == "malformed":
        if status != 400 or body.get("field") != query.bad_field:
            return (f"expected a 400 naming {query.bad_field!r}, got "
                    f"{status} {body}")
        return ""
    if status != 200:
        return f"answered {status}: {body}"
    ranked = [row["technique"] for row in body["ranking"]]
    if sorted(ranked) != techniques:
        return f"ranks {ranked}, not each of {len(techniques)} techniques once"
    means = [row["makespan_mean"] for row in body["ranking"]]
    if means != sorted(means):
        return "ranking is not in ascending makespan_mean"
    expected_cache = {"hits": len(techniques), "misses": 0} \
        if query.kind == "hit" else {"hits": 0, "misses": len(techniques)}
    if body["cache"] != expected_cache:
        return f"a {query.kind} reported cache traffic {body['cache']}"
    if first is not None and (
        body["ranking"] != first["ranking"]
        or body["fallbacks"] != first["fallbacks"]
    ):
        return "a repeat query changed its answer"
    return ""


def recompute_problem(payload: dict, body: dict) -> str:
    """Compare a miss answer with an uncached ``run_replicated``.

    That equality is the advisor's documented contract: each ranked
    mean is exactly the mean of ``run_replicated`` on the same cell,
    whatever the number of workers.
    """
    from repro.cache import suspended
    from repro.experiments.runner import run_replicated
    from repro.metrics.summary import summarize
    from repro.serve import Advisor

    request = Advisor().parse(payload)
    by_technique = {row["technique"]: row for row in body["ranking"]}
    with suspended():
        for task in request.tasks():
            results = run_replicated(task, request.runs, request.seed)
            mean = summarize([r.makespan for r in results]).mean
            if mean != by_technique[task.technique]["makespan_mean"]:
                return (f"{task.technique} mean {mean!r} != advised "
                        f"{by_technique[task.technique]['makespan_mean']!r}")
    return ""


def run(setup: Setup, seed: int, recompute: int, tracer=None) -> dict:
    """Send the timed sequence, then check the answers.

    ``recompute`` misses, drawn with the seed, are re-simulated
    in-process after the timed loop and compared exactly.
    """
    from repro.core.registry import technique_names

    first = {_key(cell): body
             for cell, body in zip(setup.popular, setup.first_answers)}
    samples = {"hit": [], "miss": []}
    answers = []
    for index, query in enumerate(setup.queries):
        traced = tracer is not None and query.kind != "malformed"
        phase = "warm" if query.kind == "hit" else "cold"
        op = tracer.op(phase, f"q{index}", "serve.http") if traced \
            else contextlib.nullcontext()
        start = time.perf_counter()
        with op:
            status, body = setup.client.post(query.payload)
        elapsed = time.perf_counter() - start
        if query.kind != "malformed":
            samples[query.kind].append(elapsed)
        elif tracer is not None and status == 400:
            tracer.counts["serve.rejected"] += 1
        answers.append((query, status, body))

    techniques = technique_names()
    failed = []
    for index, (query, status, body) in enumerate(answers):
        problem = answer_problem(query, status, body, techniques,
                                 first.get(_key(query.payload)))
        if problem:
            failed.append(f"q{index} {query.kind}: {problem}")
    misses = [(q, b) for q, s, b in answers if q.kind == "miss" and s == 200]
    sampled = random.Random(seed).sample(misses, min(recompute, len(misses)))
    for query, body in sampled:
        problem = recompute_problem(query.payload, body)
        if problem:
            failed.append(f"recomputed miss {query.payload}: {problem}")
    return {
        "hit_s": samples["hit"],
        "miss_s": samples["miss"],
        "attempted": len(answers) + len(sampled),
        "failed": failed,
    }
