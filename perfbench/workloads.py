"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload class is constructed from a seed (that construction is the
workload's set-up) and then serves requests one at a time:
:meth:`request` is the timed work, :meth:`check` the untimed correctness
check of its output.  Why each workload exists, and which layers it
stresses, is written down in this directory's README.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.analysis import verify_schedule
from repro.baselines import BeamSearchAgent, MlirBaseline
from repro.datasets import GeneratedDataset, evaluation_suite, training_sampler
from repro.env import MlirRlEnv, small_config
from repro.machine import CachingExecutor, ExecutionCache, Executor
from repro.rl import ActorCritic, PPOConfig, PPOTrainer, collect_episode

HIDDEN_SIZE = 64
#: Seeds fixed in every run.  An untrained policy's episode lengths, and
#: so a request's cost, swing several-fold with its initialization; a
#: fixed one makes every run measure the same policy, and ``--seed``
#: draws the programs it meets.
POLICY_SEED = 0
#: ppo-train ignores ``--seed``: an iteration's cost follows the
#: transitions its 8 episodes happen to take (39 to 189 in one run), so
#: the median over a run's iterations moved between 470 and 930 ms from
#: one training stream to another.  Every run replays the same stream.
CORPUS_SEED = 0
TRAINER_SEED = 0
#: ppo-train starts the stream afresh after this many iterations, so a
#: run's requests repeat one fixed set of iterations however many of
#: them fit in the run
ITERATIONS_PER_STREAM = 8
CACHE_COUNTERS = ("hits", "misses", "evaluations", "schedule_hits")


def cache_counts(executor) -> Counter:
    """The execution-cache counters the benchmark reports."""
    snapshot = executor.stats.snapshot()
    return Counter({key: snapshot[key] for key in CACHE_COUNTERS})


@dataclass
class Outcome:
    """What the check of one request found."""

    work: float
    speedups: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def schedule_errors(
    label, func, scheduled, spec, *, baseline=None, seconds=None, speedup=None
) -> list[str]:
    """Violations of one produced schedule.

    The legality verifier (independent of the transform predicates)
    must accept every record, and each reported time must equal, bit for
    bit, a re-timing by a plain uncached executor — which catches stale
    cache entries.
    """
    errors = [f"{label}: {v}" for v in verify_schedule(func, scheduled)]
    plain = Executor(spec)
    base = plain.run_baseline(func).seconds
    optimized = plain.run_scheduled(scheduled).seconds
    for what, reported, expected in (
        ("baseline seconds", baseline, base),
        ("seconds", seconds, optimized),
        ("speedup", speedup, base / optimized),
    ):
        if reported is not None and reported != expected:
            errors.append(
                f"{label}: {what} {reported!r} != re-timed {expected!r}"
            )
    return errors


class Workload:
    """One seeded session of requests."""

    name = ""
    #: what ``throughput`` counts per second
    work_unit = ""
    #: requests the session has inputs for
    limit = sys.maxsize
    #: requests in a traced run (fixed, so its counts repeat exactly)
    trace_requests = 1
    #: how strongly request times follow the calibration kernel's time
    #: (``calibration.scale``): the slope of log wall-time p50 on log
    #: kernel time over ten 36 s runs on the 2-vCPU VM, rounded
    host_sensitivity: float

    def __init__(self) -> None:
        self.cache = Counter()
        self.candidates = 0
        self.scoring_seconds = 0.0

    def prepare(self, index: int) -> None:
        """Untimed work before request ``index``."""

    def request(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> Outcome:
        raise NotImplementedError

    def cache_totals(self) -> Counter:
        """Cache counters over every executor the session used."""
        return self.cache


class PPOTrain(Workload):
    """PPO iterations of the hierarchical agent on the Table-II mix."""

    name = "ppo-train"
    work_unit = "transitions"
    trace_requests = 4
    host_sensitivity = 0.3

    def __init__(self, seed: int, requests: int) -> None:
        super().__init__()
        self.start_stream()

    def start_stream(self) -> None:
        config = small_config()
        self.env = MlirRlEnv(
            config=config, executor=CachingExecutor(cache=ExecutionCache())
        )
        agent = ActorCritic(
            config, np.random.default_rng(POLICY_SEED), hidden_size=HIDDEN_SIZE
        )
        self.trainer = PPOTrainer(
            self.env,
            agent,
            training_sampler(scale=0.01, seed=CORPUS_SEED),
            PPOConfig(samples_per_iteration=8, minibatch_size=16),
            seed=TRAINER_SEED,
        )

    def prepare(self, index: int) -> None:
        if index and index % ITERATIONS_PER_STREAM == 0:
            # keep the finished stream's cache counters
            self.cache += cache_counts(self.env.executor)
            self.start_stream()

    def request(self, index: int):
        trajectories = self.trainer.collect()
        return trajectories, self.trainer.update(trajectories)

    def check(self, index: int, output) -> Outcome:
        trajectories, losses = output
        outcome = Outcome(
            work=sum(len(t) for t in trajectories),
            speedups=[t.speedup for t in trajectories],
        )
        label = f"iteration {index}"
        if not all(math.isfinite(loss) for loss in losses):
            outcome.errors.append(f"{label}: non-finite loss {losses}")
        if not all(
            np.isfinite(p.data).all() for p in self.trainer.optimizer.parameters
        ):
            outcome.errors.append(f"{label}: non-finite parameters")
        if not all(s > 0 and math.isfinite(s) for s in outcome.speedups):
            outcome.errors.append(f"{label}: bad speedups {outcome.speedups}")
        # The env still holds the iteration's last episode.
        scheduled = self.env.scheduled
        outcome.errors += schedule_errors(
            label,
            scheduled.func,
            scheduled,
            self.env.executor.spec,
            speedup=trajectories[-1].speedup,
        )
        return outcome

    def cache_totals(self) -> Counter:
        return self.cache + cache_counts(self.env.executor)


class PolicyInfer(Workload):
    """Greedy episodes of a seeded-init policy over generated programs."""

    name = "policy-infer"
    work_unit = "programs"
    trace_requests = 48
    host_sensitivity = 0.4

    def __init__(self, seed: int, requests: int) -> None:
        super().__init__()
        config = small_config()
        self.agent = ActorCritic(
            config, np.random.default_rng(POLICY_SEED), hidden_size=HIDDEN_SIZE
        )
        # One executor for the whole session: the baseline and reward
        # timings exercise the execution-cache levels.
        self.env = MlirRlEnv(
            config=config, executor=CachingExecutor(cache=ExecutionCache())
        )
        self.rng = np.random.default_rng(seed)
        self.programs = GeneratedDataset(seed=seed).take(requests)
        self.limit = requests

    def request(self, index: int):
        func = self.programs[index]
        return func, collect_episode(
            self.env, self.agent, func, self.rng, greedy=True
        )

    def check(self, index: int, output) -> Outcome:
        func, trajectory = output
        return Outcome(
            work=1,
            speedups=[trajectory.speedup],
            errors=schedule_errors(
                f"program {index} ({func.name})",
                func,
                self.env.scheduled,
                self.env.executor.spec,
                speedup=trajectory.speedup,
            ),
        )

    def cache_totals(self) -> Counter:
        return cache_counts(self.env.executor)


class BeamOps(Workload):
    """Real-evaluation beam search over the Fig. 5 operator suite.

    A request is one pass over the suite, in an order the seed draws.
    Every operator is built afresh and gets a fresh executor and cache,
    so no warm timings leak between them.
    """

    name = "beam-ops"
    work_unit = "operators"
    trace_requests = 2
    host_sensitivity = 0.8

    def __init__(self, seed: int, requests: int) -> None:
        super().__init__()
        cases = evaluation_suite()
        order = np.random.default_rng(seed).permutation(len(cases))
        self.cases = [cases[i] for i in order]

    def request(self, index: int):
        results = []
        for case in self.cases:
            func = case.build()
            executor = CachingExecutor(cache=ExecutionCache())
            agent = BeamSearchAgent(beam_width=4, executor=executor)
            result = agent.run(func)
            baseline = MlirBaseline(executor=executor).run(func).seconds
            results.append((case.name, func, agent, result, baseline))
        return results

    def check(self, index: int, output) -> Outcome:
        outcome = Outcome(work=len(output))
        for name, func, agent, result, baseline in output:
            self.cache += cache_counts(agent.executor)
            self.candidates += agent.candidates_scored
            self.scoring_seconds += agent.scoring_seconds
            outcome.speedups.append(baseline / result.seconds)
            outcome.errors += schedule_errors(
                name,
                func,
                result.schedule,
                agent.spec,
                baseline=baseline,
                seconds=result.seconds,
            )
        return outcome


WORKLOADS = {
    workload.name: workload for workload in (PPOTrain, PolicyInfer, BeamOps)
}
