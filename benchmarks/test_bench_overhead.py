"""§VII-B — compilation-pass overhead.

Paper: 0.028 s average policy inference per code sample; applying the
selected transformation sequence costs 0.089 s per operator sample /
0.8 s per LQCD application.  We measure the same phases on this
implementation — a greedy episode split into the policy's share (the
paper's inference figure), the environment's and the whole episode —
and assert they stay in interactive range.
"""

from repro.evaluation import run_overhead, write_json


def test_overhead(benchmark, results_dir):
    result = benchmark.pedantic(
        run_overhead, kwargs={"samples": 4}, rounds=1, iterations=1
    )
    policy = result["policy_seconds_per_sample"]
    env = result["env_seconds_per_sample"]
    episode = result["episode_seconds_per_sample"]
    assert 0 < policy < 5.0
    assert 0 < env < 5.0
    assert policy + env <= episode < 5.0
    assert 0 <= result["transform_seconds_per_sample"] < 5.0
    print(
        f"\n§VII-B overhead: policy inference {policy * 1e3:.1f} ms/sample "
        f"(env {env * 1e3:.1f}, whole episode {episode * 1e3:.1f}), "
        f"transform application "
        f"{result['transform_seconds_per_sample'] * 1e3:.1f} ms/sample "
        f"(paper: 28 ms and 89-800 ms on their stack)"
    )
    write_json(result, results_dir / "overhead.json")
