"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Kept out of the library's test suite.  It checks that
  1. every workload prints, in both trace modes, exactly the metrics that
     BENCHMARK.json lists, each with its unit, and passes its checks;
  2. the traced self times add up to no more than the traced total;
  3. each workload's correctness gate fires on a corrupted result.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import worker  # noqa: E402  (puts the checkout's src on sys.path)


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(worker.PINNED_SEED),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(w["name"], trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want, (w["name"], section, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
            if trace:
                values = {name: m["value"] for name, m in out["metrics"].items()}
                self_sum = sum(v for name, v in values.items() if name.endswith(".self_s"))
                assert 0 < self_sum <= values["trace.run_s"], (w["name"], self_sum, values["trace.run_s"])
            print(f"ok: {w['name']} --trace {trace}: {len(got)} metrics")


def check_gates() -> None:
    seed = worker.PINNED_SEED

    def corrupted_sha(fp: dict, key: str) -> dict:
        return dict(fp, **{key: "0" * 64})

    inputs = worker.make_exact_ball(seed, True)
    _, tess = worker.run_ball(inputs)
    assert worker.check_exact_ball(inputs, tess, seed=seed, tiny=True)[0] == 0
    fp = worker.ball_fingerprint(tess)
    assert worker.gate_exact_ball(corrupted_sha(fp, "comb_sha"), True)
    assert worker.gate_exact_ball(dict(fp, cells=fp["cells"] - 1), True)

    inputs = worker.make_float_ball(seed, True)
    _, tess = worker.run_ball(inputs)
    assert worker.check_float_ball(inputs, tess, seed=seed, tiny=True)[0] == 0
    tess.cells.pop()  # a lost cell leaves adjacencies dangling and drops below the floor
    failed, problems, _ = worker.check_float_ball(inputs, tess, seed=seed, tiny=True)
    assert failed and len(problems) == 2, problems

    items = worker.make_sheared(seed, True)
    _, results = worker.run_sheared(items)
    failed, _, fp = worker.check_sheared(items, results, seed=seed, tiny=True)
    assert failed == 0
    assert not worker.gate_sheared(dict(fp, census_sha=worker.SHEAR_PIN_SHA), seed, False)
    assert worker.gate_sheared(corrupted_sha(fp, "census_sha"), seed, False)

    inputs = worker.make_readme(seed, True)
    _, results = worker.run_readme(inputs)
    assert worker.check_readme(inputs, results, seed=seed, tiny=True)[0] == 0
    code, text = results["shown"][0]
    results["shown"][0] = (code, text.replace("genus 3", "genus 4"))
    results["tu"][0] = (results["tu"][0][0] + 1e-6, results["tu"][0][1])
    assert worker.check_readme(inputs, results, seed=seed, tiny=True)[0] == 2
    print("ok: every correctness gate fires on a corrupted result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gates()
    check_metrics(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
