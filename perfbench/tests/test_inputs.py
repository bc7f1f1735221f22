"""Seed determinism of the benchmark inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import inputs as gen  # noqa: E402

# Digests of seed 0.  A change here changes what every workload measures, so
# results before and after it are not comparable.
PINNED = {
    "cli_workflow": "bc1af0c6396eb8d095ca9e777b35786da150dcbfdef8ad3e790cf09461577e45",
    "fit_batch": "aa401d416b98feffbe867f5542b5e66e9f2023cf79862682b83fdbd786c253dc",
    "mc_long": "ad5308c89ad16fc976679c09ae3b4cf167a44786e3e48a41168c3c4a15d01e77",
}


def _digests_in_fresh_process(seed: int, hash_seed: str) -> dict:
    code = (
        "import json, inputs as gen\n"
        f"print(json.dumps({{w: gen.digest(gen.generate(w, {seed})) for w in gen.WORKLOADS}}))"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=BENCH)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_digest(workload):
    assert gen.digest(gen.generate(workload, 7)) == gen.digest(gen.generate(workload, 7))


def test_same_seed_same_digest_across_processes():
    assert _digests_in_fresh_process(7, "1") == _digests_in_fresh_process(7, "2")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_pinned_digest(workload):
    assert gen.digest(gen.generate(workload, 0)) == PINNED[workload]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_other_inputs(workload):
    digests = {gen.digest(gen.generate(workload, seed)) for seed in (0, 1, 2, 2**40)}
    assert len(digests) == 4


def test_digest_sees_one_changed_value():
    data = gen.generate("fit_batch", 3)
    before = gen.digest(data)
    data["points"][5]["noise"]["paper"][100] += 1e-12
    assert gen.digest(data) != before


def _plain(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype == np.float64
    if isinstance(value, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return isinstance(value, (bool, int, float, str))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_are_plain_data(workload):
    assert _plain(gen.generate(workload, 5))


def test_generation_does_not_import_the_program():
    code = "import sys, inputs as gen\n[gen.generate(w, 1) for w in gen.WORKLOADS]\nprint('phaseff' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=BENCH)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [-1, 2**63, 1.5, True])
def test_rejects_bad_seed(seed):
    with pytest.raises(ValueError):
        gen.generate("mc_long", seed)


def test_mc_schedule_mix():
    ops = gen.generate("mc_long", 9)["ops"]
    for block in range(0, len(ops), gen.BANDPASS_EVERY):
        kinds = [op["kind"] for op in ops[block : block + gen.BANDPASS_EVERY]]
        assert kinds.count("bandpass") == 1
