"""Golden pins for Scenario B's perception and learning path.

A 64-device Scenario B run exercises every walker-visibility query, every
centroid predict and retrain, and every deduplication merge of one exact
cell. Each pin is a sha256 over the ``repr`` of:

- the task latencies and their start times;
- ``unique_people`` (the deduplication engine's cluster count);
- the recognizer's accuracy tally (correct, FN, FP, TN).

``self`` keeps one model per device and ``swarm`` one shared model, so
both retraining modes are pinned. A change that is meant to keep rows
byte-identical (for example, a faster visibility query or classifier)
must leave both digests unchanged.
"""

import hashlib

import pytest

from repro.apps import SCENARIO_B
from repro.platforms import platform_config
from repro.platforms.scenario_runner import ScenarioRunner

N_DEVICES = 64

#: retraining mode -> digest.
PINS = {
    "self":
        "00c411d210075521ef7100abcde353af4f61769736896c84b0a25918b8e4b9bf",
    "swarm":
        "48f4ed971e2f2f1b4a275b1ef3c22dda3ae3eadec6b74a47c6cdd1b1f35d9256",
}


def scenario_digest(result) -> str:
    """sha256 of the latencies, unique count and accuracy tally."""
    sha = hashlib.sha256()

    def put(value):
        sha.update(repr(value).encode())
        sha.update(b";")

    put(result.task_latencies.values.tolist())
    put(result.task_latencies.times.tolist())
    put(result.extras["unique_people"])
    tally = result.extras["tally"]
    put((tally.correct, tally.false_negatives, tally.false_positives,
         tally.true_negatives))
    return sha.hexdigest()


@pytest.mark.parametrize("retraining", ["self", "swarm"])
def test_scenario_b_rows_match_pin(retraining):
    result = ScenarioRunner(platform_config("hivemind"), SCENARIO_B,
                            seed=0, n_devices=N_DEVICES,
                            retraining=retraining).run()
    assert result.extras["unique_people"] > 0
    assert result.extras["tally"].decisions > 0
    assert scenario_digest(result) == PINS[retraining], (
        f"Scenario B rows moved with {retraining} retraining")
