"""Golden `jsam simulate` outputs for small pinned configs.

`golden_simulate.json` holds the CSV text of each case below as written
before the trainer was batched (stacked shards, one gradient contraction and
one noise draw per round, classes-first loss evaluation); the `classes10`
case was written later, by the example-major gradient that preceded the
classes-first one. The cases in TEXT_EXACT must reproduce their CSV text
exactly. In the others, whose last bits differ from the stored text by
design, loss and cost fields must agree at GOLDEN_RTOL, and identifiers,
rounds and accuracies must be equal. Regenerate (only for a
deliberate, documented change of numerics) with

    PYTHONPATH=src python tests/test_golden_simulate.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from jsam.cli import main, probe_inputs
from jsam.config import from_dict

GOLDEN = Path(__file__).with_name("golden_simulate.json")
GOLDEN_RTOL = 1e-12

_SMALL = {"clients": 12,
          "train": {"rounds": 60, "per_round": 4, "similarity": 50},
          "task": {"feature_dim": 6, "classes": 4, "samples_per_client": 20,
                   "test_size": 80},
          "server": {"eta": 30.0},
          "payment_grid": 60}
_GAUSSIAN = {"kind": "gaussian", "mean": 0.5, "std": 0.2, "lower": 0.05,
             "upper": 1.0}
_MECHANISMS = ["usbm", "fsbm-4", "bbm", "jsam"]
CASES = {
    "uniform": {**_SMALL, "mechanisms": _MECHANISMS, "seeds": [3]},
    "gaussian": {**_SMALL, "costs": _GAUSSIAN, "mechanisms": _MECHANISMS,
                 "seeds": [4]},
    "noiseless": {**_SMALL, "train": {**_SMALL["train"], "noiseless": True},
                  "mechanisms": ["usbm"], "seeds": [5]},
    # 10 classes: the gradient's class sums are the one place where the
    # classes-first round rounds differently from a last-axis sum (C >= 8)
    "classes10": {**_SMALL, "task": {**_SMALL["task"], "classes": 10,
                                     "samples_per_client": 40},
                  "mechanisms": ["usbm", "jsam"], "seeds": [6]},
}
TEXT_EXACT = ("uniform", "noiseless")
EXACT = ("run_id", "mechanism", "seed", "s", "eta", "round", "test_accuracy")
CLOSE = ("train_loss", "test_loss", "cumulative_monetary_cost")


def simulate_csv(config, workdir):
    cfg_path = Path(workdir) / "config.json"
    out_path = Path(workdir) / "runs.csv"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(out_path)]) == 0
    return out_path.read_text(encoding="utf-8")


def _table(csv_text):
    header, *rows = csv_text.splitlines()
    names = header.split(",")
    return names, [dict(zip(names, row.split(","))) for row in rows]


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_matches_the_golden_csv(case, tmp_path):
    want_text = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    got_text = simulate_csv(CASES[case], tmp_path)
    if case in TEXT_EXACT:
        assert got_text == want_text
    want_names, want = _table(want_text)
    got_names, got = _table(got_text)
    assert got_names == want_names
    assert sorted(EXACT + CLOSE) == sorted(want_names)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in EXACT:
            assert g[name] == w[name], (name, w["run_id"], w["round"])
        for name in CLOSE:
            assert float(g[name]) == pytest.approx(
                float(w[name]), rel=GOLDEN_RTOL, abs=0.0), (name, w["run_id"],
                                                           w["round"])


# sha256 of `jsam simulate` and `jsam sweep` on several mechanisms and seeds,
# recorded while every (mechanism, seed) run still built its own task,
# partition and initial weights
MULTI_SEED = {**_SMALL, "costs": _GAUSSIAN,
              "mechanisms": ["usbm", "fsbm-4", "bbm", "jsam", "jsam_ci"],
              "seeds": [1, 2], "eta_grid": [10.0, 30.0]}
MULTI_SEED_DIGESTS = {
    "simulate": "bde3c5d32cdb1b96b65bbea5478e26cfc33b75b0f0dffbd220ff7b02ec2ecf55",
    "sweep": "522c00e29547284771523fdb21360417dce573c66073e6a3b79d67ab1fe43f53",
}


@pytest.mark.parametrize("command", sorted(MULTI_SEED_DIGESTS))
def test_multi_seed_outputs_are_byte_identical(command, tmp_path):
    cfg_path, out_path = tmp_path / "config.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(MULTI_SEED), encoding="utf-8")
    assert main([command, "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert (hashlib.sha256(out_path.read_bytes()).hexdigest()
            == MULTI_SEED_DIGESTS[command])


# sha256 of the seed's task arrays (pool x and y, test x and y) and of the
# clients' pool indices stacked one row per client, recorded before the
# shards became one (N, m) array
PROBE_DIGESTS = {
    0: "74d081d7987e3e6f3666187216014c28f830f4f223d12678cf9a835d1b58c816",
    30: "8a62476a40aead7b4bc9251956e078d36a67b9ed6c9f2af7308d9cc7c51ad41d",
    100: "70cc2a605ba02a015e4f797f1ed47d11eb66c0b1862e0b47c27b3f3c4bfcbc08",
}


@pytest.mark.parametrize("similarity", sorted(PROBE_DIGESTS))
def test_task_and_partition_are_byte_identical(similarity):
    cfg = from_dict({"clients": 12, "train": {"similarity": similarity},
                     "task": {"samples_per_client": 30, "test_size": 50}})
    task, shards, _ = probe_inputs(cfg, 7)
    digest = hashlib.sha256()
    for array in (task.pool_x, task.pool_y, task.test_x, task.test_y,
                  np.asarray(shards)):
        digest.update(array.tobytes())
    assert digest.hexdigest() == PROBE_DIGESTS[similarity]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        docs = {name: simulate_csv(cfg, tmp) for name, cfg in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
