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

import json
from pathlib import Path

import pytest

from jsam.cli import main

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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        docs = {name: simulate_csv(cfg, tmp) for name, cfg in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
