"""Darwin's rules and history do not depend on Python's string hashing.

The prepared directions corpus (index CSR arrays, feature layout arrays,
labels, token lists) is dumped once; each session then runs in a fresh
interpreter, without Spark, under PYTHONHASHSEED 0, 1 and 2. Each
interpreter rebuilds the BoW ids and values and the sentence → row map
from the token lists, the parts of the features that string hashing
could reorder, and checks them against the dump before running on them.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

SESSIONS = """
import json, sys
import numpy as np
from repro.core.classifier import EmbeddingClassifier
from repro.core.darwin import run_darwin
from repro.core.oracle_sim import GroundTruthOracle
from repro.index.inverted import HeuristicIndex
from repro.text.embeddings import Features, combined_matrix

d = sys.argv[1]
keys = json.load(open(f"{d}/keys.json"))
z = np.load(f"{d}/prep.npz")
bow = combined_matrix(json.load(open(f"{d}/tokens.json")), {}, 0, int(z["hash_dim"]))
assert np.array_equal(bow.bow_ids, z["bow_ids"]), "BoW ids depend on string hashing"
assert np.array_equal(bow.bow_vals, z["bow_vals"])
assert np.array_equal(bow.row, z["row"]), "sentence rows depend on string hashing"
features = Features(bow.bow_ids, bow.bow_vals, z["dense"], bow.hash_dim, bow.row)
offsets, postings = z["offsets"], z["postings"]
index = HeuristicIndex(
    {k: postings[offsets[r]:offsets[r + 1]] for r, k in enumerate(keys)}, int(z["n"])
)
labels = z["labels"]
seed_ids = set(np.flatnonzero(labels)[:5].tolist())
runs = [
    ("hybrid", {"seed_rule": sys.argv[2]}),
    ("local", {"seed_rule": sys.argv[2]}),
    ("hybrid", {"seed_positive_ids": seed_ids}),
]
out = []
for strategy, seed in runs:
    res = run_darwin(index, EmbeddingClassifier(features), GroundTruthOracle(labels),
                     budget=40, strategy=strategy, true_labels=labels, **seed)
    out.append({"rules": res.rules, "history": res.history})
print(json.dumps(out))
"""


def test_rules_identical_across_hash_seeds(prep_directions, directions_tokens, tmp_path):
    index, f = prep_directions.index, prep_directions.features
    (tmp_path / "keys.json").write_text(json.dumps(index.keys()))
    (tmp_path / "tokens.json").write_text(json.dumps(directions_tokens))
    np.savez(tmp_path / "prep.npz", offsets=index.offsets, postings=index.postings,
             n=index.n_sentences, bow_ids=f.bow_ids, bow_vals=f.bow_vals, dense=f.dense,
             hash_dim=f.hash_dim, labels=prep_directions.labels, row=f.row)
    procs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        procs.append(subprocess.Popen(
            [sys.executable, "-c", SESSIONS, str(tmp_path), prep_directions.seed_rule_key()],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    outputs = []
    for p in procs:
        stdout, stderr = p.communicate(timeout=300)
        assert p.returncode == 0, stderr
        outputs.append(json.loads(stdout))
    assert all(len(o) == 3 for o in outputs)
    assert all(o[0]["rules"] for o in outputs)
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
