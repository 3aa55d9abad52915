"""The output contract: bundle bytes of the shipped configs match stored
sha256 digests.

Each command runs in-process from the repository root, because
`report.json` and `central.json` echo the parsed config, the checkpoint
path exactly as given included. `simulate` and `eval-central` serve from
the stored benchmark checkpoint. The served bytes hold ranks, rounds and
integer budgets, which a last-bit change to the model rarely moves, so a
3-epoch `train` on the benchmark scene pins the shipped 8-camera model's
training numerics; no command here trains longer than that or than
`configs/cycle.json` asks. The stored checkpoint's eval logits and
distribution over a grid of every camera and delta are digested too, so
that a last-bit change to eval numerics shows even where no served byte
moves.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from edgereid.cli import main
from edgereid.simulate import TransitionTable
from edgereid.transition import load_checkpoint

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
STORED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bundle_digests.json")


def _build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


# configs/benchmark.json variants, written to a temporary file: (section,
# key, value) of the one setting each changes
VARIANTS = {
    "serving": ("simulate", "checkpoint", "bench/checkpoint.json"),
    "3-epochs": ("train", "epochs", 3),
}
# the stored digests' key of a case other than its command's
KEYS = {("train", "3-epochs"): "train-3-epochs"}


def _variant_config(tmp_path, name) -> str:
    with open(os.path.join(ROOT, "configs", "benchmark.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    section, key, value = VARIANTS[name]
    doc.setdefault(section, {})[key] = value
    path = tmp_path / f"benchmark_{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command, config", [
    ("simulate", "serving"),
    ("eval-central", "serving"),
    ("train", "configs/cycle.json"),
    ("train", "3-epochs"),
    ("gen", "configs/benchmark.json"),
])
def test_bundle_bytes_match_the_stored_digests(tmp_path, monkeypatch, capsys,
                                               command, config):
    with open(STORED, encoding="utf-8") as fh:
        stored = json.load(fh)
    expected = stored["digests"][KEYS.get((command, config), command)]
    monkeypatch.chdir(ROOT)
    if config in VARIANTS:
        config = _variant_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out)) == sorted(expected)
    for name, digest in sorted(expected.items()):
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest, (
            f"{command} {name}: sha256 {actual}, stored {digest}. "
            f"Stored build: {stored['build']}; this build: {_build()}. "
            "A declared numerics change updates tests/bundle_digests.json, "
            "with a CHANGES.md line giving the old and new digests and the "
            "quality numbers that moved.")


# every integer tick delta between two sightings of the benchmark scene,
# whose timestamps span [0, 1100]
SCENE_SPAN = 1100


def test_checkpoint_eval_bytes_match_the_stored_digests():
    with open(STORED, encoding="utf-8") as fh:
        stored = json.load(fh)
    expected = stored["digests"]["checkpoint-eval"]
    model = load_checkpoint(os.path.join(ROOT, "bench", "checkpoint.json"))
    deltas = np.arange(-SCENE_SPAN, SCENE_SPAN + 1)
    cams = np.repeat(np.arange(model.config.num_cameras), deltas.size)
    targets = np.tile(deltas, model.config.num_cameras).astype(np.float64)
    logits = model.eval_logits(cams, 0.0, targets)
    probs = model.distribution(cams, 0.0, targets)
    for name, values in (("eval_logits", logits), ("distribution", probs)):
        actual = hashlib.sha256(values.tobytes()).hexdigest()
        assert actual == expected[name], (
            f"{name}: sha256 {actual}, stored {expected[name]}. "
            f"Stored build: {stored['build']}; this build: {_build()}.")
    assert model.forward(cams, 0.0, targets, train=False).tobytes() == logits.tobytes()
    table = TransitionTable(model, -SCENE_SPAN, SCENE_SPAN)
    assert table.forward(cams, 0.0, targets).tobytes() == logits.tobytes()
    assert table.distribution(cams, 0.0, targets).tobytes() == probs.tobytes()
