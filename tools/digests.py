"""Print SHA-256 prefixes of the package's deterministic outputs.

Run from anywhere::

    python tools/digests.py          # print the 18 lines (about 10 s)
    python tools/digests.py --check  # also compare them with digests.txt

``--check`` names every line that differs from the golden file
``tools/digests.txt`` and prints the numpy and BLAS versions, so a host
with other BLAS kernels is not read as a code change; it exits 1 on any
difference. A change that moves outputs on purpose rewrites that file, so
its diff shows which outputs moved.

Two trees that print the same lines give bitwise the same outputs for:

* ``dataset``: the seed-7, 12-pair dataset file of the default
  ``SynthConfig``;
* ``dataset records``: that file's records as read back: each record's
  field names, dtypes, shapes and bytes. A change to the header alone (its
  bytes or its meta) changes ``dataset`` but not this line;
* ``dataset meta``: that file's meta JSON as read back, with sorted keys;
* ``render octaves=3 include_full=False``: every field of ``render_pair``
  on scene indices 0-3 of seed 7 at those non-default settings, unquantized;
* ``render octaves=2 include_full=True``: the same at the default
  settings, so the full-resolution ``img1_full`` and ``xi_full`` are hashed
  before the dataset's uint8 / float32 cast, which can hide a last-bit
  change;
* ``predict <dtype> b<batch>``: every iteration's ``Prediction`` fields
  (plus ``refined_xi``) of ``predict`` with 3 iterations and refinement of
  ``TwoViewNet(NetConfig(dtype=dtype), seed=3)`` on the first 8 pairs, at
  batch 1 and batch 8;
* ``phase1.tvk``, ``phase2.tvk``, ``final.tvk``, ``loss_curves.csv``: the
  files of a seed-3 ``Trainer.train()`` on that dataset (batch 8, steps
  2/3/2, ``grad_loss_start=1``, ``log_every=1``);
* ``classical``: the motions ``estimate_motion_from_flow`` gives on seeds
  0-19 x 12 pairs of ground-truth flow plus N(0, 5e-4) noise (a pair that
  raises contributes its exception's type name);
* ``trimmed dataset``, ``trimmed predict float32 b1``, ``trimmed predict
  float64 b1``, ``trimmed train``: a trimmed set that is quick enough for
  every test run (``trimmed_lines``, about 1 s): the seed-7, 4-pair dataset
  file of the default ``SynthConfig``; batch-1 ``predict`` as above on its
  first 2 pairs, in each dtype; and the four files of a seed-3
  ``Trainer.train()`` of the default net on it (batch 2, steps 1/2/1,
  ``grad_loss_start=0``, ``log_every=1``), hashed in one line.

The classical line changes whenever the last bits of a motion do;
``classical_motions`` returns the motions themselves, for comparing two
trees numerically. Tier-1 recomputes the ``classical``, ``render`` and
trimmed lines (``tests/test_digests.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from tvk import baseline, container, synthdata, training  # noqa: E402
from tvk.geometry import FlowField  # noqa: E402
from tvk.network import NetConfig, TwoViewNet  # noqa: E402

DATA_SEED = 7
DATA_PAIRS = 12
RENDER_PAIRS = 4
PREDICT_PAIRS = 8
TRIMMED_PAIRS = 4
TRIMMED_PREDICT_PAIRS = 2
MODEL_SEED = 3
CLASSICAL_SEEDS = range(20)
CLASSICAL_PAIRS = 12
NOISE_SIGMA = 5e-4
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "digests.txt")
_FIELDS = ("flow", "flow_confidence", "xi", "normals", "r", "t", "s",
           "refined_xi")
_TRAIN_FILES = ("phase1.tvk", "phase2.tvk", "final.tvk", "loss_curves.csv")


def digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()[:16]


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return digest([f.read()])


def dataset_digests(path: str) -> tuple[str, str]:
    """(records digest, meta digest) of a TVK1 file."""
    records, meta = container.read_all(path)
    chunks = []
    for record in records:
        for name, arr in record.items():
            chunks += [f"{name} {arr.dtype} {arr.shape}".encode(), arr]
    return digest(chunks), digest([json.dumps(meta, sort_keys=True).encode()])


def render_digest(config: synthdata.SynthConfig) -> str:
    chunks = []
    for i in range(RENDER_PAIRS):
        pair = synthdata.render_pair(
            synthdata.generate_scene(DATA_SEED, config, index=i), config, i)
        for f in fields(pair):
            value = getattr(pair, f.name)
            if value is not None:
                chunks += [f.name.encode(), np.asarray(value)]
    return digest(chunks)


def predict_digest(samples, K, dtype: str, batch: int) -> str:
    """Sample by sample, iteration by iteration, so a batch-invariant
    ``predict`` gives the same digest at every batch size."""
    model = TwoViewNet(NetConfig(dtype=dtype), seed=MODEL_SEED)
    chunks = []
    for start in range(0, len(samples), batch):
        part = samples[start:start + batch]
        history = model.predict([s.img1 for s in part], [s.img2 for s in part],
                                K, n_iters=3,
                                img1_full=[s.img1_full for s in part],
                                keep_history=True)
        for n in range(len(part)):
            for preds in history:
                chunks += [np.asarray(getattr(preds[n], f)) for f in _FIELDS
                           if getattr(preds[n], f) is not None]
    return digest(chunks)


def train_run(samples, K, out: str, **config) -> list:
    """Paths of the files a seed-``MODEL_SEED`` ``Trainer.train()`` of the
    default net writes into ``out``."""
    config = training.TrainConfig(seed=MODEL_SEED, log_every=1, **config)
    training.Trainer(TwoViewNet(NetConfig(), seed=MODEL_SEED), samples, K,
                     config, out).train()
    return [os.path.join(out, name) for name in _TRAIN_FILES]


def classical_motions() -> list:
    """(seed, pair, r, t) per pair, or (seed, pair, error type name)."""
    config = synthdata.SynthConfig(include_full=False)
    K = config.intrinsics()
    out = []
    for seed in CLASSICAL_SEEDS:
        rng = np.random.Generator(np.random.Philox(key=seed))
        for i in range(CLASSICAL_PAIRS):
            pair = synthdata.render_pair(
                synthdata.generate_scene(seed, config, index=i), config, i)
            flow = pair.flow + rng.normal(0.0, NOISE_SIGMA, pair.flow.shape)
            try:
                m = baseline.estimate_motion_from_flow(
                    FlowField(flow), pair.valid_flow, K, seed=i)
            except Exception as e:  # noqa: BLE001 -- a raise is an output too
                out.append((seed, i, type(e).__name__))
            else:
                out.append((seed, i, m.r, m.t))
    return out


def classical_digest() -> str:
    return digest([m[2].encode() if len(m) == 3 else np.concatenate(m[2:])
                   for m in classical_motions()])


def digest_lines():
    """Yield (name, digest) for every line, in the printed order."""
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.tvk")
        synthdata.generate_dataset(data, DATA_SEED, DATA_PAIRS,
                                   synthdata.SynthConfig())
        yield "dataset", file_digest(data)
        for part, value in zip(("records", "meta"), dataset_digests(data)):
            yield f"dataset {part}", value
        yield from render_lines()
        samples, meta = synthdata.load_dataset(data)
        K = training.intrinsics_from_meta(meta)
        for dtype in ("float32", "float64"):
            for batch in (1, PREDICT_PAIRS):
                yield (f"predict {dtype} b{batch}", predict_digest(
                    samples[:PREDICT_PAIRS], K, dtype, batch))
        paths = train_run(samples, K, os.path.join(tmp, "run"), batch_size=8,
                          phase1_steps=2, phase2_steps=3, phase3_steps=2,
                          grad_loss_start=1)
        for path in paths:
            yield os.path.basename(path), file_digest(path)
    yield "classical", classical_digest()
    yield from trimmed_lines()


def render_lines():
    """Yield (name, digest) for the two render lines, in the printed order."""
    for config in (synthdata.SynthConfig(texture_octaves=3,
                                          include_full=False),
                   synthdata.SynthConfig()):
        yield (f"render octaves={config.texture_octaves} "
               f"include_full={config.include_full}", render_digest(config))


def trimmed_lines():
    """Yield (name, digest) for the trimmed lines, in the printed order."""
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.tvk")
        synthdata.generate_dataset(data, DATA_SEED, TRIMMED_PAIRS,
                                   synthdata.SynthConfig())
        yield "trimmed dataset", file_digest(data)
        samples, meta = synthdata.load_dataset(data)
        K = training.intrinsics_from_meta(meta)
        for dtype in ("float32", "float64"):
            yield f"trimmed predict {dtype} b1", predict_digest(
                samples[:TRIMMED_PREDICT_PAIRS], K, dtype, 1)
        paths = train_run(samples, K, os.path.join(tmp, "run"), batch_size=2,
                          phase1_steps=1, phase2_steps=2, phase3_steps=1,
                          grad_loss_start=0)
        yield "trimmed train", digest(
            [file_digest(path).encode() for path in paths])


def read_golden() -> dict:
    """{name: digest} of the golden file's lines."""
    with open(GOLDEN) as f:
        return dict(line.rsplit(" ", 1) for line in f.read().splitlines())


def differences(golden: dict, lines: dict) -> list:
    """One message per line that is missing, extra or differs."""
    return [f"{name}: expected {golden.get(name, '(none)')}, "
            f"got {lines.get(name, '(none)')}"
            for name in list(golden) + [k for k in lines if k not in golden]
            if golden.get(name) != lines.get(name)]


def versions() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


def main(argv: list) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python tools/digests.py [--check]", file=sys.stderr)
        return 2
    lines = {}
    for name, value in digest_lines():
        lines[name] = value
        print(name, value, flush=True)
    if not argv:
        return 0
    diff = differences(read_golden(), lines)
    print(f"{len(diff)} of {len(lines)} lines differ from tools/digests.txt; "
          f"{versions()}")
    for message in diff:
        print("differs:", message)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
