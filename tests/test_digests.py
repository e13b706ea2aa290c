"""``tools/digests.py`` against its golden file ``tools/digests.txt``.

The ``classical`` line (a few seconds), the two ``render`` lines (about
0.2 s), the two batch-8 ``predict`` lines (about 1.4 s) and the trimmed
lines (about 1 s) are recomputed here; the full set runs as
``python tools/digests.py --check``.
"""

import importlib.util
import os

from tvk import synthdata, training

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "digests", os.path.join(ROOT, "tools", "digests.py"))
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def test_classical_line_matches_the_golden_file():
    assert digests.classical_digest() == digests.read_golden()["classical"]


def test_render_lines_match_the_golden_file():
    lines = dict(digests.render_lines())
    assert len(lines) == 2
    golden = digests.read_golden()
    assert digests.differences({k: golden.get(k) for k in lines}, lines) == []


def test_trimmed_lines_match_the_golden_file():
    lines = dict(digests.trimmed_lines())
    assert len(lines) == 4
    golden = digests.read_golden()
    assert digests.differences({k: golden.get(k) for k in lines}, lines) == []


def test_batch_8_predict_lines_match_the_golden_file(tmp_path):
    # equal to the b1 lines, so this checks bitwise batch invariance
    data = str(tmp_path / "data.tvk")
    synthdata.generate_dataset(data, digests.DATA_SEED, digests.PREDICT_PAIRS,
                               synthdata.SynthConfig())
    samples, meta = synthdata.load_dataset(data)
    K = training.intrinsics_from_meta(meta)
    golden = digests.read_golden()
    for dtype in ("float32", "float64"):
        name = f"predict {dtype} b{digests.PREDICT_PAIRS}"
        assert golden[name] == golden[f"predict {dtype} b1"]
        assert digests.predict_digest(samples, K, dtype,
                                      digests.PREDICT_PAIRS) == golden[name]


def test_golden_file_holds_every_line_once():
    golden = digests.read_golden()
    assert len(golden) == 18
    assert "render octaves=3 include_full=False" in golden
    assert all(len(v) == 16 for v in golden.values())


def test_differences_name_every_changed_missing_and_extra_line():
    golden = {"a": "1", "b x": "2", "c": "3"}
    assert digests.differences(golden, dict(golden)) == []
    assert digests.differences(golden, {"a": "1", "b x": "9", "d": "4"}) == [
        "b x: expected 2, got 9",
        "c: expected 3, got (none)",
        "d: expected (none), got 4",
    ]
