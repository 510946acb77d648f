"""README's "Library use" block runs as printed."""

import re
from pathlib import Path

import numpy as np

from motiongraph.assembly import EditDecisionList
from motiongraph.fixtures import make_fixture

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs_on_a_fixture(tmp_path, monkeypatch):
    make_fixture(tmp_path, reference_frames=400, target_frames=150)
    monkeypatch.chdir(tmp_path)
    scope = {"__name__": "readme"}
    exec(compile(library_block(), str(README), "exec"), scope)
    edl = scope["edl"]
    assert isinstance(edl, EditDecisionList)
    assert edl.total_frames == scope["segments"].n_frames - 1
    graph, near = scope["graph"], scope["near"]
    assert 0 < near.m.size == int((graph.n - graph.m <= 90).sum()) < graph.m.size
    mask = scope["mask_0"]
    assert mask.dtype == bool and mask.shape == (256, 256) and mask.any()
    pgm = (tmp_path / "mask_0.pgm").read_bytes()
    assert pgm == b"P5\n256 256\n255\n" + (mask.view(np.uint8) * 255).tobytes()
    names = [f"frame_{i:06d}.pgm" for i in range(edl.total_frames)]
    assert scope["frames"] == [Path("preview", name) for name in names]
    assert sorted(p.name for p in (tmp_path / "preview").iterdir()) == names
