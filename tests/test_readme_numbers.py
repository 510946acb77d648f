"""README figures come from ``bench/BENCH_kernels.json``.

Every `` `bench:<entry>` `` the README cites names an entry of the file. A figure
written ``VALUE UNIT (`bench:<entry>`)`` is that entry's value at the printed precision,
in the entry's unit, and every time or memory figure in the prose must be written so.
Re-recording the file without updating the README therefore fails here.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
#: The README outside its code blocks, each run of whitespace one space.
PROSE = " ".join(re.sub(r"```.*?```", "", README, flags=re.S).split())
RESULTS = json.loads((ROOT / "bench" / "BENCH_kernels.json").read_text())["results"]

CITATION = re.compile(r"`bench:(\w+)`")
CITED_FIGURE = re.compile(r"(\d[\d,]*(?:\.\d+)?) (\S+) \(`bench:(\w+)`\)")
FIGURE = re.compile(r"\b\d[\d,]*(?:\.\d+)? ?(?:ms|s|KB|KiB|MB|MiB|GB|GiB)\b")


def test_every_citation_names_an_entry_of_the_bench_file():
    cited = CITATION.findall(README)
    assert cited
    assert sorted(set(cited) - RESULTS.keys()) == []


def test_cited_figures_equal_the_bench_file_at_their_precision():
    figures = CITED_FIGURE.findall(PROSE)
    assert figures
    for value, unit, entry in figures:
        recorded = RESULTS[entry]
        decimals = len(value.partition(".")[2])
        assert (value, unit) == (f"{recorded['value']:,.{decimals}f}", recorded["unit"]), entry


def test_every_time_or_memory_figure_is_cited():
    uncited = [found.group() for found in FIGURE.finditer(PROSE)
               if not PROSE.startswith(" (`bench:", found.end())]
    assert uncited == []
