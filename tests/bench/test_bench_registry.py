"""The bench registries match the files on disk, and
``collect_experiments.py`` rewrites only its marked EXPERIMENTS.md block.
"""

import importlib
import pathlib
import re
import subprocess

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCH_DIR = REPO / "benchmarks"
BEGIN, END = "<!-- RESULTS -->", "<!-- /RESULTS -->"


@pytest.fixture()
def bench_import(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module


def _tracked_results():
    """Result files under version control (every present file when the
    tree is not a git checkout)."""
    if (REPO / ".git").exists():
        out = subprocess.run(["git", "ls-files", "benchmarks/results"],
                             cwd=REPO, capture_output=True, text=True,
                             check=True).stdout
        return {pathlib.Path(line).name for line in out.split()}
    return {p.name for p in (BENCH_DIR / "results").iterdir()}


class TestRegistries:
    def test_run_all_lists_every_bench_module(self, bench_import):
        run_all = bench_import("run_all")
        on_disk = {p.stem for p in BENCH_DIR.glob("bench_*.py")}
        assert set(run_all.BENCHES) == on_disk
        assert len(run_all.BENCHES) == len(set(run_all.BENCHES))

    def test_every_section_has_a_tracked_table(self, bench_import):
        # a renamed table would otherwise drop its section silently
        collect = bench_import("collect_experiments")
        tracked = _tracked_results()
        missing = [stem for stem in collect.SECTIONS
                   if f"{stem}.txt" not in tracked]
        assert missing == []


class TestCollectExperiments:
    def test_text_outside_the_markers_survives(self, bench_import,
                                               tmp_path, monkeypatch):
        collect = bench_import("collect_experiments")
        head = "# EXPERIMENTS\n\nHand-written intro.\n\n" + BEGIN
        tail = (END + "\n\n### Fidelity — hand-written\n\nKept.\n\n"
                "### Recipe — hand-written\n\n```bash\nrun me\n```\n")
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text(head + "\n\nstale generated text\n\n" + tail)
        monkeypatch.setattr(collect, "EXPERIMENTS", doc)
        collect.main()
        first = doc.read_text()
        collect.main()
        assert doc.read_text() == first
        assert first.startswith(head) and first.endswith(tail)
        assert "stale generated text" not in first
        assert "### Table 2 — system configuration" in first

    def test_missing_end_marker_is_refused(self, bench_import, tmp_path,
                                           monkeypatch):
        collect = bench_import("collect_experiments")
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("intro\n" + BEGIN + "\nhand-written, no end\n")
        monkeypatch.setattr(collect, "EXPERIMENTS", doc)
        with pytest.raises(SystemExit):
            collect.main()
        assert doc.read_text() == "intro\n" + BEGIN + "\nhand-written, no end\n"

    def test_experiments_md_block_holds_only_generated_sections(
            self, bench_import):
        collect = bench_import("collect_experiments")
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert text.count(BEGIN) == 1 and text.count(END) == 1
        block = text.split(BEGIN)[1].split(END)[0]
        headings = re.findall(r"^### (.+)$", block, re.M)
        assert headings == [title for title, _ in collect.SECTIONS.values()]
