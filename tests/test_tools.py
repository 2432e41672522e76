"""Tests for repository tooling (docs generator, peak-RSS runner)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO_ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiDocsGenerator:
    def test_generates_all_sections(self, tmp_path, monkeypatch, capsys):
        generator = load_generator()
        # Redirect output into a scratch docs dir.
        monkeypatch.setattr(
            generator, "__file__", str(tmp_path / "tools" / "gen_api_docs.py")
        )
        (tmp_path / "tools").mkdir()
        (tmp_path / "docs").mkdir()
        generator.main()
        text = (tmp_path / "docs" / "API.md").read_text()
        for package in generator.PACKAGES:
            if package == "repro.cli":
                continue  # small module, still has __all__; keep the loop honest
            assert f"## `{package}`" in text
        assert "DARMiner" in text
        assert ".mine(" in text

    def test_first_paragraph_extraction(self):
        generator = load_generator()

        def documented():
            """First line.

            Second paragraph."""

        assert generator.first_paragraph(documented) == "First line."

    def test_signature_of_uncallable(self):
        generator = load_generator()
        assert generator.signature_of(42) == ""


class TestPeakRss:
    SCRIPT = REPO_ROOT / "tools" / "peak_rss.py"

    def run(self, *command):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *command],
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_reports_the_childs_peak(self):
        touch = "b = bytearray(64 * 2**20); b[::4096] = b'x' * len(b[::4096])"
        done = self.run(sys.executable, "-c", touch)
        assert done.returncode == 0
        line = done.stderr.strip().splitlines()[-1]
        assert line.startswith("# peak_rss_mb=")
        fields = dict(item.split("=") for item in line[2:].split())
        assert float(fields["peak_rss_mb"]) >= 64
        assert float(fields["wall_s"]) >= 0

    def test_passes_the_exit_status_through(self):
        assert self.run(sys.executable, "-c", "raise SystemExit(3)").returncode == 3

    def test_no_command_is_a_usage_error(self):
        done = self.run()
        assert done.returncode == 2
        assert "peak_rss.py" in done.stderr
