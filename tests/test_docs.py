"""Documentation guards: the code blocks in the docs must actually run.

Docs rot silently; these tests execute the README quickstart and the
protocol-authoring guide's worked example verbatim, check metadata
consistency (version strings, experiment index coverage), and check that
every speedup the README and EXPERIMENTS.md quote is the committed
``BENCH_*.json`` field it claims to be (no timing runs here).
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _python_blocks(path: pathlib.Path):
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, re.S)


class TestReadme:
    def test_quickstart_block_runs(self):
        blocks = _python_blocks(ROOT / "README.md")
        assert blocks, "README lost its quickstart block"
        # The quickstart uses doctest-style bare expressions; exec line by
        # line, evaluating expression lines.
        namespace: dict = {}
        for line in blocks[0].splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                exec(line, namespace)
            except SyntaxError:
                eval(compile(line, "<readme>", "eval"), namespace)

    def test_mentions_all_example_scripts(self):
        readme = (ROOT / "README.md").read_text()
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in readme, f"README does not mention {script.name}"


class TestProtocolGuide:
    def test_worked_example_runs(self):
        blocks = _python_blocks(ROOT / "docs" / "writing_protocols.md")
        assert blocks
        exec(blocks[0], {})


class TestMetadata:
    def test_version_consistent(self):
        import repro

        pyproject = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_design_covers_every_benchmark(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in (ROOT / "benchmarks").glob("bench_e*.py"):
            assert bench.name in design, (
                f"DESIGN.md experiment index does not mention {bench.name}"
            )

    def test_paper_map_mentions_every_package(self):
        paper_map = (ROOT / "docs" / "paper_map.md").read_text()
        for pkg in (ROOT / "src" / "repro").iterdir():
            if pkg.is_dir() and not pkg.name.startswith("__"):
                assert f"repro.{pkg.name}" in paper_map, (
                    f"docs/paper_map.md does not mention repro.{pkg.name}"
                )


def _collect_experiments():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "collect_experiments", ROOT / "tools" / "collect_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuotedSpeedups:
    """The quoted numbers are rendered from the committed payloads by
    ``tools/collect_experiments.py``; these tests re-render and compare."""

    def test_readme_table_matches_payloads(self):
        collect = _collect_experiments()
        readme = (ROOT / "README.md").read_text()
        assert collect.speedup_table() in readme
        assert collect.readme_with_table(readme) == readme
        for quote in collect.README_QUOTES:
            assert quote in readme

    def test_experiments_md_matches_payloads(self):
        text, missing = _collect_experiments().render()
        assert not missing
        assert (ROOT / "EXPERIMENTS.md").read_text() == text

    def test_headline_figures(self):
        """The renderer reads the fields it claims: every number of the
        E6 and fault-plane rows equals its payload field to the shown
        precision."""
        import json

        protocol = json.loads((ROOT / "BENCH_protocol.json").read_text())
        fault = json.loads((ROOT / "BENCH_robustness.json").read_text())
        e6 = protocol["e6_tester"]
        plane = protocol["e6_trial_plane"]
        fault = fault["fault_plane"]

        def per_trial(entry, key):
            return 1000 * entry[key] / entry["trials"]

        expected = {
            "legacy engine": [per_trial(e6, "legacy_seconds"), 1.0],
            "slim engine, cold": [per_trial(e6, "cold_seconds"), e6["speedup_cold"]],
            "slim engine, warm": [per_trial(e6, "warm_seconds"), e6["speedup_warm"]],
            "**trial plane**": [
                per_trial(plane, "fast_seconds"),
                per_trial(plane, "warm_engine_seconds"),
                plane["speedup_vs_warm"],
            ],
            "**fault plane**": [
                fault["fast_ms_per_trial"],
                fault["engine_ms_per_trial"],
                fault["speedup"],
            ],
        }
        rows = _collect_experiments().speedup_table().splitlines()
        for label, values in expected.items():
            (row,) = [r for r in rows if r.startswith(f"| {label}")]
            cells = row.split("|")[2:]
            shown = [float(x) for x in re.findall(r"\d+(?:\.\d+)?", "".join(cells))]
            assert shown == pytest.approx(values, rel=5e-3), row
