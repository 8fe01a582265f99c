import re
from pathlib import Path

import lrcdist

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = {
    # entry points the demos, the README and the benchmark reach through lrcdist
    "ForbiddenFamily",
    "Multigraph",
    "code_to_json",
    "construct_optimal_lrc",
    "decide",
    "derive_params",
    "encode",
    "f2p",
    "graph_to_pruned",
    "max_size_girth",
    "max_size_multigraph",
    "max_size_simple",
    "min_distance",
    "multigraph_to_json",
    "p2f",
    "refine",
    "repair_symbol",
    "tanner_min_distance",
    "verify_locality",
    # the types those take or return
    "CodeParams",
    "Decision",
    "LinearCode",
    "PrimeField",
    "ExtremalResult",
    "FullTannerGraph",
    "PrunedGraph",
    # readers paired with exported writers
    "code_from_json",
    "multigraph_from_json",
}


def test_exports_are_pinned():
    assert len(EXPORTS) == 28
    assert sorted(lrcdist.__all__) == sorted(EXPORTS)
    for name in lrcdist.__all__:
        assert getattr(lrcdist, name) is not None


def _names_used_through_package(text: str) -> set[str]:
    names = set(re.findall(r"\blrcdist\.(\w+)", text))
    for block in re.findall(r"from lrcdist import \(([^)]*)\)|from lrcdist import ([^\n(]+)", text):
        names.update(n.strip() for n in "".join(block).split(",") if n.strip())
    return names


def test_every_name_callers_use_is_exported():
    files = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    used = set()
    for path in files:
        used |= _names_used_through_package(path.read_text())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _names_used_through_package(block)
    # submodules and module attributes are reached as lrcdist.<module>
    modules = {p.stem for p in (ROOT / "src" / "lrcdist").glob("*.py")}
    used -= modules | {"__file__"}
    assert "decide" in used and "tanner_min_distance" in used
    assert used <= set(lrcdist.__all__), sorted(used - set(lrcdist.__all__))
