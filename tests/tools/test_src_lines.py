"""``tools/src_lines.py`` counts physical lines that carry a token
other than a comment or a docstring."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from src_lines import code_lines, count_tree, render  # noqa: E402

FIXTURE = Path(__file__).parent / "fixtures" / "src_lines_sample.py"


def test_fixture_counts_code_lines_only():
    assert code_lines(FIXTURE.read_text()) == 16


def test_comments_and_docstrings_do_not_move_the_count():
    source = FIXTURE.read_text()
    stripped = "\n".join(
        line for line in source.splitlines() if not line.lstrip().startswith("#")
    )
    assert code_lines(stripped) == code_lines(source)
    assert code_lines('"""only a docstring"""\n') == 0
    assert code_lines("x = 1\n\n\ny = (\n    2\n)\n") == 4


def test_tree_is_keyed_by_package_and_diffed(tmp_path):
    for name, body in {
        "src/repro/alpha/a.py": "x = 1\ny = 2\n",
        "src/repro/alpha/sub/b.py": "z = 3\n",
        "src/repro/top.py": '"""doc"""\nw = 4\n',
    }.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    now = count_tree(tmp_path, ["src"])
    assert now == {"repro.alpha": 3, "repro": 1}
    table = render(now, {"repro.alpha": 5, "repro": 1})
    assert table.splitlines()[-1].split() == ["total", "4", "6", "-2"]
    assert "repro.alpha" in table and "-2" in table
