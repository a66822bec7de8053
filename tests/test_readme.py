"""The README's tours run as written, and its module table names only
what each module has."""

import contextlib
import importlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_prints_its_comments():
    text = README.read_text()
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    lines = block.splitlines()
    # each print is followed by a comment line holding its exact output
    expected = [lines[k + 1].removeprefix("# ")
                for k, line in enumerate(lines) if line.startswith("print(")]
    assert len(expected) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_command_line_tour_writes_every_file_it_reads():
    text = README.read_text()
    block = re.search(r"## Command line\n.*?```bash\n(.*?)```", text,
                      re.S).group(1)
    written = set()
    reads = 0
    for line in block.splitlines():
        if not line.startswith("toricgm "):
            written.update(re.findall(r"^cat > (\S+)", line))
            continue
        for path in re.findall(
                r"--(?:graph|generators|model|basis|dist|counts) (\S+)", line):
            assert path in written, f"{path} is read before it is written"
            reads += 1
        written.update(re.findall(r"--out (\S+)", line))
    assert reads == 11


def test_module_table_names_resolve():
    # every backticked identifier in a row of the module table is an
    # attribute of that row's module
    rows = re.findall(r"^\| `(toricgm\.\w+)` \| (.*) \|$", README.read_text(),
                      re.M)
    assert len(rows) == 12
    for module, text in rows:
        names = re.findall(r"`([A-Za-z_]\w*)`", text)
        missing = [n for n in names
                   if not hasattr(importlib.import_module(module), n)]
        assert not missing, f"{module}: {missing}"
