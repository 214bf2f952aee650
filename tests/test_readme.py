"""README drift: the commands, the instance JSON and the library snippet it
shows must still parse and run against the package."""

import json
import re
import shlex
from pathlib import Path

from edgesim import cli
from edgesim.oracle import instance_from_json, solve_exact

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_commands_parse():
    commands = []
    for block in _blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("edgesim "):
                commands.append(shlex.split(line)[1:])
    assert {argv[0] for argv in commands} == {"run", "sweep", "oracle"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_instance_solves():
    [block] = _blocks("json")
    solution = solve_exact(instance_from_json(json.loads(block)))
    assert solution.cost > 0


def test_readme_library_snippet_runs(capsys):
    [block] = re.findall(r"^```python\n(.*?)^```", _section("Library use"), flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    normalized, cold_start = map(float, capsys.readouterr().out.split())
    assert 0 < normalized < 1 and 0 < cold_start < 1
