"""README.md as a checked document: every ``qchan`` line of its ``sh`` blocks
runs and writes the files it names, its file formats list the keys that
those commands write, and its claims table names each acceptance criterion
exactly once."""

import json
import os
import re
from pathlib import Path

from qchan.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
ACCEPTANCE = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")


def named_files(comment: str) -> list[str]:
    """The file names in a comment; ``a_k0.csv ... a_k8.csv`` is the range."""
    match = re.search(r"(\w+?)(\d+)(\.\w+) \.\.\. \1(\d+)\3", comment)
    if match:
        stem, lo, ext, hi = match.groups()
        return [f"{stem}{k}{ext}" for k in range(int(lo), int(hi) + 1)]
    return re.findall(r"\w[\w.-]*\.(?:csv|json)", comment)


def sh_commands() -> list[tuple[list[str], list[str]]]:
    """Each ``qchan`` line of README's sh blocks as (argv, files it writes):
    the files its own comment or a following ``# ->`` line names, or else
    its ``--out``."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            words = code.split()
            if words[:1] == ["qchan"]:
                out = words[words.index("--out") + 1]
                commands.append((words[1:], named_files(comment) or [out]))
            elif not words and comment.startswith(" ->") and commands:
                commands[-1] = (commands[-1][0], named_files(comment))
    return commands


def test_readme_commands_exit_0_and_write_the_files_they_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = sh_commands()
    assert len(commands) >= 6
    for argv, files in commands:
        before = set(os.listdir(tmp_path))
        assert main(argv) == 0, argv
        assert set(os.listdir(tmp_path)) - before == set(files), argv
    named = {name for _, files in commands for name in files}
    assert {"image_k8.csv", "traj.summary.json"} <= named


def test_file_formats_list_the_keys_that_the_readme_commands_write(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    formats = README.split("## File formats", 1)[1].split("\n## ", 1)[0]
    validation = re.search(r'"validation": \{([^}]*)\}', formats).group(1)
    report = re.search(r"\*\*Report JSON\*\* \(`analyze`\):(.*?)\.\n", formats, re.S).group(1)
    written = {}
    for argv, files in sh_commands():
        if argv[0] in ("family", "analyze"):
            assert main(argv) == 0, argv
            written[argv[0]] = json.loads(Path(files[0]).read_text(encoding="utf-8"))
    assert sorted(re.split(r",\s*", validation)) == sorted(written["family"]["validation"])
    assert sorted(re.findall(r"`(\w+)`", report)) == sorted(written["analyze"])
    assert len(written["analyze"]) == 10


def criterion_id(number: str, letter: str) -> str:
    return f"{int(number)}{letter}"


def test_claims_table_names_each_acceptance_criterion_once():
    section = README.split("## The paper's claims and their checks", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    assert rows[0].split("|")[2].strip() == "Criteria"
    listed = [i for row in rows[2:] for i in re.findall(r"\d+[a-z]?", row.split("|")[2])]
    tests = re.findall(r"^def test_criterion_(\d+)([a-z]?)_", ACCEPTANCE, re.M)
    assert sorted(listed) == sorted(criterion_id(*t) for t in tests)
    # The claims table is the first section, and it names the strict xfails.
    assert README.index("## The paper's claims") == README.index("\n## ") + 1
    marked = re.findall(
        r"^@pytest\.mark\.xfail\(\n    strict=True,.*?^\)\ndef test_criterion_(\d+)([a-z]?)_",
        ACCEPTANCE,
        re.M | re.S,
    )
    xfails = " and ".join(criterion_id(*t) for t in marked)
    assert xfails == "2b and 10b" and f"Criteria {xfails} are strict-`xfail`" in section
