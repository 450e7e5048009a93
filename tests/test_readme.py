"""The README's Python examples run as written: every `python` block, in
order and in one namespace, inside a directory holding the image files they
name."""

import re
from pathlib import Path

from bioshares import textured_image, write_pgm_file

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    names = sorted(set(re.findall(r"\"([\w.-]+\.pgm)\"", "".join(blocks))))
    assert "face.pgm" in names
    for k, name in enumerate(names):
        write_pgm_file(textured_image(k, 40 + 8 * k, 32), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
