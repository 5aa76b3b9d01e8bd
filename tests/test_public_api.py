import math
import pathlib
import re

import spinreset

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_snippet_runs_and_exports_resolve(capsys):
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(math.isfinite(float(v)) for v in printed)
    # the snippet only uses exported names, and every export exists
    used = {name.strip() for names in re.findall(r"^from spinreset\.\w+ import (.+)$", code, re.M)
            for name in names.split(",")}
    assert used and used <= set(spinreset.__all__)
    missing = [name for name in spinreset.__all__ if not hasattr(spinreset, name)]
    assert missing == []
