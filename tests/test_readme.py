import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    # the README's python block, run as shown; pytest.ini's warning filters
    # turn any floating-point RuntimeWarning it raises into a failure
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("mean squared error: ")
    assert out.endswith("\nstop reason: converged\n")
