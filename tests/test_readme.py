"""The README's Library tour runs against this checkout's package, so a name it uses cannot be deleted unseen."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_and_its_results_hold():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert tour is not None
    namespace = {}
    exec(compile(tour.group(1), "README.md", "exec"), namespace)
    # a line commented "# True: ..." states the value of its expression
    claims = [line.split("#")[0] for line in tour.group(1).splitlines() if re.search(r"#\s*True\b", line)]
    assert claims
    for expr in claims:
        assert eval(expr, namespace) is True, expr
