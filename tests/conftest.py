import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile(
    "desk",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("desk")


def subprocess_env():
    """Environment for CLI subprocesses: package importable without install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def make_instance(n, points, rows, xs=None):
    """Instance.build on the Points and Scalars tests write: rows maps each
    id to its values in the order of points; ids default to its sorted keys."""
    from affsel.hyperplane import Instance
    return Instance.build(n, xs or sorted(rows), [p.raw() for p in points],
                          {x: [v.value for v in row] for x, row in rows.items()})


@pytest.fixture
def exact_hull_calls(monkeypatch) -> list:
    """A list that grows by one for each run of the exact chain of the
    dimension-one hull, on Fractions: the fallback where the float chain's
    hull is not certified."""
    from affsel import hyperplane
    calls = []
    exact = hyperplane._exact_hull

    def counted(coords, num, den):
        calls.append(None)
        return exact(coords, num, den)

    monkeypatch.setattr(hyperplane, "_exact_hull", counted)
    return calls
