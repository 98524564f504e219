import numpy as np
import pytest

_criterion_lines = []


@pytest.fixture
def criterion():
    """Record one acceptance verdict and enforce it."""
    def record(num: int, passed: bool, note: str):
        _criterion_lines.append(
            f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {note}")
        assert passed, f"criterion {num}: {note}"
    return record


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


def write_logistic_csv(path, rows=60, features=4, classes=3, seed=0):
    """Class-conditional Gaussian samples: features, then the label, in %.17g.

    Each class has a centre drawn from N(0, I); a row is its class centre
    plus N(0, I) noise.  Everything comes from ``default_rng(seed)``.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, rows)
    centres = rng.normal(0.0, 1.0, (classes, features))
    X = centres[labels] + rng.normal(0.0, 1.0, (rows, features))
    with open(path, "w", encoding="ascii") as fh:
        for row, label in zip(X, labels):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{label}\n")
    return path


@pytest.fixture(scope="session")
def logistic_csv(tmp_path_factory):
    """Path of a 60-row, 4-feature, 3-class generated CSV (d = 12)."""
    return write_logistic_csv(tmp_path_factory.mktemp("data") / "logistic.csv")
