"""The logistic generator is deterministic in its seed and round-trips exactly."""

import numpy as np

import inputs


def test_same_seed_same_bytes(tmp_path):
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    for path, seed in zip(paths, (4, 4, 5)):
        inputs.write_logistic_csv(path, *inputs.logistic_data(seed, 50, 8, 3))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_round_trip_and_shape(tmp_path):
    X, y = inputs.logistic_data(11, 60, 8, 3)
    assert X.shape == (60, 8) and set(np.unique(y)) <= {0, 1, 2}
    path = tmp_path / "d.csv"
    inputs.write_logistic_csv(path, X, y)
    X2, y2 = inputs.read_logistic_csv(path)
    assert np.array_equal(X, X2) and np.array_equal(y, y2)
