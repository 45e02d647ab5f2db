"""Table I: parameters of the simulated wireless networks."""

import pytest

from repro.experiments.tables import table1_rows, table1_text


def test_table1():
    text = table1_text()
    print()
    print(text)
    rows = table1_rows()
    # The exact values the paper prints.
    assert rows[0] == (
        "4G",
        pytest.approx(13.76), pytest.approx(5.85),
        pytest.approx(7.32), pytest.approx(1.6),
    )
    assert rows[1] == (
        "Wi-Fi",
        pytest.approx(54.97), pytest.approx(12.88),
        pytest.approx(15.7), pytest.approx(2.7),
    )
