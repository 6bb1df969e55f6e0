"""The traffic reader on the benchmark's generated snapshot: the selected
series are pinned to the bit, and the reader's memory is bounded.

The snapshot comes from ``perfbench/workloads.write_snapshot`` at a fixed
seed: two sensors and two directions over every hour of 2019 (35,040 rows),
with 37 malformed rows and 23 repeated keys mixed in.
"""

import hashlib
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dropglm.traffic import read_traffic_csv, select_series

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

with mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
    from workloads import write_snapshot

# sha256 of hours.tobytes() + counts.tobytes(), as read before the reader
# held its rows as columns.
PINS = {
    ("W1", "inbound", False): "771d6e254b6692e9109735a3aefb2ec374a4c7fa73f2b476d7d3887ba6e36e45",
    ("W1", "outbound", False): "5b2c8e85110f2df0a125bc17c719593d784ff7ae77ebed6a3f8bba5a41cb7fb0",
    ("W2", "inbound", False): "da4e431dec787e065978eeb703006939a8ac0331a5e829917b999a445a0a473f",
    ("W2", "outbound", False): "a7b225687f7a16813e50b59e0c29c1c21aa2b66ad02b47c52efa7243ba7e2ceb",
    ("W1", "inbound", True): "6a5f3e453c6c07dbdf47bd52fd4c149d0df06f1f667e300e5ba2303f4197f61c",
    ("W1", "outbound", True): "6c06db59835075a185037c003047eaf7a4238c821d6421c8ebe877688574bd96",
    ("W2", "inbound", True): "21e424773c4b869d2a38bf2c8b935e252c44bef7216adf7f97eedeb6f2b4c157",
    ("W2", "outbound", True): "9622e6302da72ca9e5efb52f7775ea816148906d3298ff99a0256e42d2b5091b",
}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("traffic") / "snapshot.csv"
    write_snapshot(path, np.random.default_rng([0, 2019]))
    return path


def test_selected_series_are_pinned(snapshot):
    data = read_traffic_csv(snapshot)
    assert (len(data.records), data.rejected) == (35_040, 60)
    assert data.keys() == [("W1", "inbound"), ("W1", "outbound"),
                           ("W2", "inbound"), ("W2", "outbound")]
    for (sensor, direction, summer), pin in PINS.items():
        hours, counts = select_series(data, sensor, direction, summer_2019=summer)
        assert (hours.dtype, counts.dtype) == (np.float64, np.float64)
        assert len(hours) == (92 * 24 if summer else 365 * 24)
        assert hashlib.sha256(hours.tobytes() + counts.tobytes()).hexdigest() == pin


def test_reader_footprint(snapshot):
    # One NamedTuple and one key tuple per row peaked at 11.9 MB here.
    tracemalloc.start()
    try:
        read_traffic_csv(snapshot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_a_count_wider_than_int64_is_read_as_its_float(tmp_path):
    # A count past float64's range (400 digits) is rejected, not a crash.
    wide = "1234567890123456789012345"
    path = tmp_path / "traffic.csv"
    path.write_text(f"sensor,direction,date,hour,count\nW1,inbound,2019-06-01,3,{wide}\n"
                    f"W1,inbound,2019-06-01,4,5\nW1,inbound,2019-06-01,5,{'9' * 400}\n")
    data = read_traffic_csv(path)
    assert (len(data.records), data.rejected) == (2, 1)
    hours, counts = select_series(data, "W1", "inbound")
    assert hours.tolist() == [3.0, 4.0]
    assert counts.tolist() == [float(int(wide)), 5.0]
