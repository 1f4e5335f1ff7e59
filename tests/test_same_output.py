"""The corpora and the record comparison of ``tools/same_output.py``, on
hand-made records; no process is spawned."""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import same_output  # noqa: E402


def record(argv, code=0, stdout="a", stderr="e"):
    return {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr}


def test_equal_records_differ_nowhere_whatever_their_order():
    parent = [record(["expand", "-N", "3"]), record(["verify", "-N", "7"], code=1)]
    assert same_output.differences(parent, parent[::-1]) == []


def test_each_field_of_a_record_counts():
    argv = ["verify", "-N", "7"]
    parent = [record(argv)]
    for change in (record(argv, code=2), record(argv, stdout="b"), record(argv, stderr="f")):
        assert same_output.differences(parent, [change]) == [argv]


def test_a_command_one_side_lacks_differs_in_the_parents_order_first():
    one, two, three = ["a"], ["b"], ["c"]
    parent = [record(one), record(two)]
    change = [record(three), record(two, stdout="b")]
    assert same_output.differences(parent, change) == [one, two, three]


def test_the_second_child_meets_z_y_x_first_then_reruns_both_pools():
    first, second = same_output.corpora([1])
    prelude, *pools = second
    names = re.findall(r"[A-Za-z]\w*", " ".join(prelude[1:]))
    assert [name for name in dict.fromkeys(names) if name in ("x", "y", "z")] == ["z", "y", "x"]
    assert pools == first[:len(pools)]
    assert {argv[0] for argv in pools} == {"expand", "family"}
    assert all(argv[0] == "verify" for argv in first[len(pools):])
