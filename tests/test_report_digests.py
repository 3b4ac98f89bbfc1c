"""Report files frozen byte for byte: the sha256 of every file each command
writes.  A change that moves any of these digests changes report bytes and
must be declared."""

import hashlib

import pytest

from rmflab.harness import main

GOLDEN = [
    (["simulate", "--x", "2000", "--y", "150", "--trials", "777", "--seed", "3",
      "--format", "json,csv,histogram"], {
        "r.csv": "258e4eb21346bea589d7410d7faa5111e5c2f56196eb2ffb6960f3ed11f6a862",
        "r.hist.json": "75d7a004fab567871ef9c7711d6e2ea6b9164f0d31641741af72e9bf09654755",
        "r.json": "62bb61224b0aa24f15fee386500341f70a083586f8f1a9226484bf42a28f9f03",
    }),
    # 181 of the 6,074 points of W's lattice are visited (S = 6,073)
    (["simulate", "--x", "10000000501", "--y", "10000", "--trials", "1000", "--seed", "2",
      "--format", "json,csv,histogram"], {
        "r.csv": "7aaeb9912f039dd64c6aeb1ad2d946c478496db4e1cf57b8d83d3c8e79fc6df1",
        "r.hist.json": "834227512e3f87517100f801de2e905a13d1f61123f8f9deff9a41299fc00259",
        "r.json": "2b5a49d06edb92054203e5d2121700b0428d39132c9b6b570a43f7200a798afe",
    }),
    # the README reference point
    (["stein", "--x", "100000", "--y", "100", "--seed", "0"], {
        "r.json": "58f5b3d4a3fa4f39ac88477e2438bbeee2599968cd5126ef14d26f5637842f36",
    }),
    (["stein", "--x", "700", "--y", "9", "--seed", "5"], {
        "r.json": "904f12fbee99592455967bc8a3a3e45b0e92415534e172fad461a86f625bdfa2",
    }),
    # the one reference command whose decomposition sums a nonzero T_p
    (["stein", "--x", "706", "--y", "9", "--seed", "5"], {
        "r.json": "7f065c9115098ef719bab1b74dad4dd84ae8f3dd23f64b75b6ce06408e2d89af",
    }),
    (["moments", "--x", "100020", "--y", "300"], {
        "r.json": "af6aa20019622daf929c738b41d7dff4ca7cfdbee16c61dcf59179bb1aec781a",
    }),
    (["bounds", "--x", "1000000", "--y", "1000"], {
        "r.json": "b9b3225dde6ea5a46b28d8ff00464102746e94a629686fbbc3b86a8d6a221795",
    }),
]


@pytest.mark.parametrize("argv, digests", GOLDEN, ids=[argv[0] + "-" + argv[2] for argv, _ in GOLDEN])
def test_report_bytes_match_golden_digests(argv, digests, tmp_path):
    assert main(argv + ["--out", str(tmp_path / "r")]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.iterdir())} == digests


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_distances_report_bytes_match_golden_digest(tmp_path):
    """distances over the CSV that the first GOLDEN command writes."""
    simulate = ["simulate", "--x", "2000", "--y", "150", "--trials", "777", "--seed", "3"]
    assert main(simulate + ["--format", "csv", "--out", str(tmp_path / "s")]) == 0
    assert sha256(tmp_path / "s.csv") == GOLDEN[0][1]["r.csv"]
    assert main(["distances", "--infile", str(tmp_path / "s.csv"), "--out", str(tmp_path / "d")]) == 0
    assert sha256(tmp_path / "d.json") == "7986a46b201e7345f11c40d0be828b39a4bb6f31130b709bd3e59e999a1bfd74"
