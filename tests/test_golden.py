"""Golden bytes: outputs of fixed CLI runs, pinned by SHA-256.

Each ``track`` case covers a different path: the greedy oracle
certificate, the guard taper, SoC truncation with curtailment, and the
exact oracle DP, once on a 120-step tight fleet and once on 3,600 steps
of the default fleet, where most steps restrict one convex part. The
``bid-sweep`` cases pin a year of batched runs, one of them on a small
pack where 109 of the 384 runs reach the SoC window edge. A hash
changes when any output byte does, so a refactor that claims to keep
behaviour must keep these.
"""

import hashlib

import pytest

from hesflex.cli import EXIT_OK, main

CASES = {
    "readme-oracle": (
        "track --hours 1 --seed 7 --capacity 6.5 --oracle",
        "8feb62f42d1c39a4b2719776b40d6f6e375c36d04cb2eec473c2cdeaa3e24a7b",
        "26e6a1572dfb92347af7fce6673519e0b96481c3019a67d301aa1a36fb6fd205",
    ),
    "guard-taper": (
        "track --hours 2 --seed 7 --bias 0.5 --guard --set battery.e_cap_mwh=0.5",
        "4aedc4f034c44519d58899fbef9066f42138fee9d26e7243a68a029f205906a8",
        "a384ed717532f7be5bbc7d318a69eee33e55b6d3dbfee32111209c8c7f94989c",
    ),
    "s5-truncation": (
        "track --scenario S5 --hours 1 --seed 3 --bias 0.4 --no-guard"
        " --set battery.e_cap_mwh=0.05",
        "0d2840b746477a48c0f22e872a9a398a49ab222ca631fabb8a42c22e695c2640",
        "cc02874f41f117f95a9f0ca2046e606344c93fddcb784acbc538d6d7918e0e49",
    ),
    "exact-dp": (
        "track --oracle --no-guard --hours 30 --seed 3 --bias 0.3"
        " --set battery.e_cap_mwh=2 --set signal.dt_s=900",
        "054f29efd849c13d67c5d00988c9b2674830b85dcf6363e872ef515fed85ff45",
        "7972f1847a50e7389e539255725afe6578673f8f1d9ca78b1dca941086fa5c3b",
    ),
    "exact-dp-default": (
        "track --oracle --no-guard --hours 2 --seed 5 --bias 0.3",
        "76f80ec175f55f33c45f244cc938e49485e77827fd070f88163f6de57b4ab337",
        "58d71aa6084c36ecf9197e94ecd542617465eb89e788e3d4b0b21af134054cc9",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_are_pinned(tmp_path, case):
    argv, report_sha, trace_sha = CASES[case]
    report, trace = tmp_path / "report.txt", tmp_path / "trace.csv"
    assert main(argv.split() + ["--trace", str(trace), "--out", str(report)]) == EXIT_OK
    assert _sha256(report) == report_sha
    assert _sha256(trace) == trace_sha


SWEEP_CASES = {
    "sweep-default": (
        "bid-sweep --days 365 --statistic all --seed 1",
        "f28cebfac2951ed31873d06e0f3245d43020ac5a68dd24e0e0fb70a6cc5550cd",
    ),
    "sweep-small-pack": (
        "bid-sweep --days 365 --statistic all --seed 2 --set battery.e_cap_mwh=0.5",
        "c19f47e9336681b4168885d61a4dc495e612ab3f8543a84ba8d5b745bc3de585",
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_bytes_are_pinned(tmp_path, case):
    argv, sweep_sha = SWEEP_CASES[case]
    sweep = tmp_path / "sweep.csv"
    assert main(argv.split() + ["--out", str(sweep)]) == EXIT_OK
    assert _sha256(sweep) == sweep_sha
