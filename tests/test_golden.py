"""Golden bytes: outputs of fixed CLI runs, pinned by SHA-256.

Each ``track`` case covers a different path: the guard taper, SoC
truncation with curtailment, and the oracle's SoC-tube certificate,
once on a guarded hour of the default fleet and once on 3,600 unguarded
steps of it, where the greedy request leaves the tube. The exact oracle
DP runs on a 120-step tight fleet and on 3,600 steps of the default
fleet, where most steps restrict one convex part; two more cases run it
in the green-load mode S2, whose band follows the PV, and in the
asymmetric mode S5 under the guard; both are certified. The
``bid-sweep`` cases pin a year of batched runs, one of them on a small
pack where 109 of the 384 runs reach the SoC window edge. One more
``track`` case reads its signal and its irradiance from CSV files, so the
CSV reader and the exact PV solve over hundreds of distinct irradiances
are pinned too, and one pin holds the bits of ``pv_power_series`` over
the whole irradiance range. A hash changes when any output byte does, so
a refactor that claims to keep behaviour must keep these.
"""

import hashlib

import numpy as np
import pytest

from hesflex import PvParams, Series, pv_power_series, synth_irradiance, synth_signal
from hesflex.cli import EXIT_OK, main
from hesflex.data_io import _fmt, write_signal_csv

CASES = {
    "readme-oracle": (
        "track --hours 1 --seed 7 --capacity 6.5 --oracle",
        "cfb7718f2f4a1e4ddb6a753e8e4982cc14a8d82e02dd6d5b36549126e3230551",
        "26e6a1572dfb92347af7fce6673519e0b96481c3019a67d301aa1a36fb6fd205",
    ),
    "guard-taper": (
        "track --hours 2 --seed 7 --bias 0.5 --guard --set battery.e_cap_mwh=0.5",
        "5e42cc2a577537c943cd793d4602ab55f8363dbe02e7dd8c40e2231ed42eebad",
        "a384ed717532f7be5bbc7d318a69eee33e55b6d3dbfee32111209c8c7f94989c",
    ),
    "s5-truncation": (
        "track --scenario S5 --hours 1 --seed 3 --bias 0.4 --no-guard"
        " --set battery.e_cap_mwh=0.05",
        "2e75e50eab45e7d2087c2d27b806b9ed081852a32e0131849729d4c5731922f5",
        "cc02874f41f117f95a9f0ca2046e606344c93fddcb784acbc538d6d7918e0e49",
    ),
    "exact-dp": (
        "track --oracle --no-guard --hours 30 --seed 3 --bias 0.3"
        " --set battery.e_cap_mwh=2 --set signal.dt_s=900",
        "584489969e39a60ded45a7291061356d131decb4400c16e5ec9c71a58065d123",
        "7972f1847a50e7389e539255725afe6578673f8f1d9ca78b1dca941086fa5c3b",
    ),
    "exact-dp-default": (
        "track --oracle --no-guard --hours 2 --seed 5 --bias 0.6",
        # oracle_gap_mw moved in its last digit when the convex steps gave up
        # the hull for the exact convolution: the powers committed on the new
        # V_k, and so the oracle's objective, moved by float rounding
        "4e047df253c44204f18948e7e0be9b75ef70c2fff0721ec818b16a56694a20b5",
        "e1f324288e99340e4d285350dfb5113e4b6230d95c0a2235a8a7b3757c82a6d4",
    ),
    "exact-dp-s2": (
        "track --scenario S2 --oracle --no-guard --hours 2 --seed 5 --bias 0.3"
        " --set battery.e_cap_mwh=1",
        "d4d1ecbd3d5efcc76b8a671002a444d62cfdd219f9c7a948b514c9a2ab97bcfe",
        "1ed75e6add67a9a3783c0bf844c3e241fd4e37f3e5321173d10046b21e794971",
    ),
    "tube-default": (
        "track --oracle --no-guard --hours 2 --seed 5 --bias 0.3",
        "0551ddcb9b496e2a8f59e72b04d918389c4dba23a75f257f4d3459909ce09e91",
        "58d71aa6084c36ecf9197e94ecd542617465eb89e788e3d4b0b21af134054cc9",
    ),
    "exact-dp-s5": (
        "track --scenario S5 --oracle --hours 1 --seed 3 --bias 0.6 --capacity 8"
        " --set battery.e_cap_mwh=0.5",
        # oracle_gap_mw moved in its last digit, as in exact-dp-default, and
        # again (...681878 -> ...681879) when the oracle took the SoC scan's
        # float operations for its drops and powers
        "4ff290f7c5521ae88ae92601938ff27e6c4adb988e3568358746ca4078e5214a",
        "547f3a077ad15d74867c487991774125baa6c2f5523997b2121d835bd80a96a6",
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
        "a420214205a85ea6feded809240d38f73ceb52bc804a85d1bc6bca8ba4e443ee",
    ),
    "sweep-small-pack": (
        "bid-sweep --days 365 --statistic all --seed 2 --set battery.e_cap_mwh=0.5",
        "e552b69663edee81a685a982bcefaa3dc440ad38d0393de5c9facd7c42084a50",
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_bytes_are_pinned(tmp_path, case):
    argv, sweep_sha = SWEEP_CASES[case]
    sweep = tmp_path / "sweep.csv"
    assert main(argv.split() + ["--out", str(sweep)]) == EXIT_OK
    assert _sha256(sweep) == sweep_sha


# 2021-01-01T08:00:00Z, 8 h into the day the irradiance file covers
_CSV_T0 = 1609459200 + 8 * 3600
_CSV_STEPS = 8 * 1800  # 8 h at 2 s, over 480 of the day's 60 s irradiance samples
CSV_CASE = (
    "track --guard",
    "d326ccc2876606a465f7fe49b781cf5d4388961feb52423c1eb7e1705fbbd765",
    "75622a3f383f0a16215870c6036d4eb3d9b9de1e6b982a023d0647a79966c434",
)


def test_csv_input_bytes_are_pinned(tmp_path):
    sig = synth_signal(9, _CSV_STEPS)
    signal_csv, ghi_csv = tmp_path / "signal.csv", tmp_path / "ghi.csv"
    with open(signal_csv, "w", newline="") as fh:
        write_signal_csv(Series(sig.timestamps + _CSV_T0, sig.values, sig.cadence), fh)
    ghi = synth_irradiance(4, 1)
    assert np.unique(ghi.values).size > 700
    ghi_csv.write_text("timestamp,ghi_wm2\n" + "".join(
        f"{t},{_fmt(v)}\n" for t, v in zip(ghi.timestamps.tolist(), ghi.values.tolist())))
    argv, report_sha, trace_sha = CSV_CASE
    report, trace = tmp_path / "report.txt", tmp_path / "trace.csv"
    assert main(argv.split() + ["--signal-csv", str(signal_csv), "--pv-csv", str(ghi_csv),
                                "--trace", str(trace), "--out", str(report)]) == EXIT_OK
    assert _sha256(report) == report_sha
    assert _sha256(trace) == trace_sha


def test_pv_power_series_bits_are_pinned():
    irradiance = np.concatenate([np.linspace(0.0, 2000.0, 4001), [5e-324, 1e-9, 1999.999]])
    power = pv_power_series(PvParams.scaled_to_rating(3.0), irradiance)
    assert hashlib.sha256(power.tobytes()).hexdigest() == (
        "48b61aa5bd01d46a92d4c8e5dcc637b03d4f528eaab989631dcec9eea87a5b82")
