"""Pinned sha256 digests of small CLI tables on paths the benchmark's own
pins do not reach: identical payloads, the interferer as target, noise,
capture zones with and without a preset, the n-interferer experiment, a
fixed carrier phase and several interferers sharing the interference
power. A change to the closed form, the draws, or the decisions shows
here as a changed digest."""

import hashlib

import pytest

from mskcollide.cli import main

_TAU = ["--tau-start", "-0.5", "--tau-stop", "0.5", "--tau-step", "0.25"]
_SIR = ["--sir-start", "-20", "--sir-stop", "0", "--sir-step", "10"]

GOLDEN = {
    "zone-fig11c": (["zone", "--preset", "fig11c", "--packets", "50", *_TAU,
                     "--phi-points", "8"],
                    "044f07abaddf0dcde0debb7b26f8c04b2c3116cbfadd9a2b5854fb7f7b19bdbb"),
    "zone-default": (["zone", "--packets", "50", *_TAU, "--phi-points", "8"],
                     "d9efad2803711be65ff1505006b60c5c2a81f7dfb80d9db112216d7bf7d9aaa1"),
    "ninterf": (["ninterf", "--packets", "200", "--max-n", "3"],
                "6ca7d17c80a55c2e6b63f125b4d4a3de7e85d1d745d92929f65a482890b5b62a"),
    "sweep-fig10b": (["sweep", "--preset", "fig10b", "--packets", "50", *_TAU,
                      "--sir-start", "-40", "--sir-stop", "0", "--sir-step", "10"],
                     "85cc6b73b3cdaf107a2e43b0fc79df2cde81e55656cdcb1d83f6baaa3877e4ec"),
    "sweep-fig6c-noise": (["sweep", "--preset", "fig6c", "--packets", "50",
                           "--noise-std", "0.3", *_TAU,
                           "--sir-start", "-20", "--sir-stop", "0", "--sir-step", "5"],
                          "cf0ef0909a07ce446cecd8df492e31bb72bc866d7c144e8f74a9bfc556d486b7"),
    "sweep-fixed-phase": (["sweep", "--preset", "fig5b", "--packets", "50", *_TAU, *_SIR,
                           "--phi-c", "1.1"],
                          "0511abd22563887cb1e30b76b4e4ac6039b22a7968e8fe2efff6b78f2a1bdb50"),
    "sweep-three-interferers": (["sweep", "--preset", "fig5b", "--packets", "50", *_TAU,
                                 *_SIR, "--n-interferers", "3"],
                                "c7e02a87fc2a9fb5c7e6bcf808ea3b3859162756e78da7b52cf7836f3e5f61fd"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_table(tmp_path, name):
    argv, digest = GOLDEN[name]
    out = tmp_path / "table.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
