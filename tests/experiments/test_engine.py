"""The engine benchmark: tiers measured, deterministic, CLI-wired."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.engine import (
    PRE_REFACTOR_REFERENCE,
    EngineConfig,
    run_engine,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_engine.json"


@pytest.fixture(scope="module")
def smoke_result():
    """One shared smoke measurement (the CI tier: two repeats, so the
    determinism digest comparison is meaningful)."""
    return run_engine(EngineConfig.smoke())


class TestSmokeTier:
    def test_overall_ok(self, smoke_result):
        assert smoke_result.ok

    def test_tier_measured(self, smoke_result):
        tier = smoke_result.tier("smoke")
        assert tier is not None
        assert tier.wall_s > 0
        assert tier.events > 0
        assert tier.events_per_sec > 0
        assert tier.repeats == 2

    def test_same_seed_repeats_are_bit_identical(self, smoke_result):
        tier = smoke_result.tier("smoke")
        assert tier.deterministic
        assert len(tier.metrics_digest) == 64  # sha256 of the canonical export

    def test_workload_invariants_checked(self, smoke_result):
        assert smoke_result.tier("smoke").invariants_ok

    def test_payload_shape(self, smoke_result):
        payload = smoke_result.payload()
        assert payload["experiment"] == "engine"
        assert "smoke" in payload["tiers"]
        assert payload["reference"]["pre_refactor"] == PRE_REFACTOR_REFERENCE

    def test_write_baseline_roundtrips(self, smoke_result, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        smoke_result.write_baseline(str(path))
        snap = json.loads(path.read_text())
        assert snap["tiers"]["smoke"]["deterministic"] is True
        assert snap["tiers"]["smoke"]["events"] > 0

    def test_render_mentions_every_tier(self, smoke_result):
        rendered = smoke_result.render()
        assert "smoke" in rendered
        assert "events/s" in rendered


class TestConfig:
    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(tiers=("warp",))

    def test_nonpositive_repeats_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(repeats=0)


class TestRecordedBaseline:
    """The checked-in BENCH_engine.json is the artifact CI gates against."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(BASELINE_PATH.read_text())

    def test_all_tiers_recorded(self, recorded):
        assert set(recorded["tiers"]) == {"smoke", "chaos_sweep", "scaled"}
        for tier in recorded["tiers"].values():
            assert tier["deterministic"] is True
            assert tier["invariants_ok"] is True
            assert tier["events"] > 0
            assert tier["events_per_sec"] > 0

    def test_smoke_digest_matches_a_fresh_run(self, recorded, smoke_result):
        # The recorded digest is machine-checked, not only self-consistent:
        # an export key added without re-recording fails here.
        assert (
            smoke_result.tier("smoke").metrics_digest
            == recorded["tiers"]["smoke"]["metrics_digest"]
        )

    def test_speedups_recorded_against_pre_refactor(self, recorded):
        reference = recorded["reference"]
        assert reference["pre_refactor"]["chaos_sweep_wall_s"] > 0
        assert reference["speedups"]["chaos_sweep"] > 1.0
        assert reference["speedups"]["scaled"] > 1.0


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestCli:
    def test_bench_engine_smoke(self, tmp_path):
        out_path = tmp_path / "engine.json"
        result = run_cli(
            "bench", "engine", "--smoke", "--metrics-out", str(out_path)
        )
        assert result.returncode == 0, result.stderr
        assert "smoke" in result.stdout
        snap = json.loads(out_path.read_text())
        assert snap["tiers"]["smoke"]["deterministic"] is True

    def test_unknown_bench_target_rejected(self):
        result = run_cli("bench", "warp")
        assert result.returncode != 0
        assert "warp" in result.stderr

    def test_profile_flag_prints_hotspots(self, tmp_path):
        stats_path = tmp_path / "engine.pstats"
        result = run_cli(
            "engine",
            "--tier",
            "smoke",
            "--repeats",
            "1",
            "--profile",
            "--profile-out",
            str(stats_path),
        )
        assert result.returncode == 0, result.stderr
        assert "cumulative" in result.stdout  # cProfile table made it out
        assert stats_path.exists()
