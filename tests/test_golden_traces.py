"""Pinned golden traces: same-seed outputs must stay byte-identical.

Each case pins the sha256, byte length and ``events_processed`` of one
full-stack simulated output: every span, metric and connection ledger of
the JSONL export.  A change that moves a single event, sequence number or
byte fails here.  If a PR changes the model on purpose, it re-pins these
values and says so; a mismatch otherwise is a finding, not a pin to drop.
"""

import hashlib
import io

from repro.experiments.scenario import build_scenario, run_pdagent_batch
from repro.simtest import generate, run_spec
from repro.telemetry import TraceCollector


def _pin(text: str) -> tuple[str, int]:
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


class TestFig12GoldenTrace:
    def test_fig12_jsonl_matches_pin(self):
        scenario = build_scenario(seed=3)
        run_pdagent_batch(scenario, 3)
        collector = TraceCollector()
        collector.add_run("golden", scenario.network)
        buf = io.StringIO()
        collector.write_jsonl(buf)
        assert _pin(buf.getvalue()) == (
            "e5291689571a2eeea71673e10184764e09a7120be4b906776e7ce95d60430570",
            10208,
        )
        assert scenario.sim.events_processed == 149


class TestSimtestGoldenSeed:
    def test_seed_7_report_matches_pin(self):
        report = run_spec(generate(7))
        assert _pin(report.jsonl) == (
            "36b2269a80ad55988faca8b764d3d0199d983a65c24655c621009b175b127c62",
            53194,
        )
        assert report.events_processed == 1102
