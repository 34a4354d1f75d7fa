"""Pinned golden traces: same-seed outputs must stay byte-identical.

Each case pins the sha256, byte length and ``events_processed`` of one
full-stack simulated output: every span, metric and connection ledger of
the JSONL export.  A change that moves a single event, sequence number or
byte fails here.  If a PR changes the model on purpose, it re-pins these
values and says so; a mismatch otherwise is a finding, not a pin to drop.
"""

import hashlib
import io

import pytest

from repro.experiments import runner
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


#: ``runner`` argv → pins of its ``--trace`` JSONL (None for experiments
#: that trace nothing), its stdout without the ``[csv]``/``[trace] wrote
#: <path>`` lines, and its ``--csv`` file (None for experiments that write
#: no CSV).
CAPSTONE_PINS = {
    ("overload", "--max-n", "2"): (
        ("19d5e71e1f663f542943bbe56463ac51a8d6c3f118ceabc26ebf0a1e3d855d55", 51977),
        ("936caf46c894b17ca2d795989d9d792b35b2bdfbf433d68fa6ce531e531261ef", 721),
        ("63e307adbac663ee6ea0c699b624d144fa3c44b11694b97830c5824b5a390cae", 265),
    ),
    ("fleet", "--max-n", "3"): (
        ("3e29f625aded19a66c136d03662106a3149c6e1cff57d26923f877da11655e3d", 82319),
        ("a5dcc5f838e0d8645075b185b4ab89891be3fc8e4cb6dea6563766cf269bb829", 741),
        ("0431c37b48141cdb660eb06648bbe0dc3652680445edea119c4307107bd1bd62", 229),
    ),
    ("churn", "--max-n", "3"): (
        ("6a33bf038585311f1c82cfdb75c0fa55213ce897b3eaeffa45248b0b06291388", 72919),
        ("51ee6195c67775496f9d8cc56a54ff5bd8e4a4e0c08e97f237012e623a097135", 733),
        ("6e7a694c6637d4789b58b6548b00e09b4bdf1258bf6ae167bde72c540b0ba3d7", 347),
    ),
    ("streaming",): (
        ("d15a5767d70c66b066f3c2b3bddb4b650b1335759a8b8a423dc89a7397b58dfb", 110191),
        ("184467c6e99b57f138621e75de9823c8a04757ae264c70adbe8fe85ef8c7b195", 862),
        None,
    ),
    ("faults",): (
        ("ae1972374bc8deef19da2bfefd82b1ed43edd2fe0be51bf907fb3d0a29ba8a59", 100002),
        ("d5cec1a5fbef3a6faaed2dbe41bfa172941eb4ac44144d912a30aed776140b28", 805),
        None,
    ),
    ("diversity", "--max-n", "40"): (
        ("ecc8c2ddef3ad4f35114340954d0a9d4e247eb73a7958a2e053512275a6da3eb", 266650),
        ("a9f4512f289a99d114e0b69d3beb1666989fa82457ab294e88fc23aa653f5a94", 780),
        ("3ce38131d79a33d8b659af2a5fd73b2c79559931ccea01f28183ad157d9f8f00", 377),
    ),
    ("fig13", "--max-n", "3"): (
        ("9faacc9f1a57ef85746a6f490a70b2601934ecd19a45711dfcc344d3afd242eb", 166380),
        ("ddb040fce8b5813821abe1efdce4b469975957de1a8f9a2bd2720cb95a09b9d2", 1120),
        ("9e55eee0eefad5ff343f580d46ff1f434303843a3bd93ee051d7ddc70d72f590", 840),
    ),
    ("ablations",): (
        None,
        ("c9a1ed53002f6c19fc9e9bf4223ec2537aec0652407f8b68cf679bc1033d7d77", 1309),
        None,
    ),
    ("extensions",): (
        None,
        ("61e5ded66cb6bfa2121e39c0d29ec96c1410f1d39002c350b5bf99f19862a55a", 1925),
        None,
    ),
}


class TestCapstoneGoldenOutputs:
    """The runner's trace, table and CSV, pinned byte for byte: the
    capstones, and the fig13, ablations and extensions worlds."""

    @pytest.mark.parametrize(
        "argv", sorted(CAPSTONE_PINS), ids=lambda argv: argv[0]
    )
    def test_runner_outputs_match_pins(self, argv, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        csv_dir = tmp_path / "csv"
        assert runner.main([*argv, "--trace", str(trace), "--csv", str(csv_dir)]) == 0
        stdout = "".join(
            line
            for line in capsys.readouterr().out.splitlines(keepends=True)
            if not line.startswith(("[csv] wrote ", "[trace] wrote "))
        )
        jsonl_pin, stdout_pin, csv_pin = CAPSTONE_PINS[argv]
        if jsonl_pin is None:
            assert not trace.exists()
        else:
            assert _pin(trace.read_text()) == jsonl_pin
        assert _pin(stdout) == stdout_pin
        csv_files = sorted(csv_dir.iterdir())
        if csv_pin is None:
            assert csv_files == []
        else:
            assert [f.name for f in csv_files] == [f"{argv[0]}.csv"]
            assert _pin(csv_files[0].read_text()) == csv_pin
