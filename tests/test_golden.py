"""The figure script's artifacts against the recorded golden digests."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_figure_artifacts_match_golden_digests(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))["figures"]
    assert script.main(["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digests == golden
