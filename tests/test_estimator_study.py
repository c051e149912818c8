import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_estimator_study_smoke_run():
    # 3 draws of each seed at k = 30: the study runs on a checkout's src and
    # its R/|true| sit near 1, so the kernel texts and their exact Q agree
    cp = subprocess.run([sys.executable, str(TESTS / "estimator_study.py"),
                         str(TESTS.parent / "src"), "--draws", "3", "--orders", "30"],
                        capture_output=True, text=True, timeout=60)
    assert (cp.returncode, cp.stderr) == (0, "")
    record = json.loads(cp.stdout)["orders"]["30"]
    assert sum(record["statuses"].values()) == 6
    quantiles = list(record["r_over_true"].values())
    assert quantiles == sorted(quantiles)
    assert 0.5 < quantiles[0] and quantiles[-1] < 2.0
    assert record["below_0.5"] == len(record["unsafe"]) == 0
