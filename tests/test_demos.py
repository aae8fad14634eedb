"""Every script in demos/ runs to completion on small arguments."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = REPO_ROOT / "demos"

# script -> arguments that keep the run to a few seconds
DEMO_ARGS = {
    "feature_shapes_tour.py": [],
    "find_overlap_candidates.py": [],
    "raise_hand_impact.py": ["--n", "3000"],
    "train_small_classifier.py": ["--epochs", "1"],
    "vote_consensus_tour.py": [],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_ARGS)


@pytest.mark.parametrize("script", sorted(DEMO_ARGS))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / script), *DEMO_ARGS[script]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, f"{script} exited {proc.returncode}:\n{proc.stderr}"
    assert proc.stdout.strip(), f"{script} printed nothing"
