"""The package runs on numpy and the standard library alone.

``setup.py`` installs only numpy, and the README says only numpy is
required, so nothing the CLI, the datasets or the metrics load may need
another distribution.  The check runs in a fresh interpreter in which every
``scipy`` import fails, the way it fails on a numpy-only install.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

NUMPY_ONLY_SCRIPT = r"""
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())
at_start = set(sys.modules)

from repro.nerf.metrics import ssim
from repro.pipeline.cli import main
from repro.scenes.dataset import DatasetConfig, SyntheticNeRFDataset
from repro.scenes.library import build_scene

assert main(["list"]) == 0
config = DatasetConfig(image_size=8, num_train_views=1, num_test_views=1, gt_samples_per_ray=8)
dataset = SyntheticNeRFDataset(build_scene("lego"), config)
image = dataset.test_image(0)
assert ssim(image, image) == 1.0
assert ssim(image, dataset.train_image(0)) < 1.0

scipy_modules = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not scipy_modules, scipy_modules
loaded = {name.split(".")[0] for name in set(sys.modules) - at_start}
# __mp_main__ is multiprocessing's alias of __main__, not a package.
foreign = sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "repro", "__mp_main__"})
assert not foreign, f"imports outside numpy and the standard library: {foreign}"
print("numpy-only: ok")
"""


def test_cli_datasets_and_metrics_run_with_scipy_blocked():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    assert "fig07" in proc.stdout
    assert proc.stdout.rstrip().endswith("numpy-only: ok")
