"""Peak resident memory (VmHWM) of one canonical training run.

Runs grf_model.train with the train_canonical benchmark's configuration
(hop and walk clips, 5 subjects x 2 clips per kind, 10 s each, seed 1; 3
epochs of 64 windows of 240 frames through the 128x4-channel network) in a
fresh child interpreter, and prints the VmHWM that the child reads from
/proc/self/status after training. A fresh process keeps the figure free of
the heap layout that earlier work in the same process leaves behind.
Linux only; pytest does not collect this file.

    PYTHONPATH=src python tests/vmhwm_train.py [--runs N]
"""

from __future__ import annotations

import argparse
import subprocess
import sys

CHILD = """
from pathlib import Path
from physgrd import grf_model, synthetic

ds = synthetic.make_dataset(["hop", "walk"], 5, 2, seed=1, base_params={"duration": 10.0})
subjects = ds.subjects()
cfg = grf_model.TrainConfig(epochs=3, batch_size=64, window_len=240,
                            conv_channels=(128, 128, 128, 128), fc_widths=(64, 32))
grf_model.train(ds, cfg, (subjects[:-1], subjects[-1]))
for line in Path("/proc/self/status").read_text().splitlines():
    if line.startswith("VmHWM:"):
        print(int(line.split()[1]) * 1024 / 1e6)  # kB -> MB
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=1, help="child processes to run, one at a time")
    args = ap.parse_args()
    for _ in range(args.runs):
        out = subprocess.run([sys.executable, "-c", CHILD], check=True,
                             capture_output=True, text=True).stdout
        print(f"VmHWM {float(out):.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
