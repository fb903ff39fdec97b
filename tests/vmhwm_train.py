"""Peak resident memory (VmHWM) of one canonical training run, step or predict path.

Each run is a fresh child interpreter that prints the VmHWM it reads from
/proc/self/status at the end. A fresh process keeps the figure free of the
heap layout that earlier work in the same process leaves behind. The train
and predict paths use the benchmark's dataset (hop and walk clips, 5
subjects x 2 clips per kind, 10 s each, seed 1); every path uses the
canonical 128x4-channel network.

--path train (the default) runs grf_model.train for 3 epochs of 64 windows
of 240 frames. --path step runs two loss_and_grads calls on one seeded
random batch of 64 windows of 240 frames and 9 features, and also prints
each workspace buffer's size after them. --path predict saves a freshly
initialised network's checkpoint, writes the manifest and loads it back,
loads the checkpoint and predicts every clip, as the predict_eval benchmark
does.
Linux only; pytest does not collect this file.

    PYTHONPATH=src python tests/vmhwm_train.py [--path train|step|predict] [--runs N]
"""

from __future__ import annotations

import argparse
import subprocess
import sys

SETUP = """
from pathlib import Path
from physgrd import grf_model, motion_data, synthetic

cfg = grf_model.TrainConfig(epochs=3, batch_size=64, window_len=240,
                            conv_channels=(128, 128, 128, 128), fc_widths=(64, 32))
"""

DATASET = """
ds = synthetic.make_dataset(["hop", "walk"], 5, 2, seed=1, base_params={"duration": 10.0})
"""

PATHS = {
    "train": DATASET + """
subjects = ds.subjects()
grf_model.train(ds, cfg, (subjects[:-1], subjects[-1]))
""",
    "step": """
import numpy as np

B, T, D = cfg.batch_size, cfg.window_len, 9
r = np.random.default_rng(0)
batch = (r.normal(size=(B, T, D)), r.normal(size=(B, T, 2, 3)), r.random((B, T)) > 0.3,
         r.normal(size=(B, T, 3)), 0.002, 0.005)
net = grf_model.TemporalConvNet(D, cfg.conv_channels, cfg.fc_widths, seed=0)
for _ in range(2):
    net.loss_and_grads(*batch)
for name, buf in net._ws.items():
    print(f"{name:5} {buf.nbytes / 1e6:5.1f} MB")
print(f"total {sum(buf.nbytes for buf in net._ws.values()) / 1e6:5.1f} MB")
""",
    "predict": DATASET + """
import tempfile

with tempfile.TemporaryDirectory() as work:
    net = grf_model.TemporalConvNet(ds.clips()[0].feature_width, cfg.conv_channels,
                                    cfg.fc_widths, seed=1)
    grf_model.save_checkpoint(net, cfg, Path(work) / "checkpoint.json")
    del net
    loaded = motion_data.load_manifest(motion_data.write_manifest(ds, Path(work) / "data"))
    net, _ = grf_model.load_checkpoint(Path(work) / "checkpoint.json")
    for entry in loaded:
        net.forward(entry.clip.features)
""",
}

REPORT = """
for line in Path("/proc/self/status").read_text().splitlines():
    if line.startswith("VmHWM:"):
        print(f"VmHWM {int(line.split()[1]) * 1024 / 1e6:.1f} MB")  # kB -> MB
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--path", choices=sorted(PATHS), default="train", help="what the child runs")
    ap.add_argument("--runs", type=int, default=1, help="child processes to run, one at a time")
    args = ap.parse_args()
    child = SETUP + PATHS[args.path] + REPORT
    for _ in range(args.runs):
        out = subprocess.run([sys.executable, "-c", child], check=True,
                             capture_output=True, text=True).stdout
        print(out, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
