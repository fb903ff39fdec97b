"""Selecting PD gains by grid search.

The controller gains are chosen to minimize the vertical root position
error (vRPE) of the simulated trajectory against the source clips. The
default search walks kp at kd=0 first, then kd at kp=70, ten fixed cells
that mirror how one would explore by hand. Diverging cells score infinity and drop out
of the argmin instead of aborting the sweep.
"""

from physgrd import calibrate, make_dataset
from physgrd.calibration import DEFAULT_GAIN_CELLS, write_report_csv

# A small synthetic cohort: three subjects, hopping and walking.
dataset = make_dataset(
    ["hop", "walk"], n_subjects=3, clips_per_subject=1, seed=7,
    base_params={"duration": 4.0},
)

report = calibrate(dataset.clips(), DEFAULT_GAIN_CELLS)
print("cell        mean vRPE    std")
for cell in report.cells:
    mean, std = report.per_cell[cell]
    mark = "  <- best" if (cell[0], cell[1]) == (report.best.kp, report.best.kd) else ""
    print(f"({cell[0]:4g},{cell[1]:3g})  {mean:10.2f}  {std:6.2f}{mark}")

write_report_csv(report, "calibration_demo.csv")
print("\nfull table written to calibration_demo.csv")

# Sanity check the machinery: clips generated *by* the tracking simulation
# itself are reproduced exactly at their generating gains, so the search
# must recover them with a near-zero score.
spring = make_dataset(
    ["spring_tracked"], n_subjects=5, seed=3,
    base_params={"kp": 50.0, "kd": 6.0, "duration": 2.0},
)
recovered = calibrate(spring.clips(), list(DEFAULT_GAIN_CELLS) + [(50.0, 6.0)])
print(f"\nrecovery: best = (kp={recovered.best.kp:g}, kd={recovered.best.kd:g}), "
      f"score = {recovered.best_score:.3e}")
