"""
Euler polygons whose velocities form a verified chain
=====================================================

The solver picks one velocity per node so that the running (state,
velocity) chain stays verified.  Crossing a kink of max(x, 3x - 0.246)
shows the polygons settling down as the step shrinks.
"""

import numpy as np

from setflow import (
    euler_solve,
    pl_subdifferential_map,
    PLConvexFunction,
    ProblemSpec,
    refine_study,
    trajectory_cm_check,
    trajectory_residual,
)

f = PLConvexFunction([[1.0], [3.0]], [0.0, -0.246])
F = pl_subdifferential_map(f)

spec = ProblemSpec(map=F, x0=np.array([0.0]), v0=np.array([1.0]),
                   horizon=1.0, step=0.05, strategy="inertial",
                   tol=1e-9).validated()
traj = euler_solve(spec)

print("nodes:", traj.node_count())
print("final state:", traj.states[-1])
print("velocity switches from 1 to 3 after the kink at x = 0.123:")
for k in range(traj.node_count() - 1):
    if traj.velocities[k][0] != traj.velocities[k + 1][0]:
        print(f"  t={traj.times[k + 1]:.2f}  x={traj.states[k + 1][0]:.4f}")

# every node velocity is an exact member of the map at its state
node_res, hull_res = trajectory_residual(traj, F)
print("node residual:", node_res, " hull residual:", hull_res)
print("chain verified:", trajectory_cm_check(traj, tol=0.0))
print("f never decreases along the polygon:",
      all(f.value(b) >= f.value(a) for a, b in zip(traj.states, traj.states[1:])))

# halving the step repeatedly: consecutive polygons approach each other
print("\n steps   step size   sup distance to previous")
for row in refine_study(spec, [25, 50, 100, 200]):
    sup = "-" if row.sup_distance is None else f"{row.sup_distance:.6f}"
    print(f"{row.steps:6d}   {row.step_size:.6f}    {sup}")
