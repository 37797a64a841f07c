# rearrangement_tools.py
# The two rearrangement primitives behind the solver: the capped bathtub
# fill that solves the linearized maximization in closed form, and the
# Steiner symmetrization in z. Its fixed points are the fields with
# columns even and decreasing away from the midplane; the solver's
# iterates stay such fixed points, and it checks that the final one is.
#
# Run from the repository root:  python3 demos/rearrangement_tools.py

import numpy as np

from vortexring.grid import ScalarField, build_grid
from vortexring.rearrange import (MeasureSpace, bathtub_maximize,
                                  steiner_symmetrize_z)

# --- capped bathtub maximization ----------------------------------------
# Given weighted atoms with heights and a mass budget, fill the highest
# atoms completely, share the budget on the threshold level set, and
# leave everything below (or negative) empty.
weights = np.array([1.0, 1.0, 1.0, 1.0])
heights = np.array([4.0, 3.0, 1.0, -2.0])
sol = bathtub_maximize(MeasureSpace(weights, heights, capacity=2.5))
print("heights        ", heights)
print("fill fractions ", sol.omega)
print("level          ", sol.level)
print("value          ", sol.value)
print("mass used      ", np.dot(weights, sol.omega))

# A smaller budget raises the water line; negative heights never fill
# even when capacity is left over.
tight = bathtub_maximize(MeasureSpace(weights, heights, capacity=1.0))
print("\ncapacity 1.0 -> fractions", tight.omega, " level", tight.level)
slack = bathtub_maximize(
    MeasureSpace(np.ones(2), np.array([1.0, -1.0]), capacity=1.5))
print("slack capacity -> fractions", slack.omega,
      " (the negative atom stays empty)")

# --- Steiner symmetrization in z ----------------------------------------
# Each r-column of a nonnegative field is rearranged so values decrease
# away from z = 0 and the column is even up to one slot. Column multisets
# are preserved exactly, hence so is every integral sum phi(r, zeta).
spec = build_grid(0.5, 2.0, -1.0, 1.0, 6, 8)
rng = np.random.default_rng(3)
raw = np.where(rng.random((6, 8)) < 0.4, rng.random((6, 8)), 0.0)

sym = steiner_symmetrize_z(ScalarField(spec, raw)).values
half = spec.n_z // 2
print("\none column before ", np.array2string(raw[3], precision=3))
print("same column after ", np.array2string(sym[3], precision=3))
print("columns decreasing in |z|:",
      bool(np.all(np.diff(sym[:, half:], axis=1) <= 1e-15)
           and np.all(np.diff(sym[:, :half], axis=1) >= -1e-15)))
print("column multisets preserved:",
      bool(all(sorted(raw[a]) == sorted(sym[a]) for a in range(6))))

# A field whose column values come in equal pairs symmetrizes to an
# exactly even field.
paired = np.repeat(rng.random((6, half)), 2, axis=1)
out = steiner_symmetrize_z(ScalarField(spec, paired)).values
print("paired values give an exactly even field:",
      bool(np.array_equal(out, out[:, ::-1])))
