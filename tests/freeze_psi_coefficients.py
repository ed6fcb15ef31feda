"""Write tests/golden/psi_coefficient_table.json: psi's Laguerre
coefficients b_n at seeded (s, K, n), from oracles.psi_coefficient_oracle
(60 + n digits, rounded once to double; about 4 s a point at n = 127).

    python tests/freeze_psi_coefficients.py

Points: 0.05 <= Re s <= 3, |Im s| <= 60, 2 <= K <= 128, and every third
n = K - 1; the first point is K = 128, n = 127.
"""

import json
import os

import numpy as np

import oracles

OUT = os.path.join(os.path.dirname(__file__), "golden",
                   "psi_coefficient_table.json")


def points(count=15, seed=20261019):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        s = complex(rng.uniform(0.05, 3.0), rng.uniform(-60.0, 60.0))
        K = 128 if k == 0 else int(rng.integers(2, 129))
        n = K - 1 if k % 3 == 0 else int(rng.integers(0, K))
        out.append((s, K, n))
    return out


def main():
    rows = []
    for s, K, n in points():
        b = oracles.psi_coefficient_oracle(s, n)
        rows.append({"s": [s.real, s.imag], "K": K, "n": n,
                     "b": [b.real, b.imag]})
    with open(OUT, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
