"""Write ``c_table.json``: the coarse C estimate over a grid of (M, x).

    PYTHONPATH=src python tests/make_c_table.py

x = lam/|mu| is the evaluation point, taken at mu = -1 with the default
coarse search box of ``coarse_config(x)``.  Each entry records C, its
argmax and the regime that gave it: "plane" for the searched plane
p_perp = 0, tau = 0, "large-momentum" for the probe at the |Q| edge of
the box.  ``tests/test_cconstant.py::TestPinnedTable`` holds the package
to every entry within the tolerances the file declares.  A change that
moves an entry regenerates the file and lists the old and new values.
"""

import json
import warnings
from pathlib import Path

from polaron2d import ModelParams, coarse_config, estimate_C

MASSES = (0.15, 0.2, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0)
XS = (0.01, 1.0, 100.0)
PATH = Path(__file__).with_name("c_table.json")


def entry(M: float, x: float) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_C(coarse_config(x), ModelParams(M, -1.0))
    return {"M": M, "x": x, "C": est.value, "argmax": est.argmax,
            "regime": "plane" if est.argmax["tau"] == 0.0
            else "large-momentum"}


def main():
    table = {
        "about": "coarse C over (M, x = lam/|mu|) at mu = -1; written by "
                 "tests/make_c_table.py",
        # C is pinned to C_rel_tol relative.  The maximum is quadratic, so
        # a search that agrees in C to round-off leaves the argmax free by
        # about sqrt(eps) relative, hence the looser argmax_abs_tol
        "C_rel_tol": 1e-9,
        "argmax_abs_tol": 1e-4,
        "entries": [entry(M, x) for M in MASSES for x in XS],
    }
    PATH.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
