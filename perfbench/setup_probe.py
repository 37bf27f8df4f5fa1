"""Times one set-up: ``import repro``, ``BoardSpec.build()`` and the
§3.1 interference controls, in a fresh interpreter.

Prints ``{"setup_s": ..., "kernel_s": ...}``: the set-up's wall
seconds and, after it, those of the reference kernel
(:func:`measure._reference_kernel`), by which ``run.py`` scales the
set-up to the reference host.  Run by ``run.py`` several times per
run::

    PYTHONPATH=src python3 perfbench/setup_probe.py --seed 2023
"""

import argparse
import json
import statistics
import time

started = time.perf_counter()
import repro  # noqa: E402,F401
from repro.bender.board import BoardSpec  # noqa: E402
from repro.core.experiment import (  # noqa: E402
    ExperimentConfig,
    apply_controls,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    board = BoardSpec(seed=seed).build()
    apply_controls(board, ExperimentConfig())
    setup_s = time.perf_counter() - started
    from measure import _reference_kernel, _reference_kernels
    _reference_kernel()  # its first call pays numpy's first use
    print(json.dumps({"setup_s": setup_s,
                      "kernel_s": statistics.mean(_reference_kernels())}))


if __name__ == "__main__":
    main()
