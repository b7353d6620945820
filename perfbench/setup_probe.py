"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG COMMAND

Imports `leray_alpha` from SRC_DIR, parses CONFIG, builds the lattice and
the product-grid plan, and advances the initial state one step, using the
FFT thread setting that COMMAND (`run` or `ensemble`) gives the process.
Prints one JSON object: `setup_s` for the whole of that, `import_s` for the
import alone.
"""

import json
import sys
import time

start = time.perf_counter()


def main() -> int:
    src, config, command = sys.argv[1:4]
    sys.path.insert(0, src)
    import leray_alpha.cli  # noqa: F401  (the CLI imports every layer)

    imported = time.perf_counter()
    from leray_alpha.config import parse_config
    from leray_alpha.fields import default_fft_workers, set_fft_workers
    from leray_alpha.integrator import initial_state, step

    with open(config) as handle:
        parsed = parse_config(handle.read())
    if command == "run" and parsed.workers <= 1:
        set_fft_workers(default_fft_workers())
    cfg = parsed.run
    lat = cfg.ctx.lattice
    if cfg.nonlinear:
        lat.plan(lat.product_ng)
    state = step(initial_state(cfg), cfg)
    done = time.perf_counter()
    if state.halted is not None:
        print("warm-up step halted", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": done - start, "import_s": imported - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
