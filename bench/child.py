"""Child processes the benchmark starts (PYTHONPATH must include src).

    child.py setup <workload> <tmpdir>   import kramers_gl and make the
                                        workload's first warm-up call
    child.py import                      print the seconds `import kramers_gl` takes
    child.py cli <span-file> <args...>   run `kramers_gl.cli.main(args)` with
                                        every public function traced; spans
                                        go to <span-file> as JSON
"""

import json
import os
import sys
import time


def setup(workload: str, tmp: str) -> int:
    import kramers_gl  # noqa: F401  (the import is part of set-up)

    from workloads import McWide, run_cli_in_process

    if workload == "rate-sweep":
        out = os.path.join(tmp, "warmup.csv")
        argv = ["sweep", "--bc", "neumann", "--L-range", "2.5:4:1.5", "--eps", "1e-3", "--out", out]
        return run_cli_in_process(argv)
    if workload == "mc-wide":
        from dataclasses import replace

        from kramers_gl import simulator

        # fills the transform-plan cache for the workload's (L, bc, K)
        config = replace(McWide.config(McWide(0, tmp).spec(0)), t_max=0.5)
        simulator.run_to_transition(config, simulator.trajectory_rng(0, 0))
    return 0


def import_time() -> int:
    t0 = time.perf_counter()
    import kramers_gl  # noqa: F401

    print(f"{time.perf_counter() - t0:.9f}")
    return 0


def traced_cli(span_file: str, argv: list) -> int:
    from tracing import Tracer, installed

    from kramers_gl import cli

    tracer = Tracer()
    with installed(tracer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump([s.to_list() for s in tracer.spans], fh)
    return code


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        return setup(argv[1], argv[2])
    if mode == "import":
        return import_time()
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
