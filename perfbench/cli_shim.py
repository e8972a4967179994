"""Run one awarekit CLI command under the benchmark's instruments.

Usage: python3 perfbench/cli_shim.py sample OUT CLI_ARGS...
       python3 perfbench/cli_shim.py trace OUT JOB_ID CLI_ARGS...

`sample` runs the host-speed sampler of hostspeed.py from the start of the
process to the end of `cli.main`, so that the command's time can be scaled
by the speed of the CPU it ran on, and writes the samples and the time spent
taking them to OUT. `trace` installs the same wrappers as a traced
in-process run before `cli.main` and writes the trace and the wall time of
`cli.main` to OUT. Either way the process exits with the command's exit code
and standard output is the command's own. The program is imported from the
checkout's `src/`, which the runner puts on PYTHONPATH.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def sampled(out, cli_args):
    from hostspeed import Sampler

    sampler = Sampler()
    sampler.start()
    try:
        import awarekit.cli

        return awarekit.cli.main(cli_args)
    finally:
        sampler.stop()
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"samples": sampler.samples, "spent": sampler.spent}, fh)


def traced(out, job, cli_args):
    from layertrace import Tracer
    from workloads import import_program

    import_program(os.path.dirname(HERE))
    import awarekit.cli

    tracer = Tracer()
    tracer.install()
    tracer.job = job
    start = time.perf_counter()
    try:
        return awarekit.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        body = tracer.to_json()
        body["main_wall_s"] = main_s
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(body, fh)


def main():
    mode, out = sys.argv[1], sys.argv[2]
    if mode == "sample":
        return sampled(out, sys.argv[3:])
    return traced(out, sys.argv[3], sys.argv[4:])


if __name__ == "__main__":
    sys.exit(main())
