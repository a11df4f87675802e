"""One set-up sample in a fresh interpreter.

``python3 perfbench/setup_probe.py <workload> <seed>`` does the set-up
work a user of that workload pays before the first timed unit, then
prints ``ready`` and exits; the caller times spawn -> ``ready``.

* ``detail``: imports, both programs built and predecoded, one core per
  (program, machine) built with its codegen.
* ``sampled``: the campaign and sampling imports plus both programs.

(The ``service`` set-up is the daemon's own start-up, timed by the
caller from spawn until ``/readyz`` answers 200.)
"""

import sys


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import repro.workloads as workloads
    from repro.sim.config import SimConfig
    if workload == "detail":
        import repro.sim.runner as runner
        for name in ("gzip", "mcf"):
            program = workloads.get_program(name, seed)
            program.decoded
            for token in ("baseline", "cpr", "msp:16"):
                core = runner.build_core(program,
                                         SimConfig.from_token(token))
                core.run(max_instructions=0)
    elif workload == "sampled":
        import repro.sim.campaign  # noqa: F401
        import repro.sim.runner  # noqa: F401
        import repro.sim.sampling  # noqa: F401
        for name in ("gzip", "mcf"):
            workloads.get_program(name, seed).decoded
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
