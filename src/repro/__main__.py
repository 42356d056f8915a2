"""Command-line entry point: inventory, self-check, quick demo.

Usage::

    python -m repro            # inventory + quick self-check
    python -m repro demo       # run the Figure 2 pressure scenario
    python -m repro figure5    # full Figure 5 reproduction (slow)
    python -m repro bench NAME # run a swap bench (or all), check its gates
    python -m repro obs ...    # inspect observability dumps (check/report/prom)
"""

from __future__ import annotations

import sys


def _self_check() -> bool:
    """A fast end-to-end exercise of every subsystem."""
    from repro import Space, SwapClusterUtils, managed
    from repro.devices import InMemoryStore

    @managed
    class _CheckNode:
        def __init__(self, value: int) -> None:
            self.value = value
            self.next = None

        def get_next(self):
            return self.next

        def get_value(self) -> int:
            return self.value

    space = Space("self-check", heap_capacity=256 * 1024)
    space.manager.add_store(InMemoryStore("check-store"))
    head = _CheckNode(0)
    node = head
    for value in range(1, 50):
        node.next = _CheckNode(value)
        node = node.next
    handle = space.ingest(head, cluster_size=10, root_name="check")
    space.swap_out(2)
    total = 0
    cursor = SwapClusterUtils.assign(space.make_cursor(handle))
    while cursor is not None:
        total += cursor.get_value()
        cursor = cursor.get_next()
    space.verify_integrity()
    space.del_root("check")
    space.gc()
    return total == sum(range(50)) and space.object_count() == 0


def main(argv: list[str]) -> int:
    import repro

    if argv and argv[0] == "figure5":
        from repro.bench.figure5 import main as figure5_main

        return figure5_main(argv[1:])

    if argv and argv[0] == "bench":
        from repro.bench.runner import main as bench_main

        return bench_main(argv[1:])

    if argv and argv[0] == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])

    if argv and argv[0] == "demo":
        from repro.sim import run_pressure_scenario

        report = run_pressure_scenario()
        print("Figure 2 pressure scenario:")
        print(f"  batches built:      {report.batches_built}")
        print(f"  swap-outs:          {report.swap_outs}")
        print(f"  swap-ins (reloads): {report.swap_ins}")
        print(f"  GC store drops:     {report.drops}")
        print(f"  radio time:         {report.sim_seconds:.2f} simulated s")
        print(f"  data consistent:    {report.consistent}")
        return 0 if report.consistent else 1

    print(f"repro {repro.__version__} — Object-Swapping for Resource-"
          f"Constrained Devices (ICDCS 2007), full reproduction")
    print(__doc__.split("Usage::")[1])
    ok = _self_check()
    print(f"self-check: {'OK' if ok else 'FAILED'} "
          f"(ingest -> swap-out -> assign-iteration reload -> GC)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
