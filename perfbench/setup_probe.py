"""Set-up probe: time a fresh interpreter's import plus first calls.

Run as ``python3 perfbench/setup_probe.py <workload>`` with ``src`` on
PYTHONPATH; prints the seconds from before ``import moonshine.cli`` to the
end of the first call into each layer the workload uses.  The worker reuses
:func:`first_calls` as its warm-up, so the timed loop starts with the
resource tables and the Bernoulli cache already loaded.
"""

import contextlib
import io
import sys
import time


def first_calls(workload):
    """One minimal call into each layer the workload uses."""
    from moonshine import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if workload == "series":
            from moonshine import monster
            monster.CoeffTable.from_resource()
            for argv in (["j", "--order", "1"], ["delta", "--order", "2"],
                         ["eisenstein", "--weight", "4", "--order", "1"],
                         ["knz", "--order", "0"]):
                cli.main(argv)
        elif workload == "groups":
            from moonshine import groups
            cli.main(["group", "--name", "C2", "--action", "factors"])
            g = groups.cyclic_group(2)
            g.factor_descriptors(g.all_composition_series()[0])
        elif workload == "sl2z":
            from moonshine import sl2z
            tau = sl2z.UpperHalfPoint(0, 2)
            sl2z.reduce_to_fundamental(tau)
            sl2z.tau_equivalent(tau, tau)
            sl2z.evaluate_word(sl2z.word_decompose(sl2z.T))
        else:
            raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    start = time.perf_counter()
    import moonshine.cli  # noqa: F401  (timed on purpose)
    first_calls(sys.argv[1])
    print(repr(time.perf_counter() - start))
