"""The benchmark's view of the program: avbench/ sets up its five
workloads, traces one pass of each and gates every result.  avbench
reads and wraps names the program does not otherwise promise to keep
(kernels.BACKENDS, dynamics._accelerations, _ChartEngine.solve_terms,
exprlang.evaluate, ...), so a change that deletes or renames one of
them fails here."""
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "avbench")


def test_one_traced_pass_of_every_workload(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py sets these on import; restored after the test
    import run
    import tracing
    import workloads

    assert sorted(workloads.WORKLOADS) == ["action", "cloud", "cloud_large", "gauge_scan", "orbit"]
    loads = [cls(0) for cls in workloads.WORKLOADS.values()]
    for load in loads:
        load.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        log = workloads.OpLog(tracer)
        for load in loads:
            try:
                load.run_pass(log)
            except workloads.OpFailed:  # recorded in the log
                pass
    finally:
        tracer.uninstall()
    assert log.attempted > 0 and log.failed == 0, log.failures
    # what a report adds: the generated source of each compiled kernel, the backends
    assert min(tracing.source_stats(tracer.compiled)) > 0
    info = run.machine_info()
    assert info["backend_selected"] in info["backends_available"]
