"""Benchmark suite: paper-figure sweeps declared as data.

Every ``bench_*`` module that drives the simulator exports a ``SWEEPS``
tuple of :class:`repro.sim.sweep.SweepSpec` — the single source of truth
for which :class:`~repro.sim.runner.ExperimentConfig` points a figure
needs — and nothing else.  Their one consumer is ``run_all.py`` / the
``repro-bench`` entry point, which executes all sweeps through the
parallel, cached sweep engine, writes machine-readable
``results/*.json``, and holds the results to the claim rules of
``curve_checks.py``.
"""
