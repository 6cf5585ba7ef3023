"""The repo benchmark's harness (see ``benchmarks/perf/README.md``).

Imports ``repro.*`` public APIs only; nothing here is imported by the
program under test.
"""
