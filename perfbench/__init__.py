"""Benchmark of the entconv package: workloads, references, tracing."""
