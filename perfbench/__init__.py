"""Benchmark harness for finsym: seeded workloads, verdict gate, outside-in trace."""
