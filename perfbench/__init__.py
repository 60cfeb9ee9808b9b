"""Benchmark for the sweep, fault, service and verifier paths; see README.md."""
