"""Solver-free benchmark of pushdown-synth: compile, diff and pipeline workloads."""
