"""Steady end-to-end benchmark for the TIM+/IMM solves and the sketch service.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md`` for the
workloads, the metrics and how the traced run attributes time to layers.
"""
