"""Measurement harness for the collect -> train -> serve pipeline.

``python -m bench`` times five seeded workloads over the public entry
points of ``src/repro`` and prints the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` records spans around the calls into
each layer and prints the per-layer metrics instead.  See
``bench/README.md`` for the glossary and how to read a trace.

Nothing here is imported by ``src/repro``; the harness only calls it.
"""
