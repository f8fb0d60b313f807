"""Experiment drivers: one module per paper artifact.

* :mod:`~repro.experiments.setup` — shared experiment context (training
  fleet, corpus, zero-shot models, IMDB holdout, evaluation workloads).
* :mod:`~repro.experiments.cache` — persistent artifact store: contexts
  round-trip to disk keyed by a content hash of the scale, so the
  one-time effort is skipped on re-runs (CLI: ``repro-cache``).
* :mod:`~repro.experiments.cardinality_exp` — estimated vs. learned
  cardinalities (per-operator Q-error + plan-quality deltas when each
  source drives the DP enumerator).
* :mod:`~repro.experiments.figure3` — Figure 3 (all four panels).
* :mod:`~repro.experiments.table1` — Table 1 (incl. the Index row).
* :mod:`~repro.experiments.learning_curve` — §3.2's "stagnates after 19
  databases" observation.
* :mod:`~repro.experiments.fewshot_exp` — few-shot fine-tuning vs
  workload-driven training from scratch.
* :mod:`~repro.experiments.ablations` — the zero-shot design choices
  (message passing, cardinality features).
* :mod:`~repro.experiments.resources` — memory and I/O prediction.
* :mod:`~repro.experiments.hardware` — hardware transfer (§4.3): train
  across machines, evaluate on an unseen machine, drive the hardware
  what-if advisor (CLI: ``repro-hardware``).

Each driver module holds its result, its ``run_*``, the ``format_*``
that renders the result as text and the ``main`` of its console
script, one call of :func:`~repro.experiments.setup.experiment_main`.
Every driver is ``run_<name>(scale=None, context=None)``: it accepts an
:class:`~repro.experiments.setup.ExperimentScale` so the same code runs
at test scale, benchmark scale or paper scale, or the built
:class:`~repro.experiments.setup.ExperimentContext` it shares with the
others.  Every driver evaluates
through one path: a driver that pools the three benchmarks reads its
plans and truths from
:meth:`~repro.experiments.setup.ExperimentContext.pooled_evaluation`,
and every Q-error summary is
:func:`~repro.experiments.setup.score` (predictions clamped, then
summarised).

The package imports none of them: import from the modules
(``repro.experiments.setup.build_context``,
``repro.experiments.cache.ArtifactStore``), so ``python -m
repro.experiments.<module>`` runs each driver once.
"""

__all__: list[str] = []
