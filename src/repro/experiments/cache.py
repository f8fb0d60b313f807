"""Persistent experiment artifact store.

The paper's pitch is that one expensive training effort amortizes across
every future database — so the reproduction should not repeat that
effort either.  :class:`ArtifactStore` persists everything
:func:`~repro.experiments.setup.build_context` produces, each piece
once.

**Per-shard artifacts** hold the training corpus: one training
database's executed workload (the
:class:`~repro.workload.backends.ShardExecution` of one
:class:`~repro.workload.backends.CorpusShard`, fleet database
included), keyed by a content hash of the shard — database spec,
workload spec, index/runner seeds and system parameters.  Shard keys do
not involve the fleet size, so growing ``num_training_databases`` from
8 to 12 re-executes only the 4 new databases' workloads, and every
fleet-size sweep (the learning curve) reuses the shards it has already
paid for.

**Context entries** hold what shards do not — the two trained zero-shot
models, the IMDB holdout with its executed evaluation workloads and the
IMDB training-query pool — keyed by a content hash of the
:class:`~repro.experiments.setup.ExperimentScale`, so a benchmark run or
example script re-invoked with the same scale skips the one-time effort
entirely.  A context entry carries no copy of its corpus: a shard is a
pure function of its recipe, so ``build_context`` assembles the corpus
through the shard entries (re-executing, record for record, any that
vanished) and a stored model still matches it.

Layout (one directory per context key, one per shard key)::

    <root>/<CACHE_FORMAT_VERSION>/ctx-<hash>/
        scale.json          # provenance: the exact scale
        models/estimated/   # ZeroShotCostModel.save (weights + scalers)
        models/actual/
        context.pkl         # IMDB holdout, evaluation records, pool
        COMPLETE            # written last; absent => entry is ignored
    <root>/<CACHE_FORMAT_VERSION>/shards/shard-<hash>/
        shard.json          # provenance: database name, queries, seeds
        payload.pkl         # pickled ShardExecution
        COMPLETE

The root directory resolves, in order: explicit constructor argument,
the ``REPRO_CACHE_DIR`` environment variable, ``~/.cache/repro``.
Setting ``REPRO_CACHE=0`` disables the store globally (every
``build_context`` call rebuilds from scratch); ``python -m
repro.experiments.cache --clear`` empties it (shards included),
``--stat`` lists context *and* shard entries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import sys
import time
import zipfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import ExperimentError
from repro.featurize.graph import CardinalitySource
from repro.models import ZeroShotCostModel
from repro.workload.backends import CorpusShard, ShardExecution
from repro.workload.corpus import TrainingCorpus
from repro.workload.runner import RECORD_SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle with setup.py
    from repro.experiments.setup import ExperimentContext, ExperimentScale

__all__ = ["ArtifactStore", "cache_enabled", "context_key", "main",
           "resolve_store", "shard_key"]

#: Bump when the on-disk layout or any pickled type changes shape; old
#: entries are simply never matched again (and ``--clear`` removes them).
#: v2: sharded corpus directories + per-shard artifacts.
#: v3: executed records carry per-operator cardinality labels
#: (:data:`repro.workload.runner.RECORD_SCHEMA_VERSION` 2) — contexts
#: and shards pickled from v1-schema records must never be reused.
#: v4: an index holds no NULL keys, so index scans over nullable
#: columns record different cardinalities than v3-era shards did.
#: v5: a context entry no longer carries a ``corpus/`` copy of its
#: training databases; the shard entries are the only persisted form.
#: v6: ``GROUP BY`` on a nullable key emits one NULL group, so grouped
#: queries over NULLs record different root cardinalities.
#: v7: the merge join and its sort operator are gone, so a saved model
#: encodes two fewer ``plan_op`` and one fewer ``system`` feature.
#: v8: a plan node carries ``actual_ms``, the executor's wall time.
CACHE_FORMAT_VERSION = "v8"

_COMPLETE_MARKER = "COMPLETE"
#: What reading an entry raises when it was deleted under the reader
#: (a racing ``--clear``) or one of its files — pickle, ``weights.npz``,
#: ``model.json`` — is truncated (a full disk, a copy cut short): both
#: read as a miss, never as a crash.
_UNREADABLE = (OSError, EOFError, pickle.UnpicklingError,
               zipfile.BadZipFile, json.JSONDecodeError)
_SHARDS_DIR_NAME = "shards"
_MODEL_DIRS = {
    CardinalitySource.ESTIMATED: "estimated",
    CardinalitySource.ACTUAL: "actual",
}


def cache_enabled() -> bool:
    """The global kill switch: ``REPRO_CACHE=0`` bypasses the store."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def resolve_store(store: "ArtifactStore | None" = None
                  ) -> "ArtifactStore | None":
    """The store an experiment collects and trains through: ``store``,
    else the one at :func:`default_cache_root`; ``None`` when
    ``REPRO_CACHE=0`` switches the store off."""
    if not cache_enabled():
        return None
    return store if store is not None else ArtifactStore()


def default_cache_root() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def context_key(scale: "ExperimentScale") -> str:
    """Content hash of everything that determines a context's value.

    ``ExperimentScale`` is a frozen dataclass of plain values (nested
    configs included), so its ``asdict`` form is the complete recipe;
    the seed lives inside the scale.
    """
    payload = {"scale": asdict(scale)}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    return f"ctx-{digest[:16]}"


def shard_key(shard: CorpusShard) -> str:
    """Content hash of one corpus shard's complete recipe.

    A :class:`~repro.workload.backends.CorpusShard` is a frozen
    dataclass of plain values — database spec, workload spec, index and
    runner seeds, random-index count, noise sigma and system parameters
    — so its ``asdict`` form is everything that determines the shard's
    records.  The :data:`~repro.workload.runner.RECORD_SCHEMA_VERSION`
    is folded in as well: a schema bump (e.g. the per-operator
    cardinality labels) changes every key, so shards pickled from
    older record schemas are re-executed instead of silently reused.
    Deliberately *not* keyed: fleet size and backend choice, which do
    not change the records.
    """
    payload = {
        "record_schema": RECORD_SCHEMA_VERSION,
        "shard": asdict(shard),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    return f"shard-{digest[:16]}"


class ArtifactStore:
    """Directory-backed store of experiment contexts."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root is not None else default_cache_root()

    # ------------------------------------------------------------------
    def _version_dir(self) -> Path:
        return self.root / CACHE_FORMAT_VERSION

    def _entry_dir(self, scale: "ExperimentScale") -> Path:
        return self._version_dir() / context_key(scale)

    # ------------------------------------------------------------------
    def _publish(self, staging: Path, entry: Path) -> None:
        """Atomically promote a fully written staging dir to ``entry``.

        The ``COMPLETE`` marker inside ``staging`` was written last, so
        whatever ends up at ``entry`` is either absent, ignored
        (markerless), or complete — a crashed or concurrent writer can
        never produce a readable half-entry.
        """
        if (entry / _COMPLETE_MARKER).is_file():
            # A concurrent writer finished first; same key => same bytes.
            shutil.rmtree(staging, ignore_errors=True)
            return
        if entry.exists():
            # Incomplete leftover (crashed writer, interrupted clear):
            # replace it, otherwise the key would miss forever.  Re-check
            # the marker right before deleting — a concurrent writer may
            # have completed the entry since the check above.
            if (entry / _COMPLETE_MARKER).is_file():
                shutil.rmtree(staging, ignore_errors=True)
                return
            shutil.rmtree(entry, ignore_errors=True)
        try:
            os.replace(staging, entry)
        except OSError:
            # Lost a replace race after the marker check; the winner's
            # entry is equivalent, so just drop the staging copy.
            shutil.rmtree(staging, ignore_errors=True)

    @staticmethod
    def _demote(entry: Path) -> None:
        """Take the ``COMPLETE`` marker off an unreadable entry, so the
        re-executed result replaces it (:meth:`_publish` keeps a marked
        entry) instead of every later run missing on it again."""
        try:
            (entry / _COMPLETE_MARKER).unlink(missing_ok=True)
        except OSError:
            pass

    @contextmanager
    def _staged(self, entry: Path) -> Iterator[Path]:
        """Write an entry: the body fills the yielded staging directory,
        then the ``COMPLETE`` marker is written last and the directory
        renamed into place (:meth:`_publish`).  A body that raises
        leaves nothing behind."""
        staging = entry.with_name(entry.name + f".tmp-{os.getpid()}")
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            yield staging
            (staging / _COMPLETE_MARKER).write_text("ok\n")
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._publish(staging, entry)

    def save_context(self, context: "ExperimentContext") -> Path:
        """Persist what a freshly built context holds beyond its corpus
        (the shard entries already hold that); returns the entry
        directory."""
        entry = self._entry_dir(context.scale)
        with self._staged(entry) as staging:
            with open(staging / "scale.json", "w") as handle:
                json.dump({
                    "scale": asdict(context.scale),
                    "created_unix": time.time(),
                }, handle, indent=2, default=str)
            for source, model in context.zero_shot_models.items():
                model.save(staging / "models" / _MODEL_DIRS[source])
            with open(staging / "context.pkl", "wb") as handle:
                pickle.dump({
                    "imdb": context.imdb,
                    "evaluation_records": context.evaluation_records,
                    "imdb_pool": context.imdb_pool,
                    "histories": {
                        _MODEL_DIRS[source]: model.history
                        for source, model in context.zero_shot_models.items()
                    },
                }, handle, protocol=pickle.HIGHEST_PROTOCOL)
        return entry

    def load_context(self, scale: "ExperimentScale", corpus: TrainingCorpus
                     ) -> "ExperimentContext | None":
        """Load a stored context around ``corpus`` (the scale's training
        corpus, assembled through the shard entries), or ``None`` on a
        cold, incomplete or unreadable (deleted under the reader,
        truncated) entry."""
        from repro.experiments.setup import ExperimentContext

        entry = self._entry_dir(scale)
        if not (entry / _COMPLETE_MARKER).is_file():
            return None
        try:
            with open(entry / "context.pkl", "rb") as handle:
                payload = pickle.load(handle)
            models: dict[CardinalitySource, ZeroShotCostModel] = {}
            for source, name in _MODEL_DIRS.items():
                model = ZeroShotCostModel.load(entry / "models" / name)
                model.history = payload["histories"].get(name)
                models[source] = model
        except _UNREADABLE:
            self._demote(entry)
            return None
        return ExperimentContext(
            scale=scale,
            corpus=corpus,
            zero_shot_models=models,
            imdb=payload["imdb"],
            evaluation_records=payload["evaluation_records"],
            imdb_pool=payload["imdb_pool"],
        )

    # ------------------------------------------------------------------
    # Per-shard artifacts: one training database's executed workload.
    # ------------------------------------------------------------------
    def _shard_dir(self, shard: CorpusShard) -> Path:
        return self._version_dir() / _SHARDS_DIR_NAME / shard_key(shard)

    def save_shard(self, execution: ShardExecution) -> Path:
        """Persist one executed shard; returns its entry directory.

        Same COMPLETE-marker discipline as contexts: two writers racing
        on the same shard key cannot corrupt it — one publishes, the
        other notices the marker and discards its staging copy.
        """
        entry = self._shard_dir(execution.shard)
        with self._staged(entry) as staging:
            with open(staging / "shard.json", "w") as handle:
                json.dump({
                    "database": execution.database.name,
                    "num_records": len(execution.records),
                    "shard": asdict(execution.shard),
                    "created_unix": time.time(),
                }, handle, indent=2, default=str)
            with open(staging / "payload.pkl", "wb") as handle:
                pickle.dump(execution, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
        return entry

    def load_shard(self, shard: CorpusShard) -> ShardExecution | None:
        """Load one shard's execution, or ``None`` on a cold entry.

        A concurrently deleted entry (e.g. a racing ``--clear``) or a
        truncated payload reads as a miss, not a crash — the caller
        re-executes the shard.
        """
        entry = self._shard_dir(shard)
        if not (entry / _COMPLETE_MARKER).is_file():
            return None
        try:
            with open(entry / "payload.pkl", "rb") as handle:
                execution = pickle.load(handle)
        except _UNREADABLE:
            self._demote(entry)
            return None
        if not isinstance(execution, ShardExecution):
            raise ExperimentError(
                f"shard entry {entry.name} does not contain a "
                f"ShardExecution (got {type(execution).__name__})"
            )
        return execution

    # ------------------------------------------------------------------
    @staticmethod
    def _complete_entries(directory: Path, provenance_file: str,
                          describe: Callable[[dict], dict]) -> list[dict]:
        """Key, size and ``describe(provenance)`` of every complete
        entry directly under ``directory``."""
        if not directory.is_dir():
            return []
        found = []
        for entry in sorted(directory.iterdir()):
            if not (entry / _COMPLETE_MARKER).is_file():
                continue
            size = sum(f.stat().st_size
                       for f in entry.rglob("*") if f.is_file())
            info = {"key": entry.name, "bytes": size}
            try:
                with open(entry / provenance_file) as handle:
                    info.update(describe(json.load(handle)))
            except (OSError, json.JSONDecodeError):
                pass
            found.append(info)
        return found

    def shard_entries(self) -> list[dict]:
        """Metadata for every complete shard entry (for ``--stat``)."""
        return self._complete_entries(
            self._version_dir() / _SHARDS_DIR_NAME, "shard.json",
            lambda provenance: {
                "database": provenance.get("database"),
                "num_records": provenance.get("num_records"),
                "seed": provenance.get("shard", {})
                                  .get("database_spec", {}).get("seed"),
                "created_unix": provenance.get("created_unix"),
            })

    def entries(self) -> list[dict]:
        """Metadata for every complete context entry (for ``--stat``)."""
        def describe(provenance: dict) -> dict:
            scale = provenance.get("scale", {})
            return {
                "databases": scale.get("num_training_databases"),
                "queries_per_database": scale.get("queries_per_database"),
                "seed": scale.get("seed"),
                "created_unix": provenance.get("created_unix"),
            }
        return self._complete_entries(self._version_dir(), "scale.json",
                                      describe)

    def clear(self) -> int:
        """Delete every entry (all format versions, contexts *and*
        shards); returns the count of removed entries."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for version_dir in self.root.iterdir():
            if not version_dir.is_dir():
                continue
            for entry in version_dir.iterdir():
                if entry.name == _SHARDS_DIR_NAME and entry.is_dir():
                    removed += sum(1 for _ in entry.iterdir())
                else:
                    removed += 1
                shutil.rmtree(entry, ignore_errors=True)
            shutil.rmtree(version_dir, ignore_errors=True)
        return removed


# ----------------------------------------------------------------------
# CLI: python -m repro.experiments.cache --stat | --clear
# ----------------------------------------------------------------------
def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}"
        value /= 1024
    return f"{value:.1f} GiB"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Inspect or clear the persistent experiment "
                    "artifact store.",
    )
    parser.add_argument("--dir", default=None,
                        help="store root (default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro)")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--stat", action="store_true",
                        help="list cached experiment contexts (default)")
    action.add_argument("--clear", action="store_true",
                        help="delete every cached entry")
    args = parser.parse_args(argv)

    store = ArtifactStore(args.dir)
    if args.clear:
        removed = store.clear()
        print(f"cleared {removed} cached entr"
              f"{'y' if removed == 1 else 'ies'} from {store.root}")
        return 0

    entries = store.entries()
    shard_entries = store.shard_entries()
    print(f"artifact store: {store.root} "
          f"({'enabled' if cache_enabled() else 'DISABLED via REPRO_CACHE=0'})")
    if not entries and not shard_entries:
        print("  (empty)")
        return 0
    total = 0
    for info in entries:
        total += info["bytes"]
        scale_hint = ""
        if info.get("databases") is not None:
            scale_hint = (f"  fleet={info['databases']}x"
                          f"{info.get('queries_per_database')}q"
                          f" seed={info.get('seed')}")
        print(f"  {info['key']}  {_format_bytes(info['bytes']):>10}"
              f"{scale_hint}")
    shard_total = 0
    for info in shard_entries:
        shard_total += info["bytes"]
        shard_hint = ""
        if info.get("database") is not None:
            shard_hint = (f"  db={info['database']}"
                          f" records={info.get('num_records')}")
        print(f"  {info['key']}  {_format_bytes(info['bytes']):>10}"
              f"{shard_hint}")
    total += shard_total
    print(f"  total: {_format_bytes(total)} in {len(entries)} context "
          f"entr{'y' if len(entries) == 1 else 'ies'} + "
          f"{len(shard_entries)} shard entr"
          f"{'y' if len(shard_entries) == 1 else 'ies'}")
    return 0


if __name__ == "__main__":   # pragma: no cover - exercised via CLI
    sys.exit(main())
