"""Golden training trajectories of every learned cost model.

The per-epoch ``train_losses`` and five held-out predictions of each
learned estimator (``zero-shot``, ``zero-shot-cardinality``, ``flat``,
``mscn``, ``e2e``) plus one few-shot ``fine_tune`` per zero-shot head
are frozen on disk (``tests/models/goldens/training.json``) for a tiny
fixed-seed corpus.  Training is deterministic, so any refactor of the
fit / predict / fine-tune plumbing in ``repro.models`` must reproduce
every number **exactly** — shuffling order, target standardization,
batch collation, best-epoch restore and de-standardization all show up
here as a changed bit.

If a numerical change is *intentional*, regenerate the snapshot and
commit it together with the change::

    PYTHONPATH=src python tests/models/test_training_goldens.py --regen

The trajectories check six epochs end to end; ``GRADIENT_DIGESTS`` pins
*one* backward pass — a SHA-256 over every parameter gradient of the
message-passing nets on the same plans — so a change to the tape or the
row kernels that moves a gradient bit says so directly (``--gradients``
prints the digests of the working tree).
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.db import (
    SyntheticDatabaseSpec,
    generate_database,
    make_imdb_database,
)
from repro.featurize import CardinalitySource, E2EFeaturizer, ZeroShotFeaturizer
from repro.models import (
    E2ECostModel,
    TrainerConfig,
    ZeroShotConfig,
    ZeroShotCostModel,
    get_estimator,
)
from repro.nn import functional as F
from repro.workload import (
    WorkloadRunner,
    WorkloadSpec,
    generate_workload,
    make_benchmark_workload,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "training.json"

#: Estimators trained across the fleet / on the target database only.
TRANSFERABLE = ("zero-shot", "zero-shot-cardinality", "flat")
WORKLOAD_DRIVEN = ("mscn", "e2e")
FINE_TUNED = ("zero-shot", "zero-shot-cardinality")

TRAINER = TrainerConfig(epochs=4, batch_size=16, seed=3)
FINE_TUNER = TrainerConfig(epochs=3, learning_rate=2e-4, batch_size=8,
                           validation_fraction=0.0,
                           early_stopping_patience=3, seed=3)

REGEN_HINT = (
    "training numerics changed; if intentional, regenerate the snapshot "
    "with `PYTHONPATH=src python tests/models/test_training_goldens.py "
    "--regen` and commit it with the change"
)


#: The tape and the row kernels, and whatever touches them next, must
#: reproduce every gradient bit; only an intended change to the encoding
#: or the nets regenerates these (``--gradients``).
GRADIENT_DIGESTS = {
    "zero-shot":
        "aa1886216247010c9ad50e84fdbb226ac1ad95f81486e66e72197129493571b6",
    "zero-shot/system":
        "d48448828492f8ab085079232a813151471bc1a6a84d1c3e52cda13bd499aefc",
    "e2e":
        "d65597a4faa2b2fb0cf5fc85c4335f03a5115f7a2d281027125e5a90b30c8a01",
}


def _imdb_records():
    imdb = make_imdb_database(scale=0.04, seed=7)
    return imdb, WorkloadRunner(imdb, seed=19).run(
        make_benchmark_workload(imdb, "scale", 40, seed=19))


def _trajectories() -> dict[str, dict[str, list[float]]]:
    """Fit, fine-tune and predict with every learned estimator."""
    synthetic = generate_database(SyntheticDatabaseSpec(
        name="golden-synth", seed=211, num_tables=3,
        min_rows=300, max_rows=1_500))
    imdb, imdb_records = _imdb_records()
    databases = {synthetic.name: synthetic, imdb.name: imdb}
    synthetic_records = WorkloadRunner(synthetic, seed=17).run(
        generate_workload(synthetic, WorkloadSpec(num_queries=30, seed=17)))
    train, few_shot, held_out = (imdb_records[:30], imdb_records[30:35],
                                 imdb_records[35:])
    plans = [record.plan for record in held_out]

    out: dict[str, dict[str, list[float]]] = {}
    for name in TRANSFERABLE + WORKLOAD_DRIVEN:
        records = train if name in WORKLOAD_DRIVEN \
            else synthetic_records + train
        estimator = get_estimator(name).fit(records, databases, TRAINER)
        out[name] = {
            "train_losses": list(estimator.history.train_losses),
            "predictions": estimator.predict_log_runtime(plans,
                                                         imdb).tolist(),
        }
        if name == "zero-shot-cardinality":
            out[name]["cardinalities"] = [
                cards.tolist()
                for cards in estimator.predict_cardinalities(plans, imdb)]
        if name in FINE_TUNED:
            tuned = estimator.fine_tune(few_shot, imdb, FINE_TUNER)
            out[f"{name}/fine_tune"] = {
                "train_losses": list(tuned.history.train_losses),
                "predictions": tuned.predict_log_runtime(plans,
                                                         imdb).tolist(),
            }
    return out


def _gradient_digest(model, samples) -> str:
    """SHA-256 over every ``param.grad`` (``state_dict()`` order)
    after one taped forward + ``q_loss`` + ``backward()`` on one batch
    of all ``samples``, through the closures ``fit`` trains with."""
    model._calibrate(samples)
    forward, targets = model.training_closures()
    batch = model.collate(model._encode(samples))
    model.net.train()
    F.q_loss(forward(batch), targets(batch)).backward()
    digest = hashlib.sha256()
    for name, parameter in zip(model.net.state_dict(),
                               model.net.parameters()):
        # A parameter no sample reaches has no gradient at all.
        digest.update(name.encode() if parameter.grad is None
                      else parameter.grad.tobytes())
    return digest.hexdigest()


def _gradient_digests() -> dict[str, str]:
    imdb, records = _imdb_records()
    out = {}
    for name, system_features in (("zero-shot", False),
                                  ("zero-shot/system", True)):
        featurizer = ZeroShotFeaturizer(CardinalitySource.ESTIMATED,
                                        system_features=system_features)
        out[name] = _gradient_digest(
            ZeroShotCostModel(ZeroShotConfig(system_features=system_features)),
            [featurizer.featurize(r.plan, imdb, r.runtime_seconds)
             for r in records])
    plans = [record.plan for record in records]
    featurizer = E2EFeaturizer(imdb).fit(plans)
    out["e2e"] = _gradient_digest(
        E2ECostModel(featurizer),
        [featurizer.featurize(r.plan, r.runtime_seconds) for r in records])
    return out


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        # ``json`` writes floats with ``repr``, which round-trips every
        # double exactly.
        json.dump(_trajectories(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


@pytest.fixture(scope="module")
def fresh():
    return _trajectories()


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.is_file(), \
        f"golden snapshot {GOLDEN_PATH} is missing; {REGEN_HINT}"
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_every_learned_model_is_pinned(golden):
    expected = set(TRANSFERABLE + WORKLOAD_DRIVEN) | {
        f"{name}/fine_tune" for name in FINE_TUNED}
    assert set(golden) == expected
    for name, entry in golden.items():
        epochs = FINE_TUNER.epochs if name.endswith("/fine_tune") \
            else TRAINER.epochs
        assert len(entry["train_losses"]) == epochs, name
        assert len(entry["predictions"]) == 5, name
        # A degenerate snapshot (constant predictions) pins nothing.
        assert len(set(entry["predictions"])) > 1, name


@pytest.mark.parametrize(
    "name", TRANSFERABLE + WORKLOAD_DRIVEN
    + tuple(f"{name}/fine_tune" for name in FINE_TUNED))
def test_training_matches_golden_snapshot(name, fresh, golden):
    assert fresh[name].keys() == golden[name].keys(), REGEN_HINT
    for key, values in golden[name].items():
        assert fresh[name][key] == values, \
            f"{name}:{key} drifted from the golden snapshot; {REGEN_HINT}"


def test_one_backward_pass_matches_the_pinned_gradients():
    """(a) the default net, (b) with the machine node — a child shared
    by every operator, so its row sums gradients across levels — and
    (c) the E2E tree net, whose pass starts from an encoder output."""
    assert _gradient_digests() == GRADIENT_DIGESTS


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    elif "--gradients" in sys.argv:
        print(json.dumps(_gradient_digests(), indent=1))
    else:
        print(__doc__)
        sys.exit(1)
