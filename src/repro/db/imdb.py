"""An IMDB-shaped evaluation database.

The paper evaluates on the real IMDB database (the JOB / JOB-light
schema).  That dataset is not available offline, so we synthesize a
database with the same six-table JOB-light schema, realistic
cross-column correlations (e.g. newer movies have more votes and more
cast entries) and skewed foreign-key fan-outs.  The zero-shot model is
*never* trained on this database — it is the unseen holdout.

Tables (as in JOB-light): ``title``, ``movie_companies``, ``movie_info``,
``movie_info_idx``, ``movie_keyword``, ``cast_info``.
"""

from __future__ import annotations

import numpy as np

from repro.db.database import Database
from repro.db.schema import Column, ForeignKey, Schema, Table
from repro.db.table_data import TableData
from repro.db.types import DataType

__all__ = ["make_imdb_database", "IMDB_TABLE_NAMES"]

IMDB_TABLE_NAMES = ("title", "movie_companies", "movie_info",
                    "movie_info_idx", "movie_keyword", "cast_info")

#: Relative cardinalities of the JOB-light tables (scaled by ``scale``).
_BASE_ROWS = {
    "title": 25_000,
    "movie_companies": 26_000,
    "movie_info": 45_000,
    "movie_info_idx": 14_000,
    "movie_keyword": 35_000,
    "cast_info": 60_000,
}


def _skewed_movie_ids(rng: np.random.Generator, size: int,
                      popularity: np.ndarray) -> np.ndarray:
    """Draw movie ids proportional to a per-movie popularity weight."""
    probabilities = popularity / popularity.sum()
    return rng.choice(len(popularity), size=size, p=probabilities).astype(np.int64)


def make_imdb_database(scale: float = 1.0, seed: int = 42) -> Database:
    """Build the synthetic IMDB-shaped database, analyzed.

    ``scale`` multiplies all table sizes (1.0 ≈ 200k total rows, which a
    vectorized executor handles comfortably).  Besides the primary keys,
    every ``movie_id`` carries the B-tree standard in JOB setups
    (enabling index nested-loop plans for selective queries).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = np.random.default_rng(seed)
    rows = {name: max(100, int(count * scale)) for name, count in _BASE_ROWS.items()}
    n_title = rows["title"]

    # ------------------------------------------------------------------
    # title: the central table.  production_year is skewed towards recent
    # years; votes/rating correlate with year (newer -> more votes).
    # ------------------------------------------------------------------
    year_offset = rng.beta(4.0, 1.4, size=n_title)  # mass near 1 => recent
    production_year = (1900 + year_offset * 125).astype(np.int64)
    recency = (production_year - production_year.min()) / max(
        production_year.max() - production_year.min(), 1
    )
    votes = np.maximum(
        1, (np.exp(rng.normal(3.0 + 4.0 * recency, 1.5))).astype(np.int64)
    )
    rating = np.clip(
        5.5 + 1.5 * rng.normal(size=n_title) + 0.8 * np.log1p(votes) / 10.0,
        1.0, 10.0,
    )
    kind_id = _weighted_codes(rng, n_title, weights=[0.55, 0.25, 0.1, 0.05, 0.03, 0.02])
    season_nr = rng.integers(0, 40, size=n_title)
    episode_nr = np.where(kind_id >= 3, rng.integers(1, 400, size=n_title), 0)
    runtime_minutes = np.clip(
        rng.normal(95, 30, size=n_title), 1, 400
    ).astype(np.int64)

    title = Table(
        name="title",
        columns=(
            Column("id", DataType.INTEGER),
            Column("kind_id", DataType.CATEGORICAL, num_categories=6),
            Column("production_year", DataType.INTEGER),
            Column("votes", DataType.INTEGER),
            Column("rating", DataType.FLOAT),
            Column("season_nr", DataType.INTEGER),
            Column("episode_nr", DataType.INTEGER),
            Column("runtime_minutes", DataType.INTEGER),
        ),
        primary_key="id",
    )
    title_data = TableData(
        table=title,
        columns={
            "id": np.arange(n_title, dtype=np.int64),
            "kind_id": kind_id,
            "production_year": production_year,
            "votes": votes,
            "rating": rating,
            "season_nr": season_nr,
            "episode_nr": episode_nr,
            "runtime_minutes": runtime_minutes,
        },
    )

    # Popularity drives how many child rows each movie gets: recent,
    # high-vote movies dominate, so FK fan-outs are heavily skewed.
    popularity = (votes.astype(np.float64) ** 0.7) * (0.3 + recency)

    tables = [title]
    foreign_keys = []
    data = {"title": title_data}

    def add_child(name: str, extra_columns: tuple[Column, ...],
                  extra_values_fn) -> None:
        n = rows[name]
        # Each child gets its own tempered, noisily re-ranked popularity:
        # fan-outs stay skewed *within* a child but are only loosely
        # correlated *across* children, so multi-way star joins grow the
        # way the real IMDB does instead of exploding multiplicatively.
        alpha = float(rng.uniform(0.45, 0.75))
        child_popularity = popularity ** alpha * \
            np.exp(rng.normal(0.0, 0.8, size=n_title))
        movie_id = _skewed_movie_ids(rng, n, child_popularity)
        columns = (Column("id", DataType.INTEGER),
                   Column("movie_id", DataType.INTEGER)) + extra_columns
        table = Table(name=name, columns=columns, primary_key="id")
        values = {
            "id": np.arange(n, dtype=np.int64),
            "movie_id": movie_id,
        }
        values.update(extra_values_fn(n, movie_id))
        tables.append(table)
        foreign_keys.append(ForeignKey(name, "movie_id", "title", "id"))
        data[name] = TableData(table=table, columns=values)

    # movie_companies: company_type correlates with company_id range.
    def movie_companies_values(n, movie_id):
        company_id = _zipf_ids(rng, n, 5_000, 1.1)
        company_type_id = np.minimum(company_id // 1_500, 3).astype(np.int64)
        noise = rng.random(n) < 0.15
        company_type_id[noise] = rng.integers(0, 4, size=int(noise.sum()))
        return {"company_id": company_id, "company_type_id": company_type_id}

    add_child(
        "movie_companies",
        (Column("company_id", DataType.INTEGER),
         Column("company_type_id", DataType.CATEGORICAL, num_categories=4)),
        movie_companies_values,
    )

    # movie_info: info_type skewed; info value correlates with the movie's year.
    def movie_info_values(n, movie_id):
        info_type_id = _zipf_ids(rng, n, 110, 1.3)
        year_of_movie = production_year[movie_id]
        info_value = (year_of_movie - 1900) * 0.8 + rng.normal(0, 8, size=n)
        return {"info_type_id": info_type_id, "info_value": info_value}

    add_child(
        "movie_info",
        (Column("info_type_id", DataType.CATEGORICAL, num_categories=110),
         Column("info_value", DataType.FLOAT)),
        movie_info_values,
    )

    # movie_info_idx: mostly rating-like info types.
    def movie_info_idx_values(n, movie_id):
        info_type_id = _zipf_ids(rng, n, 5, 0.8)
        info_value = rating[movie_id] + rng.normal(0, 0.5, size=n)
        return {"info_type_id": info_type_id, "info_value": info_value}

    add_child(
        "movie_info_idx",
        (Column("info_type_id", DataType.CATEGORICAL, num_categories=5),
         Column("info_value", DataType.FLOAT)),
        movie_info_idx_values,
    )

    # movie_keyword: large zipfian keyword domain.
    def movie_keyword_values(n, movie_id):
        return {"keyword_id": _zipf_ids(rng, n, 20_000, 1.2)}

    add_child(
        "movie_keyword",
        (Column("keyword_id", DataType.INTEGER),),
        movie_keyword_values,
    )

    # cast_info: role distribution is skewed; nr_order small.
    def cast_info_values(n, movie_id):
        person_id = _zipf_ids(rng, n, 50_000, 1.0)
        role_id = _weighted_codes(
            rng, n, weights=[0.35, 0.3, 0.12, 0.08, 0.06, 0.04, 0.02, 0.015,
                             0.01, 0.005]
        )
        nr_order = np.minimum(rng.geometric(0.15, size=n), 100).astype(np.int64)
        return {"person_id": person_id, "role_id": role_id, "nr_order": nr_order}

    add_child(
        "cast_info",
        (Column("person_id", DataType.INTEGER),
         Column("role_id", DataType.CATEGORICAL, num_categories=10),
         Column("nr_order", DataType.INTEGER)),
        cast_info_values,
    )

    schema = Schema.from_tables("imdb", tables, foreign_keys)
    database = Database.from_tables("imdb", schema, data)
    for table in tables:
        database.create_index(f"{table.name}_pkey", table.name, "id", unique=True)
    for fk in foreign_keys:
        database.create_index(f"{fk.child_table}_movie_id",
                              fk.child_table, fk.child_column)
    database.analyze()
    return database


def _weighted_codes(rng: np.random.Generator, size: int,
                    weights: list[float]) -> np.ndarray:
    probabilities = np.asarray(weights, dtype=np.float64)
    probabilities = probabilities / probabilities.sum()
    return rng.choice(len(probabilities), size=size, p=probabilities).astype(np.int64)


def _zipf_ids(rng: np.random.Generator, size: int, domain: int,
              skew: float) -> np.ndarray:
    ranks = np.arange(1, domain + 1, dtype=np.float64)
    weights = ranks ** (-max(skew, 1e-6))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(size), side="left").astype(np.int64)
