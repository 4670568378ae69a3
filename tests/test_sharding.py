"""Distributed campaign sharding: shard partition, merge identity, CLI.

Covers the sharding PR's contract end to end:

* every cell's seed and tag equal the formulas the store was built on
  (generated grids, the empty grid included), now that the grid builds
  each cell's canonical text once;
* ``shard_of`` is a pure function of the canonical cell tag — the same
  cell lands on the same shard on every host, every run;
* ``shard_cells`` partitions the grid exactly (every cell in exactly
  one shard, union == grid) and is lazy — it never materialises the
  other hosts' share;
* K merged shard stores report byte-identically to an uninterrupted
  single-host run, for K in {1, 2, 3}, including ``report_table()``;
* ``merge_campaign_stores`` rejects, loudly: mismatched base_seeds,
  mismatched RNG backends, mismatched shard counts, overlapping shards
  (duplicate index),
  missing shards, stores without identity metadata, out-of-range
  indices, an existing merge target (unless ``force=True``), and a
  target that is one of the shards (even under ``force=True``);
* a shard interrupted mid-run (``max_cells``) resumes to the same
  merged bytes — resume semantics are unchanged by sharding;
* a store stamped for one shard spec refuses to run as another
  (one store is one shard), and the CLI drives the whole
  shard -> merge -> report loop.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import re

import pytest
from maybe_hypothesis import given, settings, strategies as st

from repro.adversary.loss import rng_backend
from repro.core.errors import ConfigurationError
from repro.core.records import SqliteSink
from repro.experiments.campaign import (
    CampaignRunner,
    cell_tag,
    merge_campaign_stores,
    shard_cells,
    shard_of,
)
from repro.experiments.harness import (
    _canonical,
    cell_seed,
    consensus_sweep_cell,
    iter_cells,
)


@pytest.fixture(autouse=True)
def no_leaked_workers():
    yield
    children = multiprocessing.active_children()
    assert children == [], f"leaked worker processes: {children}"


AXES = dict(
    n=[3, 4], detector=["0-OAC"], loss_rate=[0.1, 0.3], trial=[0, 1],
    values=[4], record_policy=["summary"],
)  # 8 cells


def _runner(db: str, base_seed: int = 3, **kwargs) -> CampaignRunner:
    return CampaignRunner(
        consensus_sweep_cell, db_path=db, base_seed=base_seed,
        in_process=True, extra_params={"sqlite_db": db}, **kwargs,
    )


def _run_shards(tmp_path, k: int, base_seed: int = 3):
    """Run the AXES grid as k shard stores; return their paths."""
    paths = []
    for i in range(k):
        db = str(tmp_path / f"shard{i}-of-{k}.db")
        paths.append(db)
        runner = _runner(db, base_seed=base_seed, shard_index=i, shard_count=k)
        outcomes = runner.resume(**AXES)
        assert all(o.status == "done" for o in outcomes)
    return paths


@pytest.fixture(scope="module")
def single_host(tmp_path_factory):
    """Reference bytes from one uninterrupted single-host pass."""
    db = str(tmp_path_factory.mktemp("single") / "single.db")
    runner = _runner(db)
    runner.resume(**AXES)
    return runner.report(**AXES), runner.report_table(**AXES)


# --------------------------------------------------------------------------
# shard function + partition


def test_shard_of_is_deterministic_and_in_range():
    tags = [cell_tag(c) for c in iter_cells(3, **AXES)]
    for k in (1, 2, 3, 5):
        for tag in tags:
            s = shard_of(tag, k)
            assert 0 <= s < k
            assert s == shard_of(tag, k)  # pure function of the tag


def test_shard_of_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        shard_of("n=3", 0)
    with pytest.raises(ConfigurationError):
        shard_of("n=3", -1)


# --------------------------------------------------------------------------
# cell identity: one canonical text per cell, seeds and tags unchanged


def _reference_tag(params) -> str:
    return "|".join(f"{k}={_canonical(v)}" for k, v in sorted(params.items()))


def _reference_seed(base_seed: int, params) -> int:
    text = "|".join(
        [str(int(base_seed))]
        + [f"{k}={_canonical(v)}" for k, v in sorted(params.items())]
    )
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4],
                          "big")


def _assert_identity_matches_reference(base_seed: int, axes) -> None:
    for cell in iter_cells(base_seed, **axes):
        params = cell.as_dict()
        assert cell.seed == _reference_seed(base_seed, params)
        assert cell.seed == cell_seed(base_seed, **params)
        assert cell_tag(cell) == _reference_tag(params)


def test_empty_grid_seeds_from_the_base_seed_alone():
    (cell,) = iter_cells(7)
    assert cell_tag(cell) == ""
    assert cell.seed == int.from_bytes(
        hashlib.sha256(b"7").digest()[:4], "big"
    )
    _assert_identity_matches_reference(7, {})


def test_campaign_grid_identity_matches_the_reference_formulas():
    _assert_identity_matches_reference(3, AXES)
    _assert_identity_matches_reference(0, dict(AXES, topology=["ring"],
                                               churn_rate=[0.0, 0.15]))


_COORDINATE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text("ab|=,", max_size=3), st.lists(st.integers(0, 2), max_size=2),
)


@given(
    base_seed=st.integers(0, 2 ** 32),
    axes=st.dictionaries(
        st.text("nxyz_", min_size=1, max_size=3),
        st.lists(_COORDINATE, min_size=1, max_size=3),
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_generated_grid_identity_matches_the_reference_formulas(
    base_seed, axes
):
    _assert_identity_matches_reference(base_seed, axes)


def test_shard_cells_partitions_the_grid_exactly():
    grid = list(iter_cells(3, **AXES))
    for k in (1, 2, 3):
        shards = [list(shard_cells(iter(grid), i, k)) for i in range(k)]
        tags = [cell_tag(c) for shard in shards for c in shard]
        assert sorted(tags) == sorted(cell_tag(c) for c in grid)
        assert len(tags) == len(set(tags))  # every cell in exactly one shard


def test_shard_cells_is_lazy():
    def gen():
        yield from iter_cells(3, **AXES)
        raise AssertionError("generator drained past need")

    stream = shard_cells(gen(), 0, 2)
    first = next(stream)  # pulls only until the first matching cell
    assert shard_of(cell_tag(first), 2) == 0


def test_sharded_cells_keep_full_grid_indices():
    """Shard filtering happens after enumeration: index/seed identity is
    the full grid's, so merged stores are indistinguishable from an
    unsharded run."""
    full = {cell_tag(c): (c.index, c.seed)
            for c in _runner_cells_unsharded()}
    seen = {}
    for i in range(3):
        runner = CampaignRunner(
            consensus_sweep_cell, db_path=":memory:", base_seed=3,
            in_process=True, shard_index=i, shard_count=3)
        for c in runner.cells(**AXES):
            seen[cell_tag(c)] = (c.index, c.seed)
    assert seen == full


def _runner_cells_unsharded():
    return CampaignRunner(
        consensus_sweep_cell, db_path=":memory:", base_seed=3,
        in_process=True).cells(**AXES)


# --------------------------------------------------------------------------
# merge identity


@pytest.mark.parametrize("k", [1, 2, 3])
def test_merged_report_is_byte_identical(tmp_path, k, single_host):
    ref_report, ref_table = single_host
    paths = _run_shards(tmp_path, k)
    merged = str(tmp_path / "merged.db")
    summary = merge_campaign_stores(merged, paths)
    assert summary["shards"] == k
    assert summary["cells"] == 8
    with SqliteSink(merged) as store:
        assert store.get_meta("rng_backend") == rng_backend()
    runner = _runner(merged)
    assert runner.report(**AXES) == ref_report
    assert runner.report_table(**AXES) == ref_table


def test_interrupted_shard_resumes_to_same_merged_bytes(tmp_path, single_host):
    ref_report, _ = single_host
    db0 = str(tmp_path / "s0.db")
    db1 = str(tmp_path / "s1.db")
    # interrupt shard 0 after one cell, then resume it to completion
    _runner(db0, shard_index=0, shard_count=2).resume(max_cells=1, **AXES)
    _runner(db0, shard_index=0, shard_count=2).resume(**AXES)
    _runner(db1, shard_index=1, shard_count=2).resume(**AXES)
    merged = str(tmp_path / "merged.db")
    merge_campaign_stores(merged, [db0, db1])
    assert _runner(merged).report(**AXES) == ref_report


def test_merge_order_does_not_matter(tmp_path, single_host):
    ref_report, _ = single_host
    paths = _run_shards(tmp_path, 3)
    merged = str(tmp_path / "merged.db")
    merge_campaign_stores(merged, list(reversed(paths)))
    assert _runner(merged).report(**AXES) == ref_report


# --------------------------------------------------------------------------
# merge rejections


def test_merge_rejects_base_seed_mismatch(tmp_path):
    a = str(tmp_path / "a.db")
    b = str(tmp_path / "b.db")
    _runner(a, base_seed=3, shard_index=0, shard_count=2).resume(**AXES)
    _runner(b, base_seed=4, shard_index=1, shard_count=2).resume(**AXES)
    with pytest.raises(ConfigurationError, match="base_seed"):
        merge_campaign_stores(str(tmp_path / "m.db"), [a, b])


def test_merge_rejects_overlapping_shards(tmp_path):
    paths = _run_shards(tmp_path, 2)
    with pytest.raises(ConfigurationError, match="overlapping"):
        merge_campaign_stores(
            str(tmp_path / "m.db"), [paths[0], paths[0], paths[1]])


def test_merge_rejects_missing_shard(tmp_path):
    paths = _run_shards(tmp_path, 3)
    with pytest.raises(ConfigurationError, match="missing"):
        merge_campaign_stores(str(tmp_path / "m.db"), paths[:2])


def test_merge_rejects_mixed_shard_counts(tmp_path):
    a = str(tmp_path / "a.db")
    b = str(tmp_path / "b.db")
    _runner(a, shard_index=0, shard_count=2).resume(**AXES)
    _runner(b, shard_index=0, shard_count=3).resume(**AXES)
    with pytest.raises(ConfigurationError, match="shard count"):
        merge_campaign_stores(str(tmp_path / "m.db"), [a, b])


def test_merge_rejects_store_without_identity(tmp_path):
    bare = str(tmp_path / "bare.db")
    sink = SqliteSink(bare)
    sink._connect()  # creates the schema but stamps no identity metadata
    sink.close()
    with pytest.raises(ConfigurationError, match="identity"):
        merge_campaign_stores(str(tmp_path / "m.db"), [bare])


def test_merge_rejects_shards_from_another_rng_backend(
    tmp_path, monkeypatch, capsys
):
    from repro.__main__ import main

    paths = _run_shards(tmp_path, 2)
    with SqliteSink(paths[0]) as store:
        mine = store.get_meta("rng_backend")
        # As if shard 0 had been filled on a host with the other backend.
        store.set_meta("rng_backend", "pure" if mine == "numpy" else "numpy")
    with pytest.raises(ConfigurationError, match="rng_backend"):
        merge_campaign_stores(str(tmp_path / "m.db"), paths)
    monkeypatch.chdir(tmp_path)
    assert main(["campaign", "merge", "--out", "m.db"] + paths) == 2
    assert "merge rejected" in capsys.readouterr().err
    assert not (tmp_path / "m.db").exists()


def test_merge_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        merge_campaign_stores(
            str(tmp_path / "m.db"), [str(tmp_path / "nope.db")])


def test_merge_refuses_existing_target_unless_forced(tmp_path, single_host):
    ref_report, _ = single_host
    paths = _run_shards(tmp_path, 2)
    merged = str(tmp_path / "merged.db")
    merge_campaign_stores(merged, paths)
    with pytest.raises(ConfigurationError, match="exists"):
        merge_campaign_stores(merged, paths)
    merge_campaign_stores(merged, paths, force=True)
    assert _runner(merged).report(**AXES) == ref_report


def test_merge_refuses_a_target_that_is_one_of_its_shards(tmp_path):
    paths = _run_shards(tmp_path, 2)
    shard = _runner(paths[0], shard_index=0, shard_count=2)
    before = shard.report(**AXES)
    for force in (False, True):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"shard store {paths[0]!r}")):
            merge_campaign_stores(paths[0], paths, force=force)
        assert shard.report(**AXES) == before


# --------------------------------------------------------------------------
# store identity guards on the runner itself


def test_store_refuses_other_shard_spec(tmp_path):
    db = str(tmp_path / "s.db")
    _runner(db, shard_index=0, shard_count=2).resume(max_cells=1, **AXES)
    with pytest.raises(ConfigurationError, match="shard"):
        _runner(db, shard_index=1, shard_count=2).resume(**AXES)
    with pytest.raises(ConfigurationError, match="shard"):
        _runner(db).resume(**AXES)  # unsharded run on a shard store


def test_runner_rejects_bad_shard_spec():
    with pytest.raises(ConfigurationError):
        CampaignRunner(consensus_sweep_cell, db_path=":memory:",
                       shard_index=2, shard_count=2)
    with pytest.raises(ConfigurationError):
        CampaignRunner(consensus_sweep_cell, db_path=":memory:",
                       shard_index=0, shard_count=0)


# --------------------------------------------------------------------------
# CLI


def test_cli_shard_merge_report_loop(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    for i in (0, 1):
        assert main(["campaign", "shard", "--index", str(i), "--of", "2",
                     "--quick", "--seeds", "1", "--in-process"]) == 0
    shard_dbs = [f"campaign.shard{i}-of-2.db" for i in (0, 1)]
    assert all((tmp_path / db).exists() for db in shard_dbs)

    assert main(["campaign", "merge", "--out", "merged.db"] + shard_dbs) == 0
    capsys.readouterr()

    assert main(["campaign", "--db", "merged.db", "--quick", "--seeds", "1",
                 "--in-process", "--report"]) == 0
    merged_report = capsys.readouterr().out

    assert main(["campaign", "--db", "single.db", "--quick", "--seeds", "1",
                 "--in-process"]) == 0
    capsys.readouterr()
    assert main(["campaign", "--db", "single.db", "--quick", "--seeds", "1",
                 "--in-process", "--report"]) == 0
    single_report = capsys.readouterr().out

    assert merged_report == single_report
    assert json.loads(merged_report)["cells"]  # non-empty, parseable


def test_cli_merge_rejections_exit_2(tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    for i in (0, 1):
        main(["campaign", "shard", "--index", str(i), "--of", "2",
              "--quick", "--seeds", "1", "--in-process"])
    capsys.readouterr()
    # overlapping shards
    assert main(["campaign", "merge", "--out", "m.db",
                 "campaign.shard0-of-2.db", "campaign.shard0-of-2.db"]) == 2
    assert "merge rejected" in capsys.readouterr().err
    # missing shard
    assert main(["campaign", "merge", "--out", "m.db",
                 "campaign.shard0-of-2.db"]) == 2
    assert "merge rejected" in capsys.readouterr().err


def test_cli_shard_requires_index_and_of(tmp_path, monkeypatch):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit):
        main(["campaign", "shard", "--quick", "--in-process"])
    with pytest.raises(SystemExit):
        main(["campaign", "--index", "0", "--quick", "--in-process"])
    with pytest.raises(SystemExit):
        main(["campaign", "shard", "--index", "2", "--of", "2",
              "--quick", "--in-process"])
