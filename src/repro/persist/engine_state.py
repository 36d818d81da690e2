"""The engine side of persistence: attach, capture and warm-start.

These functions read and write an :class:`~repro.core.engine.IGQ`'s state
on behalf of :class:`~repro.persist.restore.CachePersister`: the engine
calls :func:`attach_configured_persister` when it is built and :func:`adopt_answers`
when it attaches a dataset; the persister calls :func:`persist_state` and
:func:`persist_answer` at every flush boundary and
:func:`apply_persist_state` on a warm restart.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace

from ..core.config import ConfigError
from ..graphs.bitset import CandidateBitmap
from ..isomorphism.compiled import CompiledQuery

__all__ = [
    "adopt_answers",
    "apply_persist_state",
    "attach_configured_persister",
    "persist_answer",
    "persist_state",
]


def attach_configured_persister(engine, forced: str | None) -> None:
    """Attach (and possibly warm-start from) the configured persister.

    An engine with no ``persist`` section gets write-only persistence into
    a fresh private directory under ``forced`` — the path
    ``REPRO_FORCE_PERSIST_DIR`` names, the CI lever that runs the whole
    suite with the durability path exercised.
    """
    persist = engine.config.persist
    if not persist.enabled:
        os.makedirs(forced, exist_ok=True)
        persist = replace(
            persist,
            dir=tempfile.mkdtemp(prefix="engine-", dir=forced),
            fsync="never",
        )
    from .restore import attach_persistence

    engine.persister = attach_persistence(engine, persist)


def persist_state(engine) -> dict:
    """The engine's small mutable state, captured at a flush boundary.

    Everything the warm restart cannot rebuild from the journalled entries
    themselves: the global query counter, the id allocator, the
    per-entry §5.1 replacement statistics (the cache's columns ``(ids, H,
    R, C)``, by ascending entry id — cache order), the placement state,
    and the fingerprint of the id space the journalled answer masks
    index.  (The durable store stamps its format version on top.)
    """
    cache = engine.cache
    ids, _, hits, removed, costs = cache.columns.read()
    return {
        "mode": engine.mode,
        "shards": engine.num_shards,
        "query_counter": cache.query_counter,
        "next_id": cache.next_entry_id,
        "id_space": (
            engine._restored_space
            if engine._id_space is None
            else engine._id_space.fingerprint()
        ),
        "entry_stats": (ids.tolist(), hits.tolist(), removed.tolist(), costs.tolist()),
        **engine.placement.persist_state(),
    }


def persist_answer(engine, entry) -> int | frozenset:
    """An entry's answer set as the durable store journals it: its mask
    over the id space :func:`persist_state` names.  Before the engine
    attaches a dataset, a restored answer is journalled as it was read
    (a mask, or a format-2 frozenset)."""
    if engine._id_space is None:
        return entry.answers
    return entry.answers.mask


def apply_persist_state(engine, entries, state: dict, source: str = "") -> None:
    """Warm-start: restore the cache, the placement and the replicas.

    ``entries`` is the recovered live set — ``(entry, meta)`` pairs in
    ascending id order; ``state`` is the matching :func:`persist_state`
    capture (a format-1/2 state keys the §5.1 statistics by entry id
    instead); ``source`` names the directory for errors.  Each restored
    cache entry joins the replica its recorded ``entry_shard`` home names,
    so the component indexes end up exactly where the persisted engine
    had them; a format-3/4 entry carries no compiled payloads: its two
    forms share one flattening of its graph, and each probe table compiles
    its own in the one kernel call that writes the replica's rows.  The
    cache takes the live set in one kernel call too.  Restored answers
    become bitmaps when the engine attaches its dataset (now, if it
    already has one): see :func:`adopt_answers`.
    """
    engine._restored_space = state.get("id_space")
    engine._restored_from = source
    if engine._id_space is not None:
        _check_answer_space(engine)
    cache = engine.cache
    stats = state.get("entry_stats", {})
    if isinstance(stats, tuple):  # formats 3 and 4: columns
        ids, *columns = stats
        stats = dict(zip(ids, zip(*columns)))
    restored = []
    for entry, meta in entries:
        hits, removed, cost = stats.get(entry.entry_id, (0, 0, 0.0))
        # both forms over one flattening, compiled as the entry joins
        compiled = CompiledQuery(entry.graph)
        restored.append(
            dict(
                entry_id=entry.entry_id,
                graph=entry.graph,
                features=entry.features,
                answer=meta["answer"],
                added_at=meta["added_at"],
                tags=meta["tags"],
                hits=hits,
                removed=removed,
                alleviated_cost=cost,
                compiled_target=entry.compiled_target or compiled.compiled_target(),
                compiled_plan=entry.compiled_plan or compiled.compiled_plan(),
            )
        )
    cache.restore_many(restored)
    engine._answers_pending = bool(entries)
    if engine._id_space is not None:
        adopt_answers(engine)
    cache.query_counter = state.get("query_counter", 0)
    cache.reserve_ids(state.get("next_id", 0))
    engine.placement.restore(state, cache)
    engine.shard_runtime.restore(cache.entries(), engine.placement.entry_shard)


def _check_answer_space(engine) -> None:
    """Refuse restored answer masks over a dataset other than the
    attached one (they would silently answer for the wrong graphs)."""
    expected = engine._restored_space
    if expected is not None and expected != engine._id_space.fingerprint():
        raise ConfigError(
            f"persist.dir {engine._restored_from!r} journals answer sets over "
            f"another dataset (id space {expected}, the attached one is "
            f"{engine._id_space.fingerprint()}); attach the dataset it was "
            "written for, or point persist.dir at a fresh directory"
        )


def adopt_answers(engine) -> None:
    """Turn the restored answers into bitmaps over the attached id
    space: a mask as it is, a format-2 frozenset by its ids."""
    if not engine._answers_pending:
        return
    _check_answer_space(engine)
    space = engine._id_space
    for entry in engine.cache.entries():
        answers = entry.answers
        if answers.__class__ is int:
            entry.answers = CandidateBitmap(space, answers)
        elif answers.__class__ is frozenset:
            try:
                entry.answers = CandidateBitmap.from_ids(space, answers)
            except KeyError as missing:
                raise ConfigError(
                    f"persist.dir {engine._restored_from!r} holds answers naming "
                    f"graph {missing} the attached dataset does not have; attach "
                    "the dataset it was written for, or point persist.dir at a "
                    "fresh directory"
                ) from None
    engine._answers_pending = False
    engine._restored_space = None
