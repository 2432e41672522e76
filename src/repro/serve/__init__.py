"""repro.serve — versioned rule snapshots, queries, and HTTP serving.

The serving layer answers ``targets / top-k / degree-band`` rule queries
without re-mining: a ``DARResult`` is compiled into an immutable columnar
:class:`~repro.serve.snapshot.RuleSnapshot`, queried through the unified
:class:`~repro.serve.query.RuleQuery` /
:class:`~repro.serve.query.QueryEngine` surface (LRU answer cache +
``repro_serve_*`` metrics), hot-swapped atomically by a
:class:`~repro.serve.publisher.SnapshotPublisher`, and exposed over HTTP
by :class:`~repro.serve.http.RuleServer`.

The module itself is callable — ``repro.serve(result)`` starts a server::

    import repro

    relation, _ = repro.make_planted_rule_relation(seed=7)
    result = repro.mine(relation)
    server = repro.serve(result, port=0)       # background thread
    print(server.url)                          # http://127.0.0.1:<port>
    ...                                        # GET /rules?targets=claims&top_k=5
    server.shutdown()

The CLI equivalent is ``repro serve --snapshot PATH --port N`` (see
``repro snapshot`` for building the snapshot file).
"""

from __future__ import annotations

import sys
import types
from typing import Any

from repro.serve.http import RuleServer
from repro.serve.publisher import SnapshotPublisher, StalenessPolicy
from repro.serve.query import QueryAnswer, QueryEngine, RuleQuery, apply_query
from repro.serve.snapshot import RuleSnapshot, compile_snapshot

__all__ = [
    "serve",
    "RuleQuery",
    "QueryAnswer",
    "QueryEngine",
    "apply_query",
    "RuleSnapshot",
    "compile_snapshot",
    "SnapshotPublisher",
    "StalenessPolicy",
    "RuleServer",
]


def serve(
    source: Any,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_size: int = 256,
    start: bool = True,
    staleness: Any = None,
) -> RuleServer:
    """Publish ``source`` and serve it over HTTP; the ``repro.serve(...)`` facade.

    ``source`` is anything :func:`~repro.serve.snapshot.compile_snapshot`
    accepts: a ``DARResult``, a :class:`~repro.serve.snapshot.RuleSnapshot`,
    or a path to a snapshot / streaming-miner checkpoint.  With
    ``start=True`` (default) the server runs on a daemon thread and the
    call returns immediately — use ``server.url`` to reach it and
    ``server.shutdown()`` to stop; with ``start=False`` the caller drives
    :meth:`~repro.serve.http.RuleServer.serve_forever` itself (the CLI's
    blocking mode).  ``port=0`` picks a free port.

    ``staleness`` (a :class:`~repro.serve.publisher.StalenessPolicy`)
    makes ``/healthz`` degrade ok → warn → crit as the snapshot ages.
    """
    publisher = SnapshotPublisher(
        source, cache_size=cache_size, staleness=staleness
    )
    server = RuleServer(publisher, host=host, port=port)
    if start:
        server.start()
    return server


class _CallableModule(types.ModuleType):
    """Module subclass making ``repro.serve(...)`` call :func:`serve`.

    ``import repro.serve`` binds the *module* as the ``serve`` attribute
    of ``repro``; swapping in this class keeps that attribute a normal
    module (submodules, ``__all__``, docs all intact) while also letting
    it be invoked directly as the facade function.
    """

    __call__ = staticmethod(serve)


sys.modules[__name__].__class__ = _CallableModule
