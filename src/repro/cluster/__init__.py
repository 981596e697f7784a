"""repro.cluster: multi-process scale-out serving.

Escapes the single-interpreter ceiling of
:class:`~repro.serve.CinnamonServer` by running each serving shard as a
separate *worker process* (its own GIL, its own
:class:`~repro.runtime.session.CinnamonSession`) behind a
:class:`ClusterRouter` front-end that keeps the server's API:

>>> from repro.cluster import ClusterRouter
>>> with ClusterRouter(num_workers=4) as cluster:
...     handle = cluster.submit(InferenceRequest(program, params))
...     result = handle.result(timeout=30)

The pieces, each importable on its own:

* :mod:`~repro.cluster.protocol` — length-prefixed JSON+blob framing;
* :mod:`~repro.cluster.ring` — consistent-hash routing (cache affinity,
  ~1/N remap on membership change);
* :mod:`~repro.cluster.worker` — the ``python -m repro.cluster.worker``
  process;
* :mod:`~repro.cluster.merge` — folding per-worker metrics snapshots
  into one cluster view.

Admission is the serve layer's own: the router and
:class:`~repro.serve.CinnamonServer` share one submit path
(:class:`~repro.serve.lifecycle.ServingFrontend`) into one
:class:`~repro.serve.queue.AdmissionQueue`.  Workers share one on-disk
compile cache, safe for concurrent writers via
:mod:`repro.runtime.locking`.

Exports resolve lazily (PEP 562) so ``python -m repro.cluster.worker``
does not import the router (and its serve-layer dependency tree) into
every worker process.
"""

_LAZY_ATTRS = {
    "ClusterRouter": ("repro.cluster.router", "ClusterRouter"),
    "ClusterWorker": ("repro.cluster.worker", "ClusterWorker"),
    "HashRing": ("repro.cluster.ring", "HashRing"),
    "merge_histogram_values": ("repro.cluster.merge",
                               "merge_histogram_values"),
    "merge_snapshots": ("repro.cluster.merge", "merge_snapshots"),
    "merged_scalar": ("repro.cluster.merge", "merged_scalar"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.cluster' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


__all__ = sorted(_LAZY_ATTRS)
