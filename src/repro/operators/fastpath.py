"""Tags for the joins' item handlers.

PJoin, NaryPJoin, XJoin and the symmetric hash join each build one
item handler at construction and install it as ``handle`` on the
instance, with the optional layers present at build bound in and the
absent ones left out.  :func:`mark` tags such a handler with the names
of the optional layers it carries, for three readers:

* the profiling ``--check`` gate, which must tell a join's own handler
  from a leaked profiler shadow (:func:`has_handler`);
* pickling, since closures cannot be pickled: :func:`strip_for_pickle`
  drops the handler and each join rebuilds it in ``__setstate__``;
* the benchmark's ``paper_pjoin`` gate, which requires the bare memory
  join of the paper — a handler carrying no optional layer
  (:func:`is_fastpath`).  That reader is why the module and that
  function keep their names.

The layer names are ``resilience`` (a fault policy other than the
join's default: ``strict`` for PJoin and NaryPJoin, ``trust`` for
XJoin and SHJ), ``governor``, ``skew``, ``relocation`` (XJoin with a
memory threshold) and ``window`` (WindowedPJoin's expiry).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


def mark(fn: Callable[..., Any], **layers: bool) -> Callable[..., Any]:
    """Tag *fn* as a join's item handler; *layers* flags those bound in."""
    fn.__repro_layers__ = tuple(  # type: ignore[attr-defined]
        name for name, bound in layers.items() if bound
    )
    return fn


def handler_layers(fn: Any) -> Optional[Tuple[str, ...]]:
    """The layers tagged on *fn*, or ``None`` if it is no item handler."""
    return getattr(fn, "__repro_layers__", None)


def is_fastpath(fn: Any) -> bool:
    """Is *fn* an item handler carrying no optional layer?"""
    return handler_layers(fn) == ()


def has_handler(op: Any) -> bool:
    """Does *op* carry a tagged ``handle`` on the instance?"""
    return handler_layers(vars(op).get("handle")) is not None


def strip_for_pickle(state: dict) -> dict:
    """Drop a tagged handler from a ``__dict__`` snapshot.

    The parallel sweep ships whole runs across processes; joins strip
    the installed ``handle`` in ``__getstate__`` and rebuild it in
    ``__setstate__``.
    """
    if handler_layers(state.get("handle")) is not None:
        state = dict(state)
        del state["handle"]
    return state
