"""Small shared helpers with no intra-package dependencies.

Actionable "unknown name" error text, and the :class:`Registry` every
named table (coding schemes, export targets, pipeline stages, presets,
datasets, architectures) is built on.  They all hand users the same
shape of message — the offending name, a closest-match suggestion when
one is plausible, and the full list of valid names — so a typo'd
scheme, stage or config field is a one-glance fix instead of a
documentation hunt.
"""

from __future__ import annotations

import difflib
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence)


def closest_match(name: str, candidates: Iterable[str]) -> str | None:
    """The most similar candidate to ``name``, or None when nothing is close."""
    matches = difflib.get_close_matches(name, list(candidates), n=1,
                                        cutoff=0.5)
    return matches[0] if matches else None


def did_you_mean(name: str, candidates: Iterable[str]) -> str:
    """`` did you mean 'x'?`` when a candidate is close, else ``""``."""
    match = closest_match(name, candidates)
    return f" did you mean {match!r}?" if match else ""


def unknown_name_message(kind: str, name: str, candidates: Sequence[str],
                         aliases: Optional[Mapping[str, str]] = None) -> str:
    """One-line error text for a name that is not in ``candidates``.

    ``aliases`` (alias -> canonical name) widens both the closest-match
    pool and the "available" listing, so a registry that resolves
    shorthand names ("latest", "ttfs") suggests those too instead of
    only the canonical spellings.
    """
    alias_map = dict(aliases or {})
    pool = list(candidates) + [a for a in alias_map if a not in candidates]
    listing = ", ".join(sorted(candidates))
    if alias_map:
        listing += "; aliases: " + ", ".join(
            f"{alias} -> {alias_map[alias]}" for alias in sorted(alias_map))
    return (f"unknown {kind} {name!r};{did_you_mean(name, pool)}"
            f" available: {listing}")


class Registry:
    """Named factories plus shorthand aliases, for one ``kind`` of thing.

    Entries register under a canonical name (``register`` also works as
    a decorator); ``alias`` adds a shorthand that must name a registered
    entry.  Every lookup resolves through :meth:`resolve`: a real entry
    wins over an alias of the same spelling, so aliases never shadow
    plug-ins, and an unknown name raises ``KeyError`` with the shared
    :func:`unknown_name_message` text.  Builtins register when their
    module is imported, which ``import repro`` does for every subpackage.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: Dict[str, Callable] = {}
        self._aliases: Dict[str, str] = {}

    def register(self, name: str, factory: Optional[Callable] = None):
        """Register ``factory`` under ``name`` (decorator when omitted)."""
        def _register(fn: Callable) -> Callable:
            self._factories[name] = fn
            return fn

        if factory is not None:
            return _register(factory)
        return _register

    def unregister(self, name: str) -> None:
        """Drop what ``name`` spells, in :meth:`resolve`'s order: the
        entry (and every alias of it) or else the alias ``name``."""
        if self._factories.pop(name, None) is None:
            self._aliases.pop(name, None)
            return
        for alias in [a for a, t in self._aliases.items() if t == name]:
            del self._aliases[alias]

    def alias(self, alias: str, target: str) -> None:
        """Make ``alias`` resolve to the registered entry ``target``."""
        if target not in self._factories:
            raise self._unknown(target)
        self._aliases[alias] = target

    def resolve(self, name: str) -> str:
        """Canonical name for ``name``, or ``KeyError`` with suggestions."""
        if name in self._factories:
            return name
        if name in self._aliases:
            return self._aliases[name]
        raise self._unknown(name)

    def get(self, name: str) -> Callable:
        """The factory registered under ``name`` (aliases resolve)."""
        return self._factories[self.resolve(name)]

    def create(self, name: str, /, *args, **kwargs):
        """Call the factory registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> List[str]:
        """Sorted canonical names of every entry."""
        return sorted(self._factories)

    def aliases(self) -> Dict[str, str]:
        """The alias -> canonical-name map (a copy)."""
        return dict(self._aliases)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def _unknown(self, name: str) -> KeyError:
        return KeyError(unknown_name_message(
            self.kind, name, self.names(), aliases=self._aliases))
