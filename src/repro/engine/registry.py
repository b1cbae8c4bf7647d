"""Coding-scheme registry: plug new codings in without copying the walk.

Every simulator stack registers a factory ``factory(snn, **options) ->
CodingScheme`` under a short name.  The builtin schemes register when
the modules that implement them are imported (``repro.snn.network``,
``repro.snn.rate``, ``repro.hw.tilesim``), which ``import repro`` does
before any lookup can run.

Adding a new coding scheme::

    from repro.engine import CodingScheme, register_scheme

    @register_scheme("burst")
    def _make_burst(snn, **kw):
        return BurstCodedNetwork(snn, **kw)

after which ``create_scheme("burst", snn)``, the CLI's ``repro simulate
--scheme burst`` and the :class:`~repro.engine.runner.PipelineRunner`
all pick it up.

:data:`SCHEMES` is a :class:`repro.util.Registry`, the same class behind
export targets, pipeline stages, presets, datasets and architectures;
the module-level functions are its bound methods.
"""

from __future__ import annotations

from ..util import Registry

#: Every coding scheme, by canonical name; aliases ("ttfs", "fp")
#: register next to the schemes they name.
SCHEMES = Registry("coding scheme")

register_scheme = SCHEMES.register
register_scheme_alias = SCHEMES.alias
resolve_scheme_name = SCHEMES.resolve
get_scheme = SCHEMES.get
create_scheme = SCHEMES.create
available_schemes = SCHEMES.names
scheme_aliases = SCHEMES.aliases
