"""The ``repro.multiparty`` compatibility surface after the shim removals.

The deprecated ``protocols`` module, the ``site`` alias and the ``network``
alias completed their scheduled removal: importing any of them must now
fail, pinned below so the import error is a deliberate contract rather than
an accident.  The package itself keeps the historical ``Multiparty*``
names, resolving to the engine implementations they alias.
"""

from __future__ import annotations

import sys

import pytest

from repro.engine.base import StarProtocol
from repro.engine.heavy_hitters import (
    StarBinaryHeavyHittersProtocol,
    StarHeavyHittersProtocol,
)
from repro.engine.l0_sampling import StarL0SamplingProtocol
from repro.engine.lp_norm import StarLpNormProtocol, star_lp_pp_estimate
from repro.engine.topology import Coordinator, Site


class TestPackageAliases:
    def test_aliases_resolve_to_engine_implementations(self):
        import repro.multiparty as pkg

        assert pkg.CoordinatorProtocol is StarProtocol
        assert pkg.MultipartyLpNormProtocol is StarLpNormProtocol
        assert pkg.MultipartyL0SamplingProtocol is StarL0SamplingProtocol
        assert pkg.MultipartyHeavyHittersProtocol is StarHeavyHittersProtocol
        assert (
            pkg.MultipartyBinaryHeavyHittersProtocol
            is StarBinaryHeavyHittersProtocol
        )
        assert pkg.star_lp_pp_estimate is star_lp_pp_estimate
        assert pkg.Site is Site
        assert pkg.Coordinator is Coordinator

    def test_every_advertised_name_resolves(self):
        import repro.multiparty as pkg

        for name in pkg.__all__:
            assert getattr(pkg, name) is not None, f"missing export {name}"


class TestProtocolsShimRemoved:
    """``repro.multiparty.protocols`` is gone; ``repro.engine`` holds the bodies."""

    def test_the_shim_module_is_gone(self):
        sys.modules.pop("repro.multiparty.protocols", None)
        with pytest.raises(ModuleNotFoundError):
            import repro.multiparty.protocols  # noqa: F401


class TestSiteAliasRemoved:
    """``repro.multiparty.site`` is gone; the endpoints live in the engine."""

    def test_the_alias_module_is_gone(self):
        sys.modules.pop("repro.multiparty.site", None)
        with pytest.raises(ModuleNotFoundError):
            import repro.multiparty.site  # noqa: F401


class TestNetworkAliasRemoved:
    """``repro.multiparty.network`` completed its scheduled removal.

    The alias was pinned while it lived; now its *absence* is pinned: the
    import must fail (no lingering module cache, no resurrected shim), and
    the canonical home keeps exporting everything the alias once did.
    """

    def test_the_alias_module_is_gone(self):
        sys.modules.pop("repro.multiparty.network", None)
        with pytest.raises(ModuleNotFoundError):
            import repro.multiparty.network  # noqa: F401

    def test_canonical_home_still_exports_everything(self):
        import repro.comm.network as canonical

        for name in ("Network", "UPSTREAM", "DOWNSTREAM"):
            assert getattr(canonical, name) is not None
