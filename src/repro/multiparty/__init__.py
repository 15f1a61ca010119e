"""Multi-site coordinator runtime: k-party protocols over a metered star.

The paper's protocols are stated for two parties (Alice holds ``A``, Bob
holds ``B``).  This package exposes the *coordinator model* standard in
distributed functional monitoring: the rows of ``A`` are sharded across k
sites arranged in a star around one coordinator that holds ``B``, every
message travels over a metered coordinator-site link, and the coordinator
combines k mergeable site summaries instead of two.

Since the engine unification the protocol bodies live in
:mod:`repro.engine`, written once against the star topology; the two-party
classes in :mod:`repro.core` run the same bodies with a single site.  This
package keeps the cluster-facing surface:

* :class:`repro.multiparty.estimator.ClusterEstimator` — the facade,
  sharing its query dispatch with
  :class:`repro.core.api.MatrixProductEstimator`.
* ``Network`` (from :mod:`repro.comm.network`), ``Site`` / ``Coordinator``
  (from :mod:`repro.engine.topology`) and the historical ``Multiparty*``
  names of the engine protocol classes, re-exported here.  The old
  ``repro.multiparty.protocols`` and ``repro.multiparty.site`` modules are
  gone; import from this package or from :mod:`repro.engine`.
"""

from repro.comm.network import Network
from repro.engine.base import ClusterCostReport, StarProtocol
from repro.engine.heavy_hitters import (
    StarBinaryHeavyHittersProtocol,
    StarHeavyHittersProtocol,
)
from repro.engine.l0_sampling import StarL0SamplingProtocol
from repro.engine.lp_norm import StarLpNormProtocol, star_lp_pp_estimate
from repro.engine.topology import Coordinator, Site
from repro.multiparty.estimator import ClusterEstimator

#: Historical names for the engine protocol classes.
CoordinatorProtocol = StarProtocol
MultipartyLpNormProtocol = StarLpNormProtocol
MultipartyL0SamplingProtocol = StarL0SamplingProtocol
MultipartyHeavyHittersProtocol = StarHeavyHittersProtocol
MultipartyBinaryHeavyHittersProtocol = StarBinaryHeavyHittersProtocol

__all__ = [
    "ClusterCostReport",
    "ClusterEstimator",
    "Coordinator",
    "CoordinatorProtocol",
    "MultipartyBinaryHeavyHittersProtocol",
    "MultipartyHeavyHittersProtocol",
    "MultipartyL0SamplingProtocol",
    "MultipartyLpNormProtocol",
    "Network",
    "Site",
    "star_lp_pp_estimate",
]
