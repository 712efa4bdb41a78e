"""The paper's named parameter sets.

Six regime models, one per phase-line regime of each game, and the bases
of the ``f`` / ``r_p`` root sweeps and basin grids that show the
strong-leader sign flip.  Every set has n = 5, b = 12, c = 1, tau = 1,
beta = 0.2; the bribery sets have h = 1, gamma = 0.6.
"""

from .games import BriberyParams, CoreParams


def _core(f: float, alpha: float, r_p: float) -> CoreParams:
    return CoreParams(n=5, b=12, c=1, tau=1, f=f, alpha=alpha, beta=0.2, r_p=r_p)


def _bribery(core: CoreParams, p: float, q: float) -> BriberyParams:
    return BriberyParams(**vars(core), h=1, gamma=0.6, p=p, q=q)


# institutional punishment: defection dominant, bistable, cooperation dominant
IPGG_WEAK_POOL = _core(f=2, alpha=0.5, r_p=1.4)
IPGG_BISTABLE = _core(f=3, alpha=0.5, r_p=2)
IPGG_RICH_POOL = _core(f=4.7, alpha=0.15, r_p=4)

# bribery game, same three regimes: defectors offer more bribes (q > p),
# cooperators offer more bribes (p > q), a strong leader in a rich pool
BG_DEFECTOR_BRIBES = _bribery(_core(f=1.5, alpha=0.6, r_p=1.4), p=0.3, q=0.8)
BG_COOP_BRIBES = _bribery(_core(f=2, alpha=0.6, r_p=4), p=0.6, q=0.5)
BG_STRONG_LEADER = _bribery(_core(f=4, alpha=0.15, r_p=4), p=0.3, q=0.8)

# the regime models under their figure labels
REGIMES = {
    "ipgg_weak_pool": IPGG_WEAK_POOL,
    "ipgg_bistable": IPGG_BISTABLE,
    "ipgg_rich_pool": IPGG_RICH_POOL,
    "bg_weak_pool": BG_DEFECTOR_BRIBES,
    "bg_bistable": BG_COOP_BRIBES,
    "bg_rich_pool": BG_STRONG_LEADER,
}

# bases of the root sweeps and basin grids; f and r_p get swept
IPGG_BASE = _core(f=3, alpha=0.5, r_p=1.4)
BG_COOP_BRIBES_BASE = _bribery(_core(f=2, alpha=0.6, r_p=2.5), p=0.6, q=0.5)  # p > q
BG_DEFECTOR_BRIBES_BASE = _bribery(_core(f=2, alpha=0.6, r_p=2.5), p=0.3, q=0.8)  # q > p
