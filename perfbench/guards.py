"""Cold/warm cache guards and the memory guard for the equivariance solve."""

from __future__ import annotations

from expected import HOM_SYSTEM_BUDGET


class GuardError(RuntimeError):
    """A benchmark precondition does not hold, so its numbers would mislead."""


def builders() -> list:
    """Every ``lru_cache`` builder defined in ``redhom.liealg`` and ``redhom.catalog``."""
    from redhom import catalog, liealg

    return [value for module in (liealg, catalog) for value in vars(module).values()
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__]


class CacheLedger:
    """Builder hit and miss counts that survive ``cache_clear``."""

    def __init__(self):
        self.cleared_hits = 0
        self.cleared_misses = 0

    def clear(self) -> None:
        """Clear every builder; raise unless each cache is then empty."""
        for builder in builders():
            info = builder.cache_info()
            self.cleared_hits += info.hits
            self.cleared_misses += info.misses
            builder.cache_clear()
            if builder.cache_info().currsize != 0:
                raise GuardError(f"{builder.__name__} still caches after cache_clear")

    def misses(self) -> int:
        return self.cleared_misses + sum(b.cache_info().misses for b in builders())

    def totals(self) -> dict:
        infos = [b.cache_info() for b in builders()]
        return {"hits": self.cleared_hits + sum(i.hits for i in infos),
                "misses": self.cleared_misses + sum(i.misses for i in infos)}


def system_bytes(space) -> int:
    """Computed size of the dense equivariance system: 8 dim k n^6 bytes."""
    return 8 * space.dim_k * space.dim_m ** 6


def check_hom_budget(space_id: str, space) -> None:
    """Refuse a ``hom_dimension`` call whose dense system exceeds the budget."""
    need = system_bytes(space)
    if need > HOM_SYSTEM_BUDGET:
        raise GuardError(f"homdim on {space_id} needs {need / 2**30:.1f} GiB for its "
                         f"system, over the {HOM_SYSTEM_BUDGET / 2**20:.0f} MiB budget")
