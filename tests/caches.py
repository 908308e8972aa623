"""The lru caches of the trisum package, for tests that need them cold."""

import importlib
import pkgutil

import trisum


def package_caches():
    # every lru_cache the package binds, found by its cache_clear, once each:
    # a cache bound under several names is named by its public one (theorem
    # 2's seam names for the mixed caches), else by its private one
    names = {}
    for info in pkgutil.iter_modules(trisum.__path__):
        for name, value in vars(importlib.import_module(f"trisum.{info.name}")).items():
            if callable(getattr(value, "cache_clear", None)):
                names.setdefault(value, set()).add(name)
    return {min(bound, key=lambda name: (name.startswith("_"), name)): cache for cache, bound in names.items()}


def clear_package_caches():
    for cache in package_caches().values():
        cache.cache_clear()
