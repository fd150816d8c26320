"""Runtime plumbing: make the (uninstalled) package usable by Ray workers.

The package lives in a plain repo directory, not site-packages. Two things
must hold for its code to run on Ray workers:

- Workers must be able to IMPORT the package: many functions import a
  package module inside their body, and that import runs on the worker.
  Ray puts only the driver's working directory (and script directory) on
  the workers' path, so a driver started from elsewhere fails with
  ``ModuleNotFoundError: pcompress_ray``. ``register()`` therefore exports
  the repo root on ``PYTHONPATH`` before Ray starts: the raylet, and every
  worker it spawns, inherit it.
- Callables are shipped BY VALUE (``ray.cloudpickle.register_pickle_by_value``
  on the top package covers every submodule), so a worker runs the
  driver's code as loaded, not whatever its own import would find.

On a real cluster with the package installed via
``runtime_env={"py_modules": [...]}`` or an image, both are redundant.
"""

from __future__ import annotations

import os

_REGISTERED = False


def register() -> None:
    """Idempotently make the package importable by Ray workers and register
    it for pickle-by-value.

    Call before ``ray.init``: the repo root then goes on ``PYTHONPATH``,
    which the Ray processes started later inherit. When Ray is already up,
    one task checks that its workers can import the package, and a
    ``RuntimeError`` says how to fix it when they cannot.
    """
    global _REGISTERED
    if _REGISTERED:
        return
    import importlib.util

    import ray
    from ray import cloudpickle

    import pcompress_ray

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not ray.is_initialized():
        paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]
        if root not in paths:
            os.environ["PYTHONPATH"] = os.pathsep.join([root] + paths)
    elif ray.get(ray.remote(importlib.util.find_spec).remote(
            "pcompress_ray")) is None:
        raise RuntimeError(
            "Ray workers cannot import pcompress_ray: Ray was started before "
            "pcompress_ray.register_for_ray(), from a directory other than "
            f"{root}. Call register_for_ray() before ray.init(), or start the "
            f"driver with PYTHONPATH={root}.")
    cloudpickle.register_pickle_by_value(pcompress_ray)
    _REGISTERED = True
