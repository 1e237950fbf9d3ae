"""Workload definitions: the inputs each workload gives deltaops, and the work
one timed repetition does.

deltaops is an exact verifier, so a workload's inputs are degrees, k values,
routes and command lines rather than data sets.  The seed permutes the order
in which one repetition runs its operations (and, for `catalog`, the order of
the command's options); it never changes which operations run, so every seed
does the same work and must give the same outputs.
"""

from __future__ import annotations

import random

# operator: Delta'_{e_k} e_n for every k at this degree.  The set-up builds
# H-tilde up to OPERATOR_BUILD_N, one degree past what the timed part reads,
# so that set-up time measures the degree-6 filling enumeration.
OPERATOR_N = 5
OPERATOR_BUILD_N = 6

# paths: z-routes and the fall route at PATHS_N, the stack, dense and LLT
# routes (and the z-routes they are compared with) at PATHS_SMALL_N.
PATHS_N = 6
PATHS_SMALL_N = 5

# catalog: the quick profile reads Macdonald degrees 1..4.
CATALOG_BUILD_N = 4
CATALOG_OPTIONS = (("--profile", "quick"), ("--format", "structured"))

# The 23 checks of the catalog, named here rather than read from the
# program so that a check dropped from the catalog shows as missing.
CATALOG_CHECKS = (
    "bijections", "cat-comp", "cat-op", "cat-sym", "cat-touch", "cat4",
    "decorating", "delta-rise", "delta-valley", "eh", "eh-touch",
    "ek-identity", "k1", "llt-sym", "macdonald", "minimaj-equi", "omp",
    "qt-one", "schur-pos", "t-recip", "val-sym", "xy", "zero-special",
)

WORKLOADS = ("operator", "paths", "catalog")


def paths_tasks() -> list:
    """(form, n, k, route) for every output of one `paths` repetition."""
    tasks = []
    for k in range(PATHS_N):
        tasks += [("rise", PATHS_N, k, "z"), ("val", PATHS_N, k, "z"),
                  ("rise", PATHS_N, k, "fall")]
    for k in range(PATHS_SMALL_N):
        tasks += [("rise", PATHS_SMALL_N, k, "z"), ("val", PATHS_SMALL_N, k, "z"),
                  ("rise", PATHS_SMALL_N, k, "stack"), ("val", PATHS_SMALL_N, k, "stack"),
                  ("val", PATHS_SMALL_N, k, "dense"), ("rise", PATHS_SMALL_N, k, "llt")]
    return tasks


def plan(workload: str, seed: int) -> dict:
    """The generated inputs of one run; the same seed gives the same plan."""
    rng = random.Random(seed)
    if workload == "operator":
        ks = list(range(OPERATOR_N))
        rng.shuffle(ks)
        return {"n": OPERATOR_N, "build_n": OPERATOR_BUILD_N, "ks": ks}
    if workload == "paths":
        tasks = paths_tasks()
        rng.shuffle(tasks)
        return {"tasks": [list(t) for t in tasks]}
    if workload == "catalog":
        options = [list(o) for o in CATALOG_OPTIONS] + [["--cache-dir", None]]
        rng.shuffle(options)
        return {"build_n": CATALOG_BUILD_N, "options": options}
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, the_plan: dict) -> int:
    """Operations one repetition attempts (each is one checked output)."""
    if workload == "operator":
        return len(the_plan["ks"])
    if workload == "paths":
        return len(the_plan["tasks"])
    return 1


def catalog_argv(the_plan: dict, cache_dir: str | None) -> list:
    """The command's arguments in plan order; no cache directory when None."""
    argv = []
    for flag, value in the_plan["options"]:
        if flag == "--cache-dir":
            if cache_dir is None:
                continue
            value = cache_dir
        argv += [flag, value]
    return argv
