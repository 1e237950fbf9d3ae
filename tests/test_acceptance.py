"""Acceptance suite: every exit criterion through the check catalog at full caps.

Each criterion names the catalog checks that verify it (CRITERIA, which
names every check of `CHECKS` exactly once).  Its test runs them with
`run_check` under `Config.full`: operator side to degree 6, path sweeps to
order 8, symmetry sweeps to order 7, coefficient identities to content size
6, equidistribution to content size 7, bijections to order 6, partial paths
to n + l = 5, two-column diagrams to order 10, the q-binomial sweep to 12.
Every check must give results, with no theorem failure and no conjecture
mismatch.  One Macdonald cache serves the whole module, and the catalog
memoizes the Delta images on it, so no criterion recomputes another's.

The catalog holds every assertion the criteria make:
- criterion 3's <H_mu, s_(m)> = 1 is the k = m - 1 hook of
  `validate_htilde_inner_products` (hook(m - 1, m) = (m,), e_0 = 1), and its
  e_2 identity is `validate_degree(2, ...)`, the `identity=e2` result;
- criterion 12's dinv' >= 0 is the `eh-touch` `part=dinvp-nonneg` result;
- criterion 13's LLT decomposition runs to n = 6 and the fall-decorated
  route to n = 7.
Criterion 15 (bit-identical cache files and reports) is not a catalog check:
its test builds the degree-4 cache twice and reruns a small suite on it.
The module is the long pole of the test suite (about ten minutes).
"""

import pytest

from deltaops.checks import CHECKS, run_check, run_suite
from deltaops.config import Config
from deltaops.macdonald import MacdonaldCache

# criterion: (test name suffix, catalog checks)
CRITERIA = {
    1: ("delta_conjecture_desk_scale", ("delta-rise", "delta-valley")),
    2: ("ek_identity", ("ek-identity",)),
    3: ("macdonald_battery", ("macdonald",)),
    4: ("t_recip", ("t-recip",)),
    5: ("schur_positivity", ("schur-pos",)),
    6: ("k1_theorem", ("k1",)),
    7: ("q_t_one", ("qt-one",)),
    8: ("zero_specializations", ("zero-special", "omp")),
    9: ("equidistribution", ("minimaj-equi",)),
    10: ("bijection_suite", ("bijections",)),
    11: ("catalan_suite", ("cat4", "cat-touch", "cat-comp", "cat-op", "cat-sym")),
    12: ("partial_paths", ("eh", "eh-touch")),
    13: ("symmetry", ("llt-sym", "val-sym", "decorating")),
    14: ("xy_classification", ("xy",)),
}


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return MacdonaldCache(str(tmp_path_factory.mktemp("htilde-cache")))


def _criterion_test(checks: tuple):
    def test(cache):
        cfg = Config.full(cache_dir=cache.directory)
        reports = {name: run_check(name, cfg, cache) for name in checks}
        assert not [name for name, rep in reports.items() if not rep.results]
        bad = [r.line() for rep in reports.values()
               for r in rep.theorem_failures() + rep.conjecture_mismatches()]
        assert not bad, "\n".join(bad)
    return test


# One named test per criterion, so that a run reports and selects criteria by number.
for _number, (_suffix, _checks) in CRITERIA.items():
    globals()[f"test_criterion_{_number:02d}_{_suffix}"] = _criterion_test(_checks)


def test_criterion_15_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    MacdonaldCache(str(d1)).degree(4)
    MacdonaldCache(str(d2)).degree(4)
    assert (d1 / "htilde_4.txt").read_bytes() == (d2 / "htilde_4.txt").read_bytes()
    cfg = Config.quick(n_max_op=2, n_max_comb=3, sym_cap=3, omp_cap=3,
                       osp_equi_cap=3, gamma_cap=3, xy_cap=4, eh_cap=3,
                       lucas_cap=6, bij_cap=3)
    r1 = run_suite(cfg, names=["k1", "cat4"], cache=MacdonaldCache(str(d1)))
    r2 = run_suite(cfg, names=["k1", "cat4"], cache=MacdonaldCache(str(d1)))
    assert r1.format_structured() == r2.format_structured()


def test_criteria_name_every_check_once():
    named = [name for _, checks in CRITERIA.values() for name in checks]
    assert sorted(named) == sorted(CHECKS)
