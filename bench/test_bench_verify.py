"""The benchmark's output checks accept right outputs and reject wrong ones."""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import verify as V  # noqa: E402
import workloads as W  # noqa: E402

from deltaops import MacdonaldCache, SymFunc, delta_prime, rise_gf, val_gf  # noqa: E402

N = 3


def _images() -> dict:
    cache = MacdonaldCache()
    out = {}
    for k in range(N):
        f = delta_prime(SymFunc.e(k), SymFunc.e(N), cache)
        out[k] = {lam: (dict(c.num.terms), dict(c.den.terms)) for lam, c in f.coeffs.items()}
    return out


def _rise() -> dict:
    return {k: dict(rise_gf(N, k, N).terms) for k in range(N)}


def _forms() -> dict:
    forms = {}
    for k in range(N):
        forms[("rise", N, k, "z")] = dict(rise_gf(N, k, N).terms)
        forms[("val", N, k, "z")] = dict(val_gf(N, k, N).terms)
        forms[("rise", N, k, "fall")] = dict(rise_gf(N, k, N, route="fall").terms)
        forms[("val", N, k, "dense")] = dict(val_gf(N, k, N, route="dense").terms)
    return forms


def _report() -> str:
    return "".join(f"check={name} n=1 status=pass\n" for name in W.CATALOG_CHECKS)


def test_operator_accepts_true_images():
    assert V.check_operator(_images(), _rise(), N) == []


def test_operator_rejects_qt_asymmetric_coefficient():
    images = _images()
    num, den = images[0][(1, 1, 1)]
    images[0][(1, 1, 1)] = ({**num, (1,): num.get((1,), 0) + 1}, den)
    errors = V.check_operator(images, _rise(), N)
    assert any("q and t are swapped" in e for e in errors)


def test_operator_rejects_non_polynomial_coefficient():
    images = _images()
    num, _ = images[1][(1, 1, 1)]
    images[1][(1, 1, 1)] = (num, {(): 1, (1,): -1})
    errors = V.check_operator(images, _rise(), N)
    assert any("not a polynomial" in e for e in errors)


def test_operator_rejects_image_that_differs_from_rise_form():
    rise = _rise()
    rise[2] = {e: 2 * c for e, c in rise[2].items()}
    errors = V.check_operator(_images(), rise, N)
    assert errors and all("differs from the rise form" in e for e in errors)


def test_qt1_count_matches_rise_and_valley_forms():
    for n in (1, 2, 3, 4):
        for k in range(n):
            for p in (rise_gf(n, k, n), val_gf(n, k, n)):
                assert sum(p.terms.values()) == V.qt1_count(n, k, n)


def test_paths_accepts_true_forms():
    assert V.check_paths(_forms()) == []


def test_paths_rejects_count_off_by_one():
    forms = _forms()
    p = forms[("val", N, 1, "z")]
    # A term fixed by the q,t swap, so that only the count is wrong.
    key = next(e for e in sorted(p) if V.swap_slots({e: 1}, 0, 1) == {e: 1})
    p[key] += 1
    errors = V.check_paths(forms)
    assert "val_gf(n=3, k=1, route=z): 30 at q = t = x = 1, Dyck-path count gives 29" in errors


def test_paths_rejects_x_asymmetric_rise_form():
    forms = _forms()
    p = forms[("rise", N, N - 1, "z")]
    key = max(p, key=lambda e: e[V.X0:])
    p[key] = p[key] + Fraction(1, 2)
    errors = V.check_paths(forms)
    assert any("not symmetric in x1..x3" in e for e in errors)


def test_paths_rejects_route_disagreement():
    forms = _forms()
    forms[("val", N, 2, "dense")] = {}
    errors = V.check_paths(forms)
    assert errors == ["val_gf(n=3, k=2, route=dense): differs from the z-route"]


def test_catalog_accepts_matching_report():
    report = _report()
    assert V.check_catalog(report, report, 0, W.CATALOG_CHECKS) == []


def test_catalog_rejects_one_changed_byte():
    report = _report()
    i = report.index("n=1") + 2
    changed = report[:i] + "2" + report[i + 1:]
    assert len(changed) == len(report)
    errors = V.check_catalog(changed, report, 0, W.CATALOG_CHECKS)
    assert errors == ["catalog report differs from the one made without a cache directory"]


def test_catalog_rejects_failure_missing_check_and_exit_code():
    report = _report().replace("check=xy n=1 status=pass", "check=xy n=1 status=fail")
    report = report.replace("check=eh n=1 status=pass\n", "")
    errors = V.check_catalog(report, report, 1, W.CATALOG_CHECKS)
    assert "catalog exited 1" in errors
    assert any("not passing" in e and "check=xy" in e for e in errors)
    assert "catalog checks with no result: eh" in errors


def test_benchmark_json_names_the_metrics_the_run_prints():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u) for n, u, _ in run.PER_LAYER] + run.TRACE_METRICS
