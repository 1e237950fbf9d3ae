"""Check catalog, report formatting, CLI behavior, determinism."""

import os
import subprocess
import sys

import pytest

from deltaops.checks import CHECKS, run_check, run_suite
from deltaops.cli import main
from deltaops.config import Config
from deltaops.macdonald import MacdonaldCache


def tiny_config(**overrides):
    base = dict(
        n_max_op=2, n_max_comb=3, sym_cap=3, omp_cap=3, osp_equi_cap=3,
        gamma_cap=3, xy_cap=4, eh_cap=3, lucas_cap=6, bij_cap=3,
    )
    base.update(overrides)
    return Config.quick(**base)


@pytest.fixture(scope="module")
def cache():
    return MacdonaldCache()


def test_every_check_passes_at_tiny_caps(cache):
    cfg = tiny_config()
    for name in CHECKS:
        report = run_check(name, cfg, cache)
        assert report.results, name
        bad = [r for r in report.results if not r.ok]
        assert not bad, (name, [r.line() for r in bad])


def test_unknown_check_raises(cache):
    with pytest.raises(KeyError):
        run_check("no-such-check", tiny_config(), cache)


def test_structured_report_is_deterministic(cache):
    cfg = tiny_config()
    r1 = run_suite(cfg, names=["cat4", "k1"], cache=cache)
    r2 = run_suite(cfg, names=["k1", "cat4"], cache=cache)
    assert r1.format_structured() == r2.format_structured()
    assert "status=pass" in r1.format_structured()


def test_warm_cache_reruns_are_byte_identical(tmp_path):
    d = tmp_path / "cache"
    cfg = tiny_config(cache_dir=str(d))
    first = run_suite(cfg, names=["ek-identity", "k1"],
                      cache=MacdonaldCache(str(d))).format_structured()
    files1 = {p.name: p.read_bytes() for p in d.iterdir()}
    second = run_suite(cfg, names=["ek-identity", "k1"],
                       cache=MacdonaldCache(str(d))).format_structured()
    files2 = {p.name: p.read_bytes() for p in d.iterdir()}
    assert first == second
    assert files1 == files2


def test_cache_regeneration_is_bit_exact(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    MacdonaldCache(str(a)).degree(3)
    MacdonaldCache(str(b)).degree(3)
    assert (a / "htilde_3.txt").read_bytes() == (b / "htilde_3.txt").read_bytes()


def test_cli_list_and_exit_codes(tmp_path, capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "delta-rise" in out and "conjecture" in out
    rc = main(["--check", "cat4", "--n-max", "2", "--cache-dir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["--check", "definitely-not-a-check"])
    assert rc == 2


def test_cli_rejects_vacuous_configs(tmp_path, capsys):
    # zero variables make both sides of every x-expansion vanish
    rc = main(["--check", "delta-rise", "--n-max", "3", "--vars", "0",
               "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert "PASS" not in capsys.readouterr().out
    # a negative --n-max would leave only the q-binomial sweep of schur-pos
    rc = main(["--n-max", "-1", "--format", "structured", "--cache-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError, match="lucas_cap"):
        tiny_config(lucas_cap=0).validate()


def test_cli_n_max_clamps_every_cap():
    from deltaops.cli import build_parser, make_config
    from deltaops.config import CAP_FIELDS

    cfg = make_config(build_parser().parse_args(["--profile", "full", "--n-max", "3"]))
    assert all(getattr(cfg, name) == 3 for name in CAP_FIELDS)


def test_cli_structured_format(tmp_path, capsys):
    rc = main(["--check", "ek-identity", "--n-max", "2",
               "--cache-dir", str(tmp_path), "--format", "structured"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("check=ek-identity")
    assert all("status=pass" in line for line in out.splitlines())


def test_cli_entrypoint_subprocess(tmp_path):
    env = dict(os.environ)
    env["DELTAOPS_CACHE_DIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "deltaops.cli", "--check", "qt-one", "--n-max", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_catalog_statements_cover_scope():
    # every catalog entry carries a one-line statement and a default status
    for name, (runner, status, statement) in CHECKS.items():
        assert status in ("theorem", "conjecture")
        assert statement
