"""CLI (`python -m repro`) tests — in-process via main(argv)."""

import numpy as np
import pytest

from repro.__main__ import build_parser, main
from repro.sparse import csr_random, read_matrix_market, write_matrix_market


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_info(capsys):
    rc, out = run(["info"], capsys)
    assert rc == 0
    assert "MSA-1P" in out and "Inner-1P" in out
    assert "plus_pair" in out


def test_suite_listing(capsys):
    rc, out = run(["suite"], capsys)
    assert rc == 0
    assert "rmat-s8-e4" in out and "grid-24" in out


def test_tc_on_generated(capsys):
    rc, out = run(["tc", "--rmat", "7", "--seed", "3", "-a", "msa"], capsys)
    assert rc == 0
    assert "triangles:" in out


def test_tc_on_mtx_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    g = csr_random(60, 60, density=0.1, rng=rng)
    p = tmp_path / "g.mtx"
    write_matrix_market(g, p)
    rc, out = run(["tc", str(p)], capsys)
    assert rc == 0
    assert "triangles:" in out


def test_ktruss_with_output(tmp_path, capsys):
    out_path = tmp_path / "truss.mtx"
    rc, out = run(["ktruss", "--rmat", "7", "--k", "4", "-o", str(out_path)],
                  capsys)
    assert rc == 0
    assert out_path.exists()
    truss = read_matrix_market(out_path)
    assert truss.shape == (128, 128)


def test_delta_reports_dirty_fraction_and_invalidations(capsys):
    rc, out = run(["delta", "--rmat", "7", "--k", "4"], capsys)
    assert rc == 0
    assert "bit-identical: yes" in out
    assert "mean dirty fraction" in out and "results invalidated" in out


def test_bc(capsys):
    rc, out = run(["bc", "--er", "80", "--batch", "8", "--top", "2"], capsys)
    assert rc == 0
    assert "betweenness centrality" in out
    assert out.count("vertex") == 2


def test_spgemm_files(tmp_path, capsys):
    rng = np.random.default_rng(1)
    A = csr_random(20, 25, density=0.2, rng=rng)
    B = csr_random(25, 30, density=0.2, rng=rng)
    M = csr_random(20, 30, density=0.3, rng=rng)
    pa, pb, pm = tmp_path / "a.mtx", tmp_path / "b.mtx", tmp_path / "m.mtx"
    po = tmp_path / "c.mtx"
    write_matrix_market(A, pa)
    write_matrix_market(B, pb)
    write_matrix_market(M, pm)
    rc, out = run(["spgemm", str(pa), str(pb), "--mask", str(pm),
                   "-a", "hash", "-o", str(po)], capsys)
    assert rc == 0
    C = read_matrix_market(po)
    from repro import Mask, masked_spgemm

    want = masked_spgemm(A, B, Mask.from_matrix(M), algorithm="msa")
    assert C.allclose_values(want)


def test_missing_input_errors(capsys):
    with pytest.raises(SystemExit):
        main(["tc"])  # no path, no generator


def test_parser_subcommands_exist():
    p = build_parser()
    for cmd in ("tc", "ktruss", "bc", "spgemm", "serve", "suite", "info"):
        assert cmd in p.format_help()
    with pytest.raises(SystemExit):
        p.parse_args(["batch", "workload.json"])


def test_serve_workload(tmp_path, capsys):
    """`python -m repro serve workload.json` on a tiny generated workload."""
    import json

    wl = {
        "matrices": {
            "G": {"generator": "er", "n": 50, "degree": 5, "seed": 0,
                  "prep": "pattern"},
        },
        "requests": [
            {"a": "G", "b": "G", "mask": "G", "algorithm": "msa",
             "semiring": "plus_pair", "phases": 2, "repeat": 3, "tag": "tc"},
        ],
    }
    p = tmp_path / "workload.json"
    p.write_text(json.dumps(wl))
    rc, out = run(["serve", str(p)], capsys)
    assert rc == 0
    # 3 identical requests: the first runs alone and computes; the two sent
    # after it completes are served from the result cache, or one coalesces
    # onto the other while it is in flight
    import re

    tiers = re.search(r"cache tiers: (\d+) coalesced, (\d+) result hits, "
                      r"(\d+) computed", out)
    assert tiers is not None, out
    coalesced, result_hits, computed = map(int, tiers.groups())
    assert computed == 1 and result_hits >= 1
    assert coalesced + result_hits == 2
    assert "computed requests:" in out and "result requests:" in out
    assert sum(1 for line in out.splitlines()
               if line.strip().startswith("tc")) == 3


def test_serve_smoke(capsys):
    """`python -m repro serve --smoke` replays the built-in workload and
    exits 0 when every request succeeded (the serving contract itself is
    checked by test_serve_gate.py)."""
    rc, out = run(["serve", "--smoke"], capsys)
    assert rc == 0
    assert "cache tiers:" in out and "1 computed" in out
    assert "kernel tiers:" in out


def test_serve_rejects_removed_chaos_flag(capsys):
    """Faults come from $REPRO_FAULTS, which every default Engine reads;
    `--chaos` is an argparse usage error on serve and bundle."""
    for cmd in ("serve", "bundle"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--smoke", "--chaos"])
        assert exc.value.code == 2
    assert "unrecognized arguments: --chaos" in capsys.readouterr().err


def test_serve_rejects_removed_plans_flag(tmp_path, capsys):
    """Plans are not persisted across restarts, so `serve --plans` is an
    argparse usage error rather than a silently ignored option."""
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--smoke", "--plans", str(tmp_path / "p.npz")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --plans" in err
    assert not (tmp_path / "p.npz").exists()


def test_serve_partial_failure_reports_good_responses(tmp_path, capsys):
    """A failing request must not discard its stream-mates' responses: the
    CLI reports the failure and the good responses, and exits nonzero."""
    import json

    wl = {
        "matrices": {
            "G": {"generator": "er", "n": 50, "degree": 5, "seed": 0,
                  "prep": "pattern"},
            "R": {"random": {"m": 40, "k": 40, "density": 0.1, "seed": 1}},
        },
        "requests": [
            {"a": "G", "b": "G", "mask": "G", "phases": 2, "repeat": 3,
             "tag": "ok"},
            {"a": "G", "b": "R", "phases": 2, "tag": "boom"},  # 50x50 · 40x40
        ],
    }
    p = tmp_path / "workload.json"
    p.write_text(json.dumps(wl))
    rc, out = run(["serve", str(p)], capsys)
    assert rc == 1
    assert "FAILED request 'boom'" in out and "ShapeError" in out
    assert out.count("\n ok") == 3  # the good responses still reported


def test_serve_missing_workload_errors(capsys):
    with pytest.raises(SystemExit, match="workload"):
        main(["serve"])
    with pytest.raises(SystemExit, match="not found"):
        main(["serve", "does-not-exist.json"])


def test_serve_malformed_spec_contents_clean_error(tmp_path):
    import json

    p = tmp_path / "workload.json"
    p.write_text(json.dumps({
        "matrices": {"G": {"generator": "er", "n": 30, "degre": 4}},
        "requests": [{"a": "G", "b": "G"}]}))
    with pytest.raises(SystemExit, match="bad workload spec.*degre"):
        main(["serve", str(p)])
    p.write_text(json.dumps({
        "matrices": {"G": {"generator": "er", "n": 30, "degree": 4}},
        "requests": [{"a": "G", "b": "G", "bogus": 1}]}))
    with pytest.raises(SystemExit, match="bad workload spec.*bogus"):
        main(["serve", str(p)])


def test_serve_rejects_removed_plan_free_field(tmp_path):
    import json

    p = tmp_path / "workload.json"
    p.write_text(json.dumps({
        "matrices": {"G": {"generator": "er", "n": 30, "degree": 4}},
        "requests": [{"a": "G", "b": "G", "mask": "G", "plan_free": True}]}))
    with pytest.raises(SystemExit, match="bad workload spec.*plan_free"):
        main(["serve", str(p)])


def test_serve_workload_two_workers(tmp_path, capsys):
    import json

    wl = {
        "matrices": {
            "A": {"random": {"m": 40, "k": 40, "density": 0.1, "seed": 1}},
            "M": {"random": {"m": 40, "k": 40, "density": 0.2, "seed": 2}},
        },
        "requests": [
            {"a": "A", "b": "A", "mask": "M", "phases": 2, "repeat": 4},
        ],
    }
    p = tmp_path / "workload.json"
    p.write_text(json.dumps(wl))
    rc, out = run(["serve", str(p), "--workers", "2"], capsys)
    assert rc == 0
    assert "4 requests" in out
