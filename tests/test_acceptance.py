"""Acceptance gate: thirteen numbered criteria, one pass/fail line each.

Each test pulls the matching rows from the named verification bundles (the
same code path `pretense verify <bundle>` runs), records a summary line for
the session report, then asserts the criterion at its stated tolerance.

Criteria 08 and 10 are where prime-only pretentiousness misses power
cancellation, and each growth claim is checked at the order the mathematics
gives (derivations in the docstrings of verify._squarefree and
verify._counterexample):
  * criterion 08: Σ_{n<=x} μ²(n)χ(n) has poles of its Dirichlet series on
    Re s = 1/4, so the running maximum max_{n<=x} |S(n)| is fitted and must
    grow like x^{1/4 +- 0.1} (measured ~0.22 and ~0.25 up to 1e7)
  * criterion 10: the twist of the real character mod 4 stays at finite
    beta-distance (increments per unit loglog x decay like (loglog x)^-1.97,
    need <= -1.5) while its sums grow like x^{~0.78} (need in [0.5, 0.8])
The negative controls at the end show that each corrected check rejects
functions it must reject.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import cli_env, record_acceptance


def _row(rows, name):
    for r in rows:
        if r.name == name:
            return r
    raise AssertionError(f"bundle row {name!r} missing")


def _detail(r):
    return r.detail


def test_criterion_01_quotient_reconvolution(bundle_results):
    rows, elapsed = bundle_results("thm1")
    r = _row(rows, "quotient-reconvolution")
    timely = elapsed < 10.0
    record_acceptance(
        1, "quotient-reconvolution", r.passed and timely,
        _detail(r) + f"; bundle wall time under the 10 s budget: {timely}",
    )
    assert r.passed, _detail(r)
    assert timely, f"thm1 bundle took {elapsed:.1f}s, budget 10s"


def test_criterion_02_determinant_route(bundle_results):
    rows, _ = bundle_results("thm3")
    r = _row(rows, "determinant-route")
    record_acceptance(2, "determinant-route", r.passed, _detail(r))
    assert r.passed, _detail(r)


def test_criterion_03_alternating_quotient(bundle_results):
    rows, _ = bundle_results("remark1")
    a = _row(rows, "h-powers-of-two")
    b = _row(rows, "square-series-divergence")
    ok = a.passed and b.passed
    record_acceptance(3, "alternating-quotient", ok,
                      _detail(a) + "; " + _detail(b))
    assert a.passed, _detail(a)
    assert b.passed, _detail(b)


def test_criterion_04_majorant_envelope(bundle_results):
    rows, _ = bundle_results("thm1")
    r = _row(rows, "majorant-envelope")
    record_acceptance(4, "majorant-envelope", r.passed, _detail(r))
    assert r.passed, _detail(r)


def test_criterion_05_degree_d_structure(bundle_results):
    rows, _ = bundle_results("thm4")
    names = ("determinant-vanishing", "member-recursion", "qr-roundtrip",
             "perturbed-witness")
    rs = [_row(rows, n) for n in names]
    ok = all(r.passed for r in rs)
    record_acceptance(5, "degree-d-structure", ok,
                      "; ".join(_detail(r) for r in rs))
    for r in rs:
        assert r.passed, _detail(r)


def test_criterion_06_dirichlet_inverse(bundle_results):
    rows, _ = bundle_results("thm1")
    r = _row(rows, "dirichlet-inverse")
    record_acceptance(6, "dirichlet-inverse", r.passed, _detail(r))
    assert r.passed, _detail(r)


def test_criterion_07_character_cancellation(bundle_results):
    rows, _ = bundle_results("thm3")
    r = _row(rows, "character-cancellation")
    record_acceptance(7, "character-cancellation", r.passed, _detail(r))
    assert r.passed, _detail(r)


def test_criterion_08_squarefree_restriction(bundle_results):
    rows, _ = bundle_results("squarefree")
    g4 = _row(rows, "restricted-growth-mod-4")
    g3 = _row(rows, "restricted-growth-mod-3")
    loc = _row(rows, "local-quotient-exact")
    ok = g4.passed and g3.passed and loc.passed
    record_acceptance(8, "squarefree-restriction", ok,
                      "; ".join(_detail(r) for r in (g4, g3, loc)))
    assert loc.passed, _detail(loc)
    assert g4.passed, _detail(g4)
    assert g3.passed, _detail(g3)


def test_criterion_09_sparse_dyadic_flood(bundle_results):
    rows, _ = bundle_results("counterexample")
    r = _row(rows, "sparse-dyadic-flood")
    record_acceptance(9, "sparse-dyadic-flood", r.passed, _detail(r))
    assert r.passed, _detail(r)


def test_criterion_10_optimality_twist(bundle_results):
    rows, _ = bundle_results("counterexample")
    a = _row(rows, "twist-distance-plateau")
    b = _row(rows, "phase-sum-growth")
    c = _row(rows, "twisted-sum-growth")
    ok = a.passed and b.passed and c.passed
    record_acceptance(10, "optimality-twist", ok,
                      "; ".join(_detail(r) for r in (a, b, c)))
    assert b.passed, _detail(b)
    assert a.passed, _detail(a)
    assert c.passed, _detail(c)


def test_criterion_11_normalized_roundtrip(bundle_results):
    rows, _ = bundle_results("thm2")
    a = _row(rows, "inversion-roundtrip")
    b = _row(rows, "mean-square")
    ok = a.passed and b.passed
    record_acceptance(11, "normalized-roundtrip", ok,
                      _detail(a) + "; " + _detail(b))
    assert a.passed, _detail(a)
    assert b.passed, _detail(b)


def test_criterion_12_dirichlet_series(bundle_results):
    rows, _ = bundle_results("thm2")
    r = _row(rows, "dirichlet-series")
    record_acceptance(12, "dirichlet-series", r.passed, _detail(r))
    assert r.passed, _detail(r)


def test_criterion_13_thread_count_determinism(tmp_path):
    def run(threads, sub):
        return subprocess.run(
            [sys.executable, "-m", "pretense.cli", "verify", "thm1",
             "--seed", "1729", "--threads", str(threads),
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True, check=True, env=cli_env(),
        )

    r1 = run(1, "a")
    r2 = run(3, "b")
    art1 = (tmp_path / "a" / "thm1.json").read_bytes()
    art2 = (tmp_path / "b" / "thm1.json").read_bytes()
    same = r1.stdout == r2.stdout and art1 == art2
    record_acceptance(
        13, "thread-count-determinism", same,
        "verify thm1 rerun with --threads 1 vs 3: stdout and JSON artifact "
        "byte-identical" if same else "outputs differ between thread counts",
    )
    assert same


# sha256 of each `pretense verify B` stdout at seed 1729: its rows and the
# summary line.  Any change to a printed figure, bit or word moves a pin.
_VERIFY_STDOUT_SHA256 = {
    "counterexample": "32cc0d4748a05b2d4654b45d9246a5ef9cca316f861bf5672b2e565a2db23539",
    "remark1": "a76a55a83decdf3efc4399b2c3fd88e9c74352b974b94e265cfe556abc08f532",
    "squarefree": "daf9cb55bfe555fe7b3d3915bf8862148c7626d5da26e995ba39e55ad1f5b1c0",
    "thm1": "1c582bb49635094ad96e7e09fc4efe6c100e4759a510eb66726f14bc4a20668c",
    "thm2": "035d273ed6d5cc94ebde86c3d047585498187f1c27d4bb73f73f1bcfaaaf21dc",
    "thm3": "655a5267237f1e874c21d47a219243c455be740ee812f1ad88702764b07fa331",
    "thm4": "a43d88688013ce5259d8fd0a5845682a0c8ec8a3369da8f504bc519623f2814b",
}


@pytest.mark.parametrize("bundle", sorted(_VERIFY_STDOUT_SHA256))
def test_verify_stdout_bytes_are_pinned(bundle, bundle_results):
    # the rows the criteria above read, printed as `pretense verify` prints them
    rows, _ = bundle_results(bundle)
    n_pass = sum(r.passed for r in rows)
    text = "".join(r.row() + "\n" for r in rows)
    text += f"{bundle}: {n_pass}/{len(rows)} checks passed\n"
    assert hashlib.sha256(text.encode()).hexdigest() == _VERIFY_STDOUT_SHA256[bundle]


def test_partial_sum_modes_bitwise_identical(sieve_1e6):
    # the keywords bench/workloads.py passes, which the library ignores,
    # change no bit of a sum or a distance report
    from pretense.constructions import dirichlet_character, standard_spec
    from pretense.core import (
        BLOCK_PARALLEL,
        SEQUENTIAL,
        evaluate,
        geometric_checkpoints,
        json_text,
        partial_sums,
    )
    from pretense.metrics import distance_classic

    t = evaluate(standard_spec("liouville"), sieve_1e6)
    grid = geometric_checkpoints(10, 10**6)
    base = partial_sums(t, grid).sums.tobytes()
    for mode in (BLOCK_PARALLEL, SEQUENTIAL):
        got = partial_sums(t, grid, mode=mode, threads=2)
        assert got.sums.tobytes() == base, mode
    f, g = dirichlet_character(4, 1), standard_spec("moebius")
    want = json_text(distance_classic(f, g, 10**6, sieve=sieve_1e6))
    assert json_text(distance_classic(f, g, 10**6, sieve=sieve_1e6, threads=2)) == want


# ---------------------------------------------------------------------------
# negative controls for the growth checks of criteria 08 and 10, at 1e6

def test_squarefree_band_rejects_controls(sieve_1e6):
    from pretense.constructions import (
        dirichlet_character,
        squarefree_restrict,
        standard_spec,
    )
    from pretense.core import evaluate, geometric_checkpoints
    from pretense.verify import squarefree_growth_row

    grid = geometric_checkpoints(10**3, 10**6)

    def row(spec):
        return squarefree_growth_row("control", evaluate(spec, sieve_1e6), grid)

    # bounded character sums (exponent 0) and Liouville (about 1/2)
    assert not row(dirichlet_character(4, 1)).passed
    assert not row(standard_spec("liouville")).passed
    for q in (4, 3):
        r = row(squarefree_restrict(dirichlet_character(q, 1)))
        assert r.passed, r.detail


def test_twist_decay_rejects_divergent_series(sieve_1e6):
    from pretense.constructions import (
        dirichlet_character,
        optimality_twist,
        phase_sum_partials,
        standard_spec,
    )
    from pretense.core import geometric_checkpoints
    from pretense.metrics import distance_beta
    from pretense.verify import twist_distance_row

    grid = geometric_checkpoints(10**3, 10**6)
    chi4 = dirichlet_character(4, 1)
    g = optimality_twist(chi4, beta=0.5, diagnostics_cutoff=10**6, sieve=sieve_1e6)
    rep = distance_beta(chi4, g, 0.5, 10**6, checkpoints=grid, sieve=sieve_1e6)
    r = twist_distance_row(rep.cutoffs, rep.partials)
    assert r.passed, r.detail
    # Σ 1/(p loglog p) diverges: rate exponent about -1
    pp = phase_sum_partials(chi4, tau=1.0, cutoff=10**6, checkpoints=grid,
                            sieve=sieve_1e6)
    assert not twist_distance_row(pp.checkpoints, pp.sums.imag).passed
    far = distance_beta(standard_spec("one"), standard_spec("liouville"), 0.5,
                        10**6, checkpoints=grid, sieve=sieve_1e6)
    assert not twist_distance_row(far.cutoffs, far.partials).passed


def test_twisted_growth_band_rejects_base_without_cancellation(sieve_1e6):
    from pretense.asymptotics import growth_fit
    from pretense.constructions import (
        dirichlet_character,
        optimality_twist,
        standard_spec,
    )
    from pretense.core import evaluate, geometric_checkpoints, partial_sums
    from pretense.verify import twisted_growth_row

    grid = geometric_checkpoints(10**4, 10**6)

    def row(spec):
        fit = growth_fit(partial_sums(evaluate(spec, sieve_1e6), grid))
        return twisted_growth_row(fit, grid)

    def twist(base):
        return optimality_twist(base, beta=0.5, diagnostics_cutoff=10**6,
                                sieve=sieve_1e6)

    chi4 = dirichlet_character(4, 1)
    r = row(twist(chi4))
    assert r.passed, r.detail
    # the untwisted character cancels (exponent 0); the twist of the all-ones
    # function keeps a mean value (exponent about 1)
    assert not row(chi4).passed
    assert not row(twist(standard_spec("one"))).passed
