"""One certificate per monad: exactlin.certify and the pipelines that read it.

certify checks the composite and takes both onto_everywhere proofs once;
tables, pencils and scans read its verdicts instead of proving them again.
These tests count the proofs each pipeline takes, hold the one-product
composite check to the coefficient-by-coefficient one, and gate the time
of one far twist.
"""

import random
import sys
import time

import pytest

from monadlab import (
    GF,
    QQ,
    Certificate,
    DenseMatrix,
    Line,
    MonadLabError,
    SpecialMonad,
    certify,
    classify,
    example_monad,
    forms_matrix,
    jumping_scan,
    random_monad,
    restrict,
    to_prime_field,
    trivial_monad,
    twist_cohomology,
)
from monadlab import exactlin
from monadlab.exactlin import LinearFormMatrix, compose_check
from monadlab.lines_scan import sample_line
from monadlab.pencil import dual_pencil, line_status, splitting_type

from oracles import reference_compose_check


def _count(monkeypatch, name):
    """Count the calls of exactlin.name, at every binding in monadlab."""
    fn = getattr(exactlin, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("monadlab") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_certify_reads_both_proofs_and_refuses_a_non_composite():
    M = example_monad("locally-free")
    cert = certify(M.alpha, M.beta)
    assert cert == Certificate(True, True) and cert.clean
    tf = example_monad("torsion-free")
    cert = certify(tf.alpha, tf.beta)
    assert (cert.left, cert.right, cert.clean) == (False, True, False)
    assert cert.dual() == Certificate(True, False)
    bad = to_prime_field(random_monad(2, 6, 2, seed=3), 7)
    assert certify(bad.alpha, bad.beta).right is False
    beta = forms_matrix(QQ, 4, [["x", "y", "z", "w"]])
    alpha = forms_matrix(QQ, 4, [["y"], ["x"], ["0"], ["0"]])
    with pytest.raises(MonadLabError, match="composite does not vanish; not a monad"):
        certify(alpha, beta)


def test_a_non_composite_pencil_or_scan_is_refused():
    lf = example_monad("locally-free")
    beta = forms_matrix(QQ, 4, [["-y", "x", "-w", "x"]])
    M = SpecialMonad(3, lf.alpha, beta)
    line = Line.from_points(QQ, [1, 0, 0, 0], [0, 0, 1, 0])
    with pytest.raises(MonadLabError, match="^composite does not vanish; not a monad$"):
        restrict(M, line)
    cls = classify(lf)
    with pytest.raises(MonadLabError, match="^composite does not vanish; not a monad$"):
        jumping_scan(M, 101, 10, classification=cls)


def _bumped(L, t, i, j):
    """L with coefficient (t, i, j) raised by one."""
    coeffs = [c.copy_data() for c in L.coeffs]
    coeffs[t][i][j] += 1
    return LinearFormMatrix(L.field, L.nrows, L.ncols, L.nvars,
                            [DenseMatrix(L.field, L.nrows, L.ncols, L.field.reduce(c))
                             for c in coeffs])


@pytest.mark.parametrize("fname", ["Q", "Fp:7", "Fp:101"])
def test_compose_check_is_the_coefficient_check(fname):
    # monads on P2 and P3, their pencils on lines, and empty maps: the one
    # product must agree with the check of every B_s A_t + B_t A_s, before
    # and after one coefficient of either map is raised
    field = QQ if fname == "Q" else GF(int(fname[3:]))
    rng = random.Random(fname)
    complexes = [(trivial_monad(2).alpha, trivial_monad(2).beta)]
    for seed, ambient in ((0, 3), (1, 3), (0, 2)):
        M = random_monad(1, 4, 1, seed=seed, field=field, ambient_n=ambient)
        pc = restrict(M, sample_line(seed, 0, field, ambient))
        complexes += [(M.alpha, M.beta), (pc.A, pc.B)]
    for A, B in complexes:
        assert compose_check(B, A) and reference_compose_check(B, A)
        for L in (A, B):
            if not (L.nrows and L.ncols):
                continue
            for _ in range(4):
                t, i, j = (rng.randrange(n) for n in (L.nvars, L.nrows, L.ncols))
                A2, B2 = (_bumped(A, t, i, j), B) if L is A else (A, _bumped(B, t, i, j))
                assert compose_check(B2, A2) == reference_compose_check(B2, A2)


def test_a_scan_proves_its_monad_once(monkeypatch):
    M = random_monad(2, 8, 2, seed=1)
    proofs = _count(monkeypatch, "onto_everywhere")
    composites = _count(monkeypatch, "compose_check")
    rep = jumping_scan(M, 101, 2000)
    assert rep.jumping > 10 and rep.degenerate == 0
    # classify takes one proof, the scan's certificate two, and no jumping
    # line proves anything again
    assert len(proofs) <= 3
    assert len(composites) == 1


def test_classify_of_a_locally_free_sheaf_takes_one_proof(monkeypatch):
    M = random_monad(2, 6, 2, seed=0)
    proofs = _count(monkeypatch, "onto_everywhere")
    cls = classify(M)
    assert cls.level == "locally_free" and cls.confidence == "exact"
    assert len(proofs) == 1


def test_pencils_read_their_certificate(monkeypatch):
    M = random_monad(2, 6, 2, seed=0)
    cert = certify(M.alpha, M.beta)
    line = Line.from_points(QQ, [1, 2, 0, -1], [0, 1, 3, 1])
    proofs = _count(monkeypatch, "onto_everywhere")
    composites = _count(monkeypatch, "compose_check")
    pc = restrict(M, line, cert)
    assert pc.certificate is cert
    dual = dual_pencil(pc)
    assert dual.certificate == cert.dual()
    assert line_status(pc).clean and line_status(dual).clean
    splitting_type(pc)
    assert proofs == [] and composites == []
    # a certificate that is not clean is not handed on
    tf = example_monad("torsion-free")
    tf_cert = certify(tf.alpha, tf.beta)
    pc = restrict(tf, Line.from_points(QQ, [1, 0, 0, 0], [0, 1, 0, 0]), tf_cert)
    assert pc.certificate is not tf_cert and pc.certificate.clean


def test_a_far_twist_is_a_table_column():
    M = random_monad(1, 5, 1, seed=2)
    for k, want in ((7, (351, 0, 0, 0)), (-12, (0, 0, 0, 485))):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            got = twist_cohomology(M, k)
            best = min(best, time.perf_counter() - start)
            assert got == want
        assert best < 0.010, f"k = {k}: {best * 1000:.1f} ms"


def test_the_public_api_keeps_rank_and_kernel_basis():
    from monadlab import Certificate, certify, kernel_basis, rank
    assert (certify, Certificate) == (exactlin.certify, exactlin.Certificate)
    m = DenseMatrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == m.rank() == 2
    k = kernel_basis(m)
    assert k == m.right_kernel() and k.ncols == 1
    assert m.matmul(k).is_zero()
    assert rank(DenseMatrix.zeros(GF(5), 2, 3)) == 0
    assert kernel_basis(DenseMatrix.identity(GF(5), 3)).ncols == 0


def test_stability_certifies_the_monad_once(monkeypatch):
    from monadlab import pointwise, stability_report
    from test_cohomology import _reflexive_rank3
    certs = _count(monkeypatch, "certify")
    rep = stability_report(_reflexive_rank3())
    # h0 and h0(dual) are columns 0 and -4 of one certificate
    assert (rep.stable, rep.h0, rep.h0_dual) == ("yes", 0, 0)
    assert len(certs) == 1
    # a locally-free sheaf is not classified: the certificate says so
    def no_classify(L):
        raise AssertionError("classified")
    monkeypatch.setattr(pointwise, "degeneracy_dim", no_classify)
    rep = stability_report(random_monad(2, 6, 2, seed=0))
    assert (rep.semistable, rep.stable) == ("yes", "yes") and len(certs) == 2


def test_a_scan_with_a_bad_reduction_checks_the_composite_once(monkeypatch):
    # the right map drops rank everywhere mod 7, so every line is restricted
    bad7 = to_prime_field(random_monad(2, 6, 2, seed=3), 7)
    composites = _count(monkeypatch, "compose_check")
    rep = jumping_scan(bad7, 7, 300)
    assert rep.degenerate == 300
    assert len(composites) == 1


def test_a_scan_takes_the_alpha_proof_once(monkeypatch):
    # eliminations are counted, not calls: a proof read from the scan's
    # _proofs() scope is a call that eliminates nothing
    from monadlab import uniformity_evidence
    lf = example_monad("locally-free")
    proofs = _count(monkeypatch, "_rank_proof")
    uniformity_evidence(lf, 5)
    assert len(proofs) == 2
    jumping_scan(to_prime_field(lf, 101), 101, 20)
    assert len(proofs) == 4
    # over Q the check proves lf, and the certificate its reduction mod 101
    jumping_scan(lf, 101, 20)
    assert len(proofs) == 7
