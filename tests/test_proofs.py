"""Each fact proved once per scope: exactlin._proofs().

Inside one _proofs() scope, compose_check, onto_everywhere and
generically_injective answer a question already asked from the stored
verdict.  These tests count eliminations (exactlin._rank_proof, and the
product of compose_check), never calls: a verdict read from the scope is a
call that eliminates nothing.  They also pin what a scope shares, and with
whom, and the parts of the key (kind, field, shape) that keep two
different questions apart.
"""

import contextvars
import threading

import pytest

from monadlab import (
    QQ,
    SpecialMonad,
    admissibility_check,
    certify,
    classify,
    example_monad,
    forms_matrix,
    jumping_scan,
    random_monad,
    restrict,
    sample_line,
    stability_report,
    to_prime_field,
    validate,
)
from monadlab import exactlin
from monadlab.exactlin import (
    DenseMatrix,
    LinearFormMatrix,
    _proofs,
    generically_injective,
    onto_everywhere,
)


class _Counts:
    """Eliminations made since the counter was installed."""

    def __init__(self, monkeypatch):
        self.rank_proofs = self.composites = self.mult_maps = 0
        rank_proof, is_zero, mult_map = (exactlin._rank_proof, DenseMatrix.is_zero,
                                         exactlin.mult_map)

        def counting_rank_proof(*args, **kwargs):
            self.rank_proofs += 1
            return rank_proof(*args, **kwargs)

        def counting_is_zero(m):
            # compose_check is the one caller of is_zero in monadlab
            self.composites += 1
            return is_zero(m)

        def counting_mult_map(*args):
            self.mult_maps += 1
            return mult_map(*args)

        # exactlin's own bindings: the proofs look these up there
        monkeypatch.setattr(exactlin, "_rank_proof", counting_rank_proof)
        monkeypatch.setattr(exactlin, "mult_map", counting_mult_map)
        monkeypatch.setattr(DenseMatrix, "is_zero", counting_is_zero)

    def __call__(self):
        return self.composites, self.rank_proofs


def _memo():
    """The open scope's stored verdicts."""
    return exactlin._memo.get()


@pytest.mark.parametrize("name", ["torsion-free", "reflexive", "locally-free"])
def test_the_desk_sequence_proves_each_fact_once(monkeypatch, name):
    # validate checks the composite, stability's certificate takes the two
    # onto_everywhere proofs, and admissibility's table reads all three
    M = example_monad(name)
    counts = _Counts(monkeypatch)
    with _proofs():
        validate(M)
        classify(M)
        stability_report(M)
        admissibility_check(M)
    assert counts() == (1, 2)
    assert counts.mult_maps == 4
    # without a scope each stage proves afresh
    counts = _Counts(monkeypatch)
    validate(M)
    classify(M)
    stability_report(M)
    admissibility_check(M)
    assert counts() == (3, 4)


def test_stability_in_a_scope_takes_the_alpha_proof_once(monkeypatch):
    # classify's locus starts from the alpha^T proof that the certificate
    # took; stability_report opens no scope of its own, so alone it takes
    # that proof twice
    from test_cohomology import _reflexive_rank3
    M = _reflexive_rank3()
    counts = _Counts(monkeypatch)
    rep = stability_report(M)
    assert (rep.stable, rep.h0, rep.h0_dual) == ("yes", 0, 0)
    assert counts.rank_proofs == 8
    counts = _Counts(monkeypatch)
    with _proofs():
        assert stability_report(M).to_json_obj() == rep.to_json_obj()
    assert counts.rank_proofs == 7


def test_sequential_scopes_share_nothing(monkeypatch):
    lf = example_monad("locally-free")
    counts = _Counts(monkeypatch)
    for _ in range(2):
        with _proofs():
            certify(lf.alpha, lf.beta)
            certify(lf.alpha, lf.beta)
            assert len(_memo()) == 3
    assert counts() == (2, 4)
    assert exactlin._memo.get(None) is None


def test_a_nested_scope_joins_the_outer_one(monkeypatch):
    lf = example_monad("locally-free")
    counts = _Counts(monkeypatch)
    with _proofs():
        onto_everywhere(lf.beta)
        with _proofs():
            certify(lf.alpha, lf.beta)
        assert counts() == (1, 2)
        # what the inner scope proved stays with the outer one
        certify(lf.alpha, lf.beta)
        assert counts() == (1, 2)
    assert exactlin._memo.get(None) is None


def test_the_scope_as_a_decorator_opens_one_per_call(monkeypatch):
    lf = example_monad("locally-free")
    counts = _Counts(monkeypatch)

    @_proofs()
    def twice():
        certify(lf.alpha, lf.beta)
        certify(lf.alpha, lf.beta)
        return len(_memo())

    assert twice() == 3 and twice() == 3
    assert counts() == (2, 4)


def test_a_thread_or_a_copied_context_shares_nothing(monkeypatch):
    lf = example_monad("locally-free")
    counts = _Counts(monkeypatch)
    with _proofs():
        certify(lf.alpha, lf.beta)
        # a thread starts in a context of its own, with no scope open
        seen = []
        thread = threading.Thread(target=lambda: seen.append(
            (certify(lf.alpha, lf.beta), exactlin._memo.get(None))))
        thread.start()
        thread.join()
        assert seen == [(certify(lf.alpha, lf.beta), None)]
        assert counts() == (2, 4)
    # a scope opened in a copied context closes with it
    ctx = contextvars.copy_context()

    def scoped():
        with _proofs():
            certify(lf.alpha, lf.beta)
        return exactlin._memo.get(None)

    assert ctx.run(scoped) is None
    assert counts() == (3, 6)
    with _proofs():
        certify(lf.alpha, lf.beta)
    assert counts() == (4, 8)


def test_a_context_copied_in_a_scope_shares_its_verdicts(monkeypatch):
    # the copy holds the scope's one dict: it reads the scope's verdicts,
    # what it proves is stored there, and it keeps them after the scope
    # closes
    lf = example_monad("locally-free")
    counts = _Counts(monkeypatch)
    with _proofs():
        onto_everywhere(lf.beta)
        ctx = contextvars.copy_context()
        ctx.run(certify, lf.alpha, lf.beta)
        assert counts() == (1, 2) and len(_memo()) == 3
    assert exactlin._memo.get(None) is None
    assert len(ctx.run(_memo)) == 3


def test_a_scan_memo_does_not_grow_with_its_lines():
    # the bad reduction's certificate is not clean, so every line proves
    # its own pencil, and pencils never enter the memo
    bad7 = to_prime_field(random_monad(2, 6, 2, seed=3), 7)
    sizes = []
    for samples in (3, 300):
        with _proofs():
            rep = jumping_scan(bad7, 7, samples)
            sizes.append(len(_memo()))
        assert rep.degenerate == samples
    assert sizes == [3, 3]


def test_pencils_never_enter_the_memo(monkeypatch):
    M = random_monad(2, 6, 2, seed=0)
    pc = restrict(M, sample_line(0, 0, QQ))
    counts = _Counts(monkeypatch)
    with _proofs():
        assert onto_everywhere(pc.B).full and onto_everywhere(pc.B).full
        assert _memo() == {}
    assert counts.rank_proofs == 2


def test_the_key_holds_the_field():
    # an integer monad (0, 4, 1) over Q whose coefficients all lie in
    # [0, 7), so its reduction mod 7 has the same entries; the coefficient
    # determinant of beta is -7, so beta is onto everywhere over Q only
    beta = forms_matrix(QQ, 4, [["x + 2*y", "4*x + y", "z", "w"]])
    M = SpecialMonad(3, LinearFormMatrix.zeros(QQ, 4, 0, 4), beta)
    M7 = to_prime_field(M, 7)
    assert M7.beta.coeffs == tuple(DenseMatrix(M7.field, 1, 4, c.data) for c in beta.coeffs)
    with _proofs():
        assert certify(M.alpha, M.beta).right is True
        assert certify(M7.alpha, M7.beta).right is False


def test_the_key_holds_the_kind():
    # alpha of the locally-free example, O(-1) -> O^4: injective as a sheaf
    # map, and not onto anywhere
    alpha = example_monad("locally-free").alpha
    with _proofs():
        assert not onto_everywhere(alpha).full
        assert generically_injective(alpha).full


def test_the_key_holds_the_shape():
    # a column and its transpose, a row, list the same coefficients in the
    # same order; alpha^T is onto everywhere, alpha is not
    alpha = example_monad("locally-free").alpha
    with _proofs():
        assert onto_everywhere(alpha.transpose()).full
        assert not onto_everywhere(alpha).full
