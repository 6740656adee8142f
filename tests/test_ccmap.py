"""Characters of representations and certified generic values."""

import itertools
from fractions import Fraction

import pytest

from genvar import candecomp, ccmap, clear_caches, repfq
from genvar.affine import generic_variable_affine
from genvar.candecomp import canonical_decomposition, verify_certificate
from genvar.ccmap import (DecoratedRep, cc_of_module, cc_of_object,
                          express_in_basis, generic_variable,
                          rigid_integer_rep)
from genvar.errors import BudgetError, InputError
from genvar.laurent import LaurentPoly
from genvar.mutation import cluster_monomials, enumerate_cluster_variables
from genvar.kronecker import z_character
from genvar.quiver import a_n, affine_a2, kronecker, negative_part, positive_part
from genvar.repfq import Representation, chi_all, count_all_subreps
from genvar.reps import ext_from_hom, hom_dim, rep_mod


# Hand-expanded characters on the double-arrow quiver (arrows 1 -> 2):
#   X of the simple at the source      = (1 + u2^2) / u1
#   X of the simple at the sink        = (1 + u1^2) / u2
#   X of a quasi-simple of dim (1,1)   = (u1^2 + u2^2 + 1) / (u1 u2)
X_SOURCE_SIMPLE = LaurentPoly(2, {(-1, 0): 1, (-1, 2): 1})
X_SINK_SIMPLE = LaurentPoly(2, {(0, -1): 1, (2, -1): 1})


def test_simple_characters_closed_form(kron, z_closed_form):
    s1 = Representation(kron, 0, (1, 0), ((), ()))
    s2 = Representation(kron, 0, (0, 1), (((),), ((),)))
    assert cc_of_module(s1) == X_SOURCE_SIMPLE
    assert cc_of_module(s2) == X_SINK_SIMPLE
    quasi = Representation(kron, 0, (1, 1), (((1,),), ((1,),)))
    assert cc_of_module(quasi) == z_closed_form


def test_zero_module_character_is_one(kron):
    z = Representation(kron, 0, (0, 0), ((), ()))
    assert cc_of_module(z) == LaurentPoly.one(2)


def test_character_multiplicative_on_ext_orthogonal_sum(kron):
    # S1 and the rigid (2,1) module have no extensions either way
    from genvar.reps import direct_sum, ext_dim
    s1 = Representation(kron, 0, (1, 0), ((), ()))
    m21 = Representation(kron, 0, (2, 1), (((1, 0),), ((0, 1),)))
    assert ext_dim(s1, m21) == 0 and ext_dim(m21, s1) == 0
    assert cc_of_module(direct_sum(s1, m21)) == cc_of_module(s1) * cc_of_module(m21)
    # the identity holds for every direct sum, Ext-nonzero pairs included
    s2 = Representation(kron, 0, (0, 1), (((),), ((),)))
    assert ext_dim(s1, s2) == 2
    assert cc_of_module(direct_sum(s1, s2)) == X_SOURCE_SIMPLE * X_SINK_SIMPLE


def test_character_matches_mutation_table(kron, a2):
    # the counting route and the exchange recurrence are independent
    table = enumerate_cluster_variables(kron, depth=2, sweeps=3)
    m21 = Representation(kron, 0, (2, 1), (((1, 0),), ((0, 1),)))
    assert cc_of_module(m21) == table.entries[(2, 1)]
    table2 = enumerate_cluster_variables(a2, depth=6)
    m11 = Representation(a2, 0, (1, 1), (((1,),),))
    assert cc_of_module(m11) == table2.entries[(1, 1)]


def test_decorated_object_shifts(kron):
    s2 = Representation(kron, 0, (0, 1), (((),), ((),)))
    obj = DecoratedRep(module=s2, shifts=(1, 0))
    assert cc_of_object(obj) == cc_of_module(s2) * LaurentPoly.variable(2, 1)
    with pytest.raises(InputError):
        DecoratedRep(module=s2, shifts=(-1, 0))


@pytest.mark.parametrize("shifts", [(0.5, 0), ("a", 0), (True, 0)])
def test_decorated_object_rejects_non_integer_shifts(kron, shifts):
    # (0.5, 0) and (True, 0) were accepted; ("a", 0) raised a raw TypeError
    s2 = Representation(kron, 0, (0, 1), (((),), ((),)))
    with pytest.raises(InputError):
        DecoratedRep(module=s2, shifts=shifts)


def test_generic_variable_negative_vector_is_monomial(kron):
    gv = generic_variable(kron, (-2, -1))
    assert gv.poly == LaurentPoly.monomial(2, (2, 1))
    assert gv.rigid is True
    assert gv.summands == ()


def test_generic_variable_mixed_signs(kron):
    gv = generic_variable(kron, (-1, 2))
    assert gv.poly == X_SINK_SIMPLE ** 2 * LaurentPoly.variable(2, 1)
    assert gv.poly.denominator_vector() == (-1, 2)


def test_shifted_vectors_draw_only_their_positive_parts(monkeypatch):
    # X_d = X_{[d]_+} * u^{[d]_-}: each box draws samples once per distinct
    # nonzero positive part, and every value is that part's value shifted
    draws = []

    def spy(q, instances, seed, attempt, _orig=ccmap._sample_parts):
        draws.append((q, tuple(map(sum, zip(*instances))), attempt))
        return _orig(q, instances, seed, attempt)
    monkeypatch.setattr(ccmap, "_sample_parts", spy)
    clear_caches()
    boxes = [(kronecker(), itertools.product(range(-2, 3), repeat=2)),
             (affine_a2(), itertools.product(range(-1, 3), repeat=3))]
    values = {(q, d): generic_variable(q, d) for q, box in boxes for d in box}
    parts = {(q, positive_part(d)) for q, d in values if any(positive_part(d))}
    assert len(draws) == len(set(draws))  # no part is drawn twice
    assert {(q, dp) for q, dp, _a in draws} == parts
    for (q, d), gv in values.items():
        at_dp = values[q, positive_part(d)]
        assert gv.vector == d
        assert gv.poly == at_dp.poly.shift(negative_part(d))
        assert (gv.samples, gv.summands, gv.rigid, gv.predicted_hom) == (
            at_dp.samples, at_dp.summands, at_dp.rigid, at_dp.predicted_hom)


def test_generic_variable_rigid_real_root(kron):
    gv = generic_variable(kron, (2, 1))
    assert gv.rigid is True
    assert gv.poly.denominator_vector() == (2, 1)
    table = enumerate_cluster_variables(kron, depth=2, sweeps=3)
    assert gv.poly == table.entries[(2, 1)]


def test_generic_variable_delta_power(kron, z_closed_form):
    gv = generic_variable(kron, (2, 2))
    assert gv.rigid is False
    assert gv.poly == z_closed_form ** 2
    assert gv.predicted_hom == 2
    # the value is a product over the summands; the whole sample agrees
    dim, matrices = gv.samples[0]
    assert cc_of_module(Representation(kron, 0, dim, matrices)) == gv.poly


def test_generic_variable_caches(kron):
    a = generic_variable(kron, (2, 1))
    b = generic_variable(kron, (2, 1))
    assert a is b


def test_cached_generic_variable_keeps_the_budget(kron):
    generic_variable(kron, (2, 2))
    with pytest.raises(BudgetError):
        generic_variable(kron, (2, 2), budget=1)


def test_thin_parts_sweep_no_primes(monkeypatch):
    # (3,3) = 3 delta: three thin parts, each decided over Q; the rigid
    # (2,1) still counts subrepresentations at good primes
    calls = []
    for name in ("_count_engine", "good_primes"):
        def spy(*args, _name=name, _orig=getattr(repfq, name)):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(repfq, name, spy)
    clear_caches()
    generic_variable(kronecker(), (3, 3), seed=0)
    assert calls == []
    generic_variable(kronecker(), (2, 1))
    assert set(calls) == {"_count_engine", "good_primes"}


def test_generic_variable_validation_and_budget(kron):
    with pytest.raises(InputError):
        generic_variable(kron, (1, 1, 1))


@pytest.mark.parametrize("seed", [1.5, "0", None, True])
def test_generic_variable_rejects_a_non_integer_seed(kron, seed):
    with pytest.raises(InputError):
        generic_variable(kron, (1, 1), seed=seed)


KRON, A2, A3 = kronecker(), a_n(2), a_n(3)
TUBE = Representation(KRON, 0, (1, 1), (((1,),), ((1,),)))


def _monomials(**limits):
    return cluster_monomials(enumerate_cluster_variables(A2, 4), A2, (1, 1), **limits)


# Each raised a raw TypeError or AttributeError, ran with a truncated
# budget or shared the cache entry of budget=1 (True == 1) before the
# entry points checked their limits and guards.
@pytest.mark.parametrize("call", [
    lambda: generic_variable(KRON, (1, 1), budget="x"),
    lambda: generic_variable(KRON, (1, 1), budget=True),
    lambda: generic_variable(KRON, (1, 1), budget=-1),
    lambda: generic_variable(KRON, (1, 1), pool=5),
    lambda: generic_variable_affine(KRON, (1, 1), budget="x"),
    lambda: generic_variable_affine(KRON, (1, 2), pool=5),
    lambda: cc_of_module(TUBE, budget=1.5),
    lambda: cc_of_module(TUBE, pool=7),
    lambda: chi_all(TUBE, budget="x"),
    lambda: chi_all(TUBE, guards=(1,)),
    lambda: chi_all(TUBE, guards=TUBE),
    lambda: chi_all(TUBE, guards=(None,)),
    lambda: cc_of_module(TUBE, guards=("x",)),
    lambda: count_all_subreps(rep_mod(TUBE, 5), budget=True),
    lambda: z_character(budget=True),
    lambda: enumerate_cluster_variables(A2, 2, budget=1.5),
    lambda: enumerate_cluster_variables(A2, 2, budget=True),
    lambda: _monomials(budget="x"),
    lambda: _monomials(budget=True),
], ids=["generic-str", "generic-bool", "generic-negative", "generic-pool-int",
        "affine-str", "affine-pool-int", "module-float",
        "module-pool-int", "chi-str", "chi-guard-int", "chi-guard-module",
        "polynomial-guard-none", "module-guard-str", "count-bool", "z-bool",
        "enumerate-float", "enumerate-bool", "monomials-str", "monomials-bool"])
def test_entry_points_check_budget_and_pool(call):
    with pytest.raises(InputError):
        call()


ATILDE = affine_a2()
# thin modules of one support pattern each: (a, a sibling with other nonzero scalars)
THIN_PATTERNS = {
    "kronecker-1-1": ((KRON, (1, 1), (2, -3)), (KRON, (1, 1), (-1, 1))),
    "kronecker-one-arrow": ((KRON, (1, 1), (0, 3)), (KRON, (1, 1), (0, -2))),
    "affine-a2-cycle": ((ATILDE, (1, 1, 1), (1, 2, 3)), (ATILDE, (1, 1, 1), (-3, 1, 1))),
    "affine-a2-1-0-1": ((ATILDE, (1, 0, 1), (0, 0, 5)), (ATILDE, (1, 0, 1), (0, 0, 1))),
    "a3-1-1-0": ((A3, (1, 1, 0), (2, 0)), (A3, (1, 1, 0), (-1, 0))),
}


def _thin(q, dim, scalars):
    mats = tuple(((x,),) if dim[s - 1] and dim[t - 1] else tuple(((),) * dim[t - 1])
                 for (s, t), x in zip(q.arrows, scalars))
    return Representation(q, 0, dim, mats)


def test_thin_characters_of_one_pattern_share_one_entry():
    clear_caches()
    for name, (a, b) in THIN_PATTERNS.items():
        m, n = _thin(*a), _thin(*b)
        before = ccmap._cc_of_module.cache_info().currsize
        assert cc_of_module(m) == cc_of_module(n) == cc_of_module(
            n, pool=(5,), guards=(m,)), name
        assert ccmap._cc_of_module.cache_info().currsize == before + 1, name
    # the characters read the pattern, not only the support: with no live
    # arrow the Kronecker (1,1) is the sum of its simples
    assert cc_of_module(_thin(KRON, (1, 1), (0, 0))) != cc_of_module(TUBE)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", sorted(THIN_PATTERNS))
def test_thin_character_budget_is_two_to_the_support(name, warm):
    # one visit per e <= dim, 2^s for support size s; a default-budget
    # entry of a sibling with the same pattern changes no verdict
    clear_caches()
    a, b = THIN_PATTERNS[name]
    m, sibling = _thin(*a), _thin(*b)
    if warm:
        cc_of_module(sibling)
    visits = 2 ** sum(m.dim)
    with pytest.raises(BudgetError):
        cc_of_module(m, budget=visits - 1)
    assert cc_of_module(m, budget=visits) == cc_of_module(sibling)


@pytest.mark.parametrize("limits", [
    {"pool": (4, 4)}, {"pool": (4, 9)}, {"pool": 7},
    {"guards": (None,)}, {"guards": (rep_mod(TUBE, 5),)}, {"guards": TUBE}],
    ids=["pool-repeated", "pool-composite", "pool-int",
         "guard-none", "guard-mod-p", "guard-module"])
def test_a_thin_character_checks_pool_and_guards_before_its_pattern(limits):
    cc_of_module(TUBE)  # the pattern's entry exists
    with pytest.raises(InputError):
        cc_of_module(TUBE, **limits)
    with pytest.raises(InputError):
        cc_of_module(rep_mod(TUBE, 5))


def test_rigid_integer_rep(kron):
    from genvar.reps import ext_dim, hom_dim
    m = rigid_integer_rep(kron, (2, 1))
    assert m.dim == (2, 1)
    assert hom_dim(m, m) == 1 and ext_dim(m, m) == 0
    with pytest.raises(InputError):
        rigid_integer_rep(kron, (1, 1))  # imaginary root


def test_express_in_basis_roundtrip(z_closed_form):
    one = LaurentPoly.one(2)
    basis = [one, z_closed_form, z_closed_form ** 2]
    target = z_closed_form ** 2 + z_closed_form.scale(3) + one.scale(5)
    assert express_in_basis(target, basis) == [Fraction(5), Fraction(3), Fraction(1)]


def test_express_in_basis_fractional(z_closed_form):
    doubled = z_closed_form.scale(2)
    assert express_in_basis(z_closed_form, [doubled]) == [Fraction(1, 2)]


def test_express_in_basis_outside_span(z_closed_form):
    u1 = LaurentPoly.variable(2, 1)
    assert express_in_basis(u1, [z_closed_form]) is None


def test_express_in_basis_zero_target(z_closed_form):
    assert express_in_basis(LaurentPoly.zero(2), [z_closed_form]) == [Fraction(0)]


def test_only_outside_parts_are_checked(monkeypatch):
    # a generic value derives every module it uses from checked parts, so
    # none is re-validated; verify_certificate rebuilds each witness checked
    runs = []
    checked = Representation.__post_init__

    def counted(self):
        runs.append(self.dim)
        checked(self)

    monkeypatch.setattr(Representation, "__post_init__", counted)
    clear_caches()
    generic_variable(kronecker(), (2, 2))
    generic_variable(affine_a2(), (1, 1, 1))
    dec = canonical_decomposition(affine_a2(), (2, 3, 2))
    assert runs == []
    assert verify_certificate(affine_a2(), dec)
    assert runs == [dim for _p, dim, _mats in dec.witnesses]


def _hom_sum_verdict(q, summands, parts):
    """The sample test `generic_variable` used before it read the witness
    test: the Hom dimensions between the parts sum to the predicted
    dim End, and on rigid shapes Ext(M, M) = 0 for their direct sum."""
    instances = [e for e, mult, _t in summands for _ in range(mult)]
    predicted = len(instances) + sum(
        max(q.euler_form(a, b), 0)
        for i, a in enumerate(instances) for j, b in enumerate(instances) if i != j)
    hom = sum(hom_dim(a, b) for a in parts for b in parts)
    if hom != predicted:
        return False
    if all(t == "real_schur" for _e, _m, t in summands):
        dp = tuple(map(sum, zip(*instances)))
        return ext_from_hom(q, dp, dp, hom) == 0
    return True


@pytest.mark.parametrize("q, top", [(kronecker(), 4), (affine_a2(), 2), (a_n(3), 2)],
                         ids=["kronecker", "affine-a2", "a3"])
def test_witness_test_accepts_the_samples_the_hom_sum_accepted(q, top):
    # distinct canonical summands are generically Ext-orthogonal, so
    # <a, b> >= 0 and the predicted Hom sum asks for Hom(a, b) = <a, b>
    # exactly where the witness test asks for Ext(a, b) = 0
    seen = set()
    for d in itertools.product(range(top + 1), repeat=q.vertices):
        if not any(d):
            continue
        summands = candecomp._summands(q, d, "auto")
        instances = [e for e, mult, _t in summands for _ in range(mult)]
        for attempt in range(ccmap.GENERIC_RETRIES):
            parts = ccmap._sample_parts(q, instances, 0, attempt)
            verdict = _hom_sum_verdict(q, summands, parts)
            assert verdict == (candecomp._witness_fault(parts) is None), (d, attempt)
            seen.add(verdict)
    assert seen == {True, False}


def test_a_generic_value_draws_no_witness_tuple():
    clear_caches()
    generic_variable(kronecker(), (2, 2))
    generic_variable(kronecker(), (2, 1))
    generic_variable(affine_a2(), (1, 1, 1))
    assert candecomp._find_witnesses.cache_info().misses == 0


def test_kronecker_k_delta_is_z_to_the_k_up_to_twelve(kron):
    for k in (10, 11, 12):
        gv = generic_variable(kron, (k, k))
        assert gv.poly == z_character() ** k
        assert len(gv.samples) == 3
        for dim, (a, b) in gv.samples:
            # each sample is the block diagonal of k parts of dimension (1, 1)
            assert dim == (k, k)
            assert all(a[i][j] == b[i][j] == 0 for i in range(k) for j in range(k) if i != j)
            parts = [Representation(kron, 0, (1, 1), (((a[i][i],),), ((b[i][i],),)))
                     for i in range(k)]
            assert candecomp._witness_fault(parts) is None
    with pytest.raises(BudgetError):
        generic_variable(kron, (13, 13))  # 2 of 12 attempts certify, 3 are needed
