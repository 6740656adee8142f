"""Family windows on the double-arrow quiver and exact base changes
between their imaginary layers."""

import pytest

from genvar import clear_caches
from genvar import kronecker as kb
from genvar.affine import chebyshev_f, chebyshev_s, s_as_f_sum
from genvar.ccmap import generic_variable
from genvar.errors import BudgetError, ConsistencyError, InputError
from genvar.laurent import LaurentPoly
from genvar.linalg import rank_fraction


def test_quasi_simple_character_closed_form(z_closed_form):
    assert kb.z_character() == z_closed_form


def test_cached_generic_variable_keeps_the_prime_pool(kron):
    # a cached value never outlives a smaller pool where the character
    # sweeps primes: (2,1) needs three good primes
    generic_variable(kron, (2, 1))
    with pytest.raises(BudgetError):
        generic_variable(kron, (2, 1), pool=(5,))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_z_budget_verdict_is_the_visit_count(z_closed_form, warm):
    # the thin quasi-simple is charged one visit per e <= (1,1), four in
    # all; a default-budget call that fills the character memo first
    # changes no verdict
    clear_caches()
    if warm:
        kb.z_character()
    with pytest.raises(BudgetError):
        kb.z_character(budget=3)
    with pytest.raises(BudgetError):
        kb.family_element("CZ", 3, budget=3)
    assert kb.z_character(budget=4) == z_closed_form


def test_family_elements_index_zero_and_one(z_closed_form):
    one = LaurentPoly.one(2)
    for kind in kb.KINDS:
        assert kb.family_element(kind, 0) == one
        assert kb.family_element(kind, 1) == z_closed_form


def test_family_elements_index_two(z_closed_form):
    z = z_closed_form
    two = LaurentPoly.one(2).scale(2)
    assert kb.family_element("G", 2) == z * z
    assert kb.family_element("SZ", 2) == z * z - two          # F_2 = x^2 - 2
    assert kb.family_element("CZ", 2) == z * z - LaurentPoly.one(2)


def test_family_element_validation():
    with pytest.raises(InputError):
        kb.family_element("XX", 1)
    with pytest.raises(InputError):
        kb.family_element("G", -1)


# z^4 = F_4 + 4 F_2 + 6 and z^4 = S_4 + 3 S_2 + 2, checked by hand from
# F_4 = x^4 - 4x^2 + 2 and S_4 = x^4 - 3x^2 + 1.
def test_power_expansions_frozen():
    assert [row[0] for row in kb.base_change("G", "SZ", 1).matrix] == [1]
    assert [row[1] for row in kb.base_change("G", "SZ", 2).matrix] == [0, 1]
    assert [row[2] for row in kb.base_change("G", "SZ", 3).matrix] == [2, 0, 1]
    assert [row[4] for row in kb.base_change("G", "SZ", 5).matrix] == [6, 0, 4, 0, 1]
    assert [row[2] for row in kb.base_change("G", "CZ", 3).matrix] == [1, 0, 1]
    assert [row[4] for row in kb.base_change("G", "CZ", 5).matrix] == [2, 0, 3, 0, 1]
    with pytest.raises(InputError):
        kb.base_change("G", "SZ", 0)


def test_power_expansions_reconstruct(z_closed_form):
    z = z_closed_form
    for n in range(6):
        lam = [row[n] for row in kb.base_change("G", "SZ", n + 1).matrix]
        acc = LaurentPoly.zero(2)
        for i, c in enumerate(lam):
            if c:
                acc = acc + kb.family_element("SZ", i).scale(c)
        assert acc == z ** n if n else acc == LaurentPoly.one(2)


FROZEN_G_TO_SZ = (
    (1, 0, 2, 0, 6),
    (0, 1, 0, 3, 0),
    (0, 0, 1, 0, 4),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
)

FROZEN_SZ_TO_G = (
    (1, 0, -2, 0, 2),
    (0, 1, 0, -3, 0),
    (0, 0, 1, 0, -4),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
)


def test_base_change_frozen_matrices():
    fwd = kb.base_change("G", "SZ", 5)
    assert fwd.matrix == FROZEN_G_TO_SZ
    assert fwd.inverse == FROZEN_SZ_TO_G
    back = kb.base_change("SZ", "G", 5)
    assert back.matrix == FROZEN_SZ_TO_G
    assert back.inverse == FROZEN_G_TO_SZ


def test_base_change_identity_and_validation():
    ident = kb.base_change("CZ", "CZ", 4)
    assert ident.matrix == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    with pytest.raises(InputError):
        kb.base_change("G", "nope", 3)
    with pytest.raises(InputError):
        kb.base_change("G", "SZ", 0)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("size, work", [(1, 5), (5, 305), (12, 3756)])
def test_base_change_budget_boundary_is_the_check_work(size, work, warm):
    # 2 size^3 multiply-adds in the inverse checks and size (2 size + 1)
    # terms in the Laurent re-checks, charged before they run; past z's
    # four visits, so the checks set the boundary
    clear_caches()
    if warm:
        kb.base_change("G", "SZ", size)
    with pytest.raises(BudgetError):
        kb.base_change("G", "SZ", size, budget=work - 1)
    assert kb.base_change("G", "SZ", size, budget=work) == kb.base_change("G", "SZ", size)
    for budget in ("x", True, -1):
        with pytest.raises(InputError):
            kb.base_change("G", "SZ", size, budget=budget)


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def test_base_change_triangle_consistency():
    # expanding z^j over S_i directly must agree with going through F_i
    n = 6
    g_to_cz = kb.base_change("G", "CZ", n).matrix
    g_to_sz = kb.base_change("G", "SZ", n).matrix
    sz_to_cz = kb.base_change("SZ", "CZ", n).matrix
    assert g_to_cz == _matmul(sz_to_cz, g_to_sz)


def test_base_change_columns_match_polynomials():
    n = 5
    sz_to_g = kb.base_change("SZ", "G", n).matrix
    cz_to_g = kb.base_change("CZ", "G", n).matrix
    for j in range(1, n):
        f, s = chebyshev_f(j), chebyshev_s(j)
        assert [sz_to_g[i][j] for i in range(j + 1)] == f
        assert [cz_to_g[i][j] for i in range(j + 1)] == s


def test_solved_quotient_columns_match_the_closed_form():
    n = 12
    cz_to_sz = kb.base_change("CZ", "SZ", n).matrix
    for j in range(n):
        assert [cz_to_sz[i][j] for i in range(j + 1)] == s_as_f_sum(j)


def test_corrupted_column_fails_the_laurent_identity(monkeypatch):
    solve = kb._column

    # z^2 = F_2 + 2: write 3 in G->SZ and -3 in SZ->G, so the two matrices
    # stay mutually inverse, unipotent and on the parity checkerboard
    def corrupt(source, target, j):
        col = solve(source, target, j)
        if j == 2 and (source, target) in (("G", "SZ"), ("SZ", "G")):
            col[0] += 1 if source == "G" else -1
        return col

    monkeypatch.setattr(kb, "_column", corrupt)
    with pytest.raises(ConsistencyError, match="Laurent identity"):
        kb.base_change("G", "SZ", 4)
    with pytest.raises(ConsistencyError, match="Laurent identity"):
        kb.base_change("G", "SZ", 3)
    kb.base_change("G", "SZ", 2)  # the columns before it still verify


def test_positivity_reports():
    rep = kb.positivity_report(kb.base_change("G", "SZ", 6).matrix)
    assert rep == {"unipotent": True, "nonnegative": True,
                   "negative_entries": []}
    rep = kb.positivity_report(kb.base_change("G", "CZ", 6).matrix)
    assert rep["unipotent"] and rep["nonnegative"]
    # F_j = S_j - S_{j-2}, so this change has -1 entries off the diagonal
    rep = kb.positivity_report(kb.base_change("SZ", "CZ", 5).matrix)
    assert rep["unipotent"] and not rep["nonnegative"]
    assert [2, 4, -1] in rep["negative_entries"]
    # S_j = F_j + F_{j-2} + ... stays nonnegative
    rep = kb.positivity_report(kb.base_change("CZ", "SZ", 5).matrix)
    assert rep["unipotent"] and rep["nonnegative"]


def test_base_change_json_shape():
    doc = kb.base_change("G", "SZ", 3).to_json()
    assert doc["source"] == "G" and doc["target"] == "SZ"
    assert doc["size"] == 3
    assert doc["matrix"][0] == [1, 0, 2]
    assert doc["inverse"][0] == [1, 0, -2]


def test_build_basis_window():
    fam = kb.build_basis("G", n_max=3, monomial_bound=(1, 1))
    names = [n for n, _p in fam.elements]
    assert len(names) == len(set(names))
    assert "mono:0,0" in names
    for k in (1, 2, 3):
        assert "imag:%d" % k in names
    by_name = dict(fam.elements)
    for k in (1, 2, 3):
        assert by_name["imag:%d" % k].denominator_vector() == (k, k)
    for name, poly in fam.elements:
        if name.startswith("mono:"):
            assert name == "mono:%d,%d" % poly.denominator_vector()


@pytest.mark.parametrize("call", [
    lambda x: kb.base_change("G", "SZ", x),
    lambda x: kb.family_element("CZ", x),
    lambda x: kb.build_basis("G", x),
    chebyshev_s,
    chebyshev_f,
    s_as_f_sum,
])
@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5])
def test_family_integer_arguments_must_be_ints(call, bad):
    with pytest.raises(InputError):
        call(bad)


def test_build_basis_validation():
    with pytest.raises(InputError):
        kb.build_basis("nope", n_max=2)
    with pytest.raises(InputError):
        kb.build_basis("G", n_max=-1)
    with pytest.raises(InputError):
        kb.build_basis("G", n_max=2, monomial_bound=(-1, 2))


def test_independence_of_window():
    for kind in kb.KINDS:
        fam = kb.build_basis(kind, n_max=3, monomial_bound=(1, 1))
        rep = kb.independence_check(fam)
        assert rep["independent"] is True
        assert rep["rank"] == rep["elements"] == len(fam.elements)


def test_independence_negative_control(z_closed_form):
    fam = kb.build_basis("G", n_max=2, monomial_bound=(1, 1))
    # z^2 - 1 is a combination of imag:2 and the unit monomial
    extra = z_closed_form * z_closed_form - LaurentPoly.one(2)
    rep = kb.independence_check(fam, extra=[extra])
    assert rep["independent"] is False
    assert rep["rank"] == rep["elements"] - 1
    # a duplicated element repeats a leading monomial, so the rank is eliminated
    dup = kb.independence_check(fam, extra=[fam.elements[-1][1]])
    assert (dup["rank"], dup["independent"]) == (len(fam.elements), False)


@pytest.mark.parametrize("extra", [LaurentPoly.variable(3, 1), 5])
def test_independence_extras_must_be_two_variable_laurent_polys(extra):
    # a 3-variable extra was reported independent; 5 raised AttributeError
    fam = kb.build_basis("G", n_max=2, monomial_bound=(1, 1))
    with pytest.raises(InputError):
        kb.independence_check(fam, extra=[extra])


def dense_rank(polys):
    """Rank of the polynomials' coefficient rows over their joint support,
    by elimination: the reference for `independence_check`."""
    support = sorted({m for p in polys for m in p.terms})
    return rank_fraction([[p.terms.get(m, 0) for m in support] for p in polys])


@pytest.fixture(scope="module")
def windows():
    return {kind: kb.build_basis(kind, n_max=5, monomial_bound=(5, 5))
            for kind in kb.KINDS}


def outside_monomial(fam):
    """elements[0] plus a monomial outside the window's support: the same
    lex-least exponent as elements[0], yet independent of the window."""
    first = fam.elements[0][1]
    far = (1 + max(e[0] for _n, p in fam.elements for e in p.terms), 0)
    assert min(first.terms) < far
    return first + LaurentPoly.monomial(2, far)


@pytest.mark.parametrize("kind", kb.KINDS)
@pytest.mark.parametrize("extra, independent, eliminated", [
    (lambda fam: [], True, False),
    (lambda fam: [LaurentPoly.zero(2)], False, False),
    (lambda fam: [fam.elements[0][1]], False, True),   # the duplicate control
    (lambda fam: [outside_monomial(fam)], True, True),
], ids=["window", "zero-extra", "duplicate", "lead-collides-independent"])
def test_rank_from_leads_matches_elimination(monkeypatch, windows, kind,
                                             extra, independent, eliminated):
    fam = windows[kind]
    extras = extra(fam)
    polys = [p for _n, p in fam.elements] + extras
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return rank_fraction(rows)

    monkeypatch.setattr(kb, "rank_fraction", spy)
    rep = kb.independence_check(fam, extra=extras)
    assert rep["rank"] == dense_rank(polys)
    assert rep["elements"] == len(polys)
    assert rep["independent"] is independent is (rep["rank"] == len(polys))
    # rows are eliminated only when two leading exponents collide
    assert calls == ([len(polys)] if eliminated else [])
