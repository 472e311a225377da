import ast
import cmath
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import random_element, random_float_theta, rng_for
from reference_fock import BandOperator, band, identity, represent, truncated_trace
from heegaard import (AlgebraElement, UnstableInvariant, chern_galois_projector,
                      class_invariant, fock_generator, generator, projector_diagonal,
                      relation_residual, sphere_defect, unit)
from heegaard import fock
from heegaard.algebra import Context, SizeOverflow
from heegaard.bundles import MAX_SIZE
from heegaard.fock import compact_charge, relation_defects, scalar_part
from heegaard.phases import ThetaMatrix, frac_part


def test_single_generator_is_shift():
    th = ThetaMatrix.zero(1)
    s = band(fock_generator(0, 4, th))
    dense = s.toarray()
    expected = np.zeros((5, 5))
    for k in range(4):
        expected[k + 1, k] = 1
    assert np.allclose(dense, expected)


def test_twisted_phase_on_basis():
    # e_mu -> prod_{j>i} e(theta_ij mu_j) e_{mu + delta_i}, vector by vector
    M = 3
    for th in (ThetaMatrix.random_rational(2, seed=3),
               ThetaMatrix.random_rational(3, seed=4)):
        shape = (M + 1,) * th.n
        for i in range(th.n):
            dense = band(fock_generator(i, M, th)).toarray()
            want = np.zeros_like(dense)
            for col in range(dense.shape[1]):
                mu = np.unravel_index(col, shape)
                if mu[i] == M:
                    continue
                nu = list(mu)
                nu[i] += 1
                t = sum(float(th.entry(i, j)) * mu[j] for j in range(i + 1, th.n))
                want[np.ravel_multi_index(nu, shape), col] = cmath.exp(2j * cmath.pi * t)
            assert np.abs(dense - want).max() < 1e-14


def _dense_generator(i, M, th):
    """S_i as a dense matrix, built vector by vector."""
    shape = (M + 1,) * th.n
    out = np.zeros(((M + 1) ** th.n,) * 2, dtype=complex)
    for col, mu in enumerate(np.ndindex(shape)):
        if mu[i] < M:
            nu = list(mu)
            nu[i] += 1
            t = sum(float(th.entry(i, j)) * mu[j] for j in range(i + 1, th.n))
            out[np.ravel_multi_index(nu, shape), col] = cmath.exp(2j * cmath.pi * t)
    return out


# N = 3 stays at M = 3 (dim 256): the dense 2-norms of the reference take
# about 3 s a case at M = 4 (dim 625)
@pytest.mark.parametrize("N,M", [(1, 3), (1, 6), (2, 4), (2, 5), (2, 6), (3, 3)])
@pytest.mark.parametrize("kind", ["zero", "rational", "float"])
def test_band_algebra_matches_dense(N, M, kind):
    n = N + 1
    rng = rng_for(f"fock-bands-{N}-{M}-{kind}")
    th = {"zero": ThetaMatrix.zero(n),
          "rational": ThetaMatrix.random_rational(n, seed=N + M, den=12),
          "float": random_float_theta(n, rng)}[kind]
    gens = [band(fock_generator(i, M, th)) for i in range(n)]
    letters = gens + [g.adjoint() for g in gens]
    dense = [_dense_generator(i, M, th) for i in range(n)]
    dense += [d.conj().T for d in dense]
    steps = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    steps += [tuple(-s for s in d) for d in steps]

    def word():
        idx = [rng.randrange(2 * n) for _ in range(rng.randint(1, 4))]
        shift = tuple(map(sum, zip(*(steps[k] for k in idx))))
        return (reduce(BandOperator.__matmul__, [letters[k] for k in idx]),
                reduce(np.matmul, [dense[k] for k in idx]), shift)

    for _ in range(4):
        (a, da, sa), (b, db, sb) = word(), word()
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for op, want in [(a @ b, da @ db), (a.adjoint(), da.conj().T),
                         (a + b, da + db), (a - b, da - db), (a.scale(z), da * z),
                         (a.adjoint() @ a, da.conj().T @ da)]:
            assert op.dim == want.shape[0]
            assert np.abs(op.toarray() - want).max() < 1e-12
            assert abs(op.trace() - np.trace(want)) < 1e-12
        for op, want in [(a, da), (b, db), (a @ b, da @ db), (a.adjoint(), da.conj().T)]:
            assert abs(op.norm() - np.linalg.norm(want, 2)) < 1e-12
        # a difference of two words of one shift is one band; two shifts are refused
        c = (a @ b) - (b @ a).scale(z)
        assert abs(c.norm() - np.linalg.norm(da @ db - db @ da * z, 2)) < 1e-12
        if sa != sb and da.any() and db.any():
            with pytest.raises(ValueError):
                (a - b).norm()


def test_isometry_minus_top_layer():
    th = ThetaMatrix.random_rational(2, seed=5)
    M = 4
    for i in range(2):
        s = band(fock_generator(i, M, th))
        d = (s.adjoint() @ s).toarray()
        shape = (M + 1, M + 1)
        expected = np.eye((M + 1) ** 2, dtype=complex)
        for idx in range((M + 1) ** 2):
            mu = np.unravel_index(idx, shape)
            if mu[i] == M:
                expected[idx, idx] = 0
        assert np.allclose(d, expected)
        # so the isometry defect is exactly rank (M+1) on the full space
        assert abs((s.adjoint() @ s - identity(2, M)).norm() - 1) < 1e-12


def test_relation_residuals():
    for n_gen, M in [(1, 8), (2, 5)]:
        for th in [ThetaMatrix.zero(n_gen + 1),
                   ThetaMatrix.random_rational(n_gen + 1, seed=7)]:
            assert relation_residual(n_gen, th, M) <= 1e-10
    with pytest.raises(ValueError):
        relation_residual(1, ThetaMatrix.zero(2), 2)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_residual_reads_the_twist_mod_one(mode):
    # phases are computed from the fractional part of each entry, so a twist
    # shifted by an integer loses no precision and gives the same residual
    base = {(0, 1): Fraction(3, 10), (0, 2): Fraction(-2, 5), (1, 2): Fraction(7, 10)}
    conv = Fraction if mode == "rational" else float
    res = [relation_residual(2, ThetaMatrix.from_upper(
               3, {jk: conv(v + shift) for jk, v in base.items()}, mode), 6)
           for shift in (0, 10 ** 5, 10 ** 8)]
    assert max(res) <= 1e-10, res
    assert max(res) - min(res) <= 1e-15, res


def test_frac_part_is_exact():
    assert frac_part(Fraction(300001, 3)) == Fraction(1, 3)
    assert frac_part(Fraction(-7, 2)) == Fraction(-1, 2)
    assert frac_part(100000.3) == 100000.3 - 100000
    assert frac_part(-2.75) == -0.75
    for t in (0.3, -0.3, Fraction(2, 3), 0.0):
        assert frac_part(t) == t
    th = ThetaMatrix.from_upper(2, {(0, 1): -100000.25}, mode="float")
    assert th.table == ((0.0, -0.25), (0.25, 0.0))


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("M", [3, 4, 5])
@pytest.mark.parametrize("kind", ["zero", "rational", "float"])
def test_norm_matches_dense_norm_on_every_relation_defect(N, M, kind):
    th = {"zero": ThetaMatrix.zero(N + 1),
          "rational": ThetaMatrix.random_rational(N + 1, seed=17),
          "float": random_float_theta(N + 1, rng_for(f"defects-{N}-{M}"))}[kind]
    defects = list(relation_defects(N, th, M))
    assert len(defects) == (N + 1) + 2 * N * (N + 1)
    for d in defects:
        assert abs(d.norm() - np.linalg.norm(band(d).toarray(), 2)) <= 1e-12


def _reference_generator(i, M, th):
    """S_i as the outer product over the slots of ones (j < i), the cutoff
    mask mu_i < M (j == i) and e(theta_ij mu_j) (j > i), cast to complex."""
    n, ks = th.n, np.arange(M + 1)
    factors = [np.ones(M + 1)] * i + [(ks < M).astype(float)]
    factors += [np.exp(2j * np.pi * float(frac_part(th.entry(i, j))) * ks)
                for j in range(i + 1, n)]
    v = reduce(np.multiply, [f.reshape((M + 1,) + (1,) * (n - 1 - k))
                             for k, f in enumerate(factors)])
    return BandOperator(n, M, {tuple(int(j == i) for j in range(n)): v.astype(complex)})


def _reference_defects(N, th, M):
    """The relation defects multiplied out in the band algebra, each
    projected onto the interior mu_s <= M-2."""
    n = N + 1
    gens = [_reference_generator(i, M, th) for i in range(n)]
    adjs = [g.adjoint() for g in gens]
    ident = identity(n, M)
    mask = (np.arange(M + 1) <= M - 2).astype(float)
    proj = BandOperator(n, M, {(0,) * n: reduce(
        np.multiply, [mask.reshape((M + 1,) + (1,) * (n - 1 - k))
                      for k in range(n)]).astype(complex)})
    out = [((adjs[i] @ gens[i]) - ident) @ proj for i in range(n)]
    for i, j in permutations(range(n), 2):
        ph = np.exp(2j * np.pi * float(frac_part(th.entry(i, j))))
        out.append(((gens[i] @ gens[j]) - (gens[j] @ gens[i]).scale(ph)) @ proj)
        out.append(((gens[i] @ adjs[j]) - (adjs[j] @ gens[i]).scale(1 / ph)) @ proj)
    return out


def _same_bands(a, b):
    return a.bands.keys() == b.bands.keys() and all(
        np.array_equal(a.bands[d], b.bands[d]) for d in a.bands)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("kind", ["zero", "rational", "float", "shifted"])
def test_closed_forms_match_the_band_algebra_bit_for_bit(N, kind):
    # the closed-form generators and defects are the band algebra's own
    # products, so their values are equal, not only close
    n = N + 1
    rng = rng_for(f"closed-form-{N}-{kind}")
    for M in range(3, 9):
        th = {"zero": ThetaMatrix.zero(n),
              "rational": ThetaMatrix.random_rational(n, seed=M, den=12),
              "float": random_float_theta(n, rng),
              "shifted": ThetaMatrix.from_upper(
                  n, {(j, k): rng.uniform(-1, 1) + rng.randrange(-10 ** 6, 10 ** 6)
                      for j in range(n) for k in range(j + 1, n)}, mode="float")}[kind]
        for i in range(n):
            assert _same_bands(fock_generator(i, M, th), _reference_generator(i, M, th))
        got, want = list(relation_defects(N, th, M)), _reference_defects(N, th, M)
        assert len(got) == len(want) == n + 2 * N * n
        assert all(map(_same_bands, got, want)), (N, M, kind)
        assert relation_residual(N, th, M) == max(d.norm() for d in want)


def test_norm_refuses_more_than_one_entry_per_row():
    th = ThetaMatrix.random_rational(2, seed=19)
    two_bands = band(fock_generator(0, 4, th)) + fock_generator(1, 4, th)
    with pytest.raises(ValueError):
        two_bands.norm()
    with pytest.raises(ValueError):
        two_bands.adjoint().norm()           # two entries per column


def test_residual_memory_at_the_dimension_cap():
    # at the largest (M+1)^(N+1) under the default cap for each N (N = 4 sits
    # on it) the residual must run in O(dim) memory, not the ~160 GB of a
    # dense matrix of dim 10^5.  Each child reads its own peak, VmHWM: its
    # ru_maxrss after exec starts from the parent's high-water mark, so it
    # would measure pytest's.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    for N, M in [(1, 315), (2, 45), (3, 16), (4, 9)]:
        assert fock.MAX_DIM * 4 // 5 < (M + 1) ** (N + 1) <= fock.MAX_DIM
        code = ("from heegaard.fock import relation_residual\n"
                "from heegaard.phases import ThetaMatrix\n"
                f"r = relation_residual({N}, ThetaMatrix.random_rational({N + 1}, seed=1), {M})\n"
                "with open('/proc/self/status') as fh:\n"
                "    hwm = next(line for line in fh if line.startswith('VmHWM:'))\n"
                "print(r, hwm.split()[1])\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300, env=env, check=True)
        residual, max_rss_kb = proc.stdout.split()
        assert float(residual) <= 1e-10, N
        assert int(max_rss_kb) / 1024 < 250, N


def test_defect_represents_vacuum_projection():
    for th in [ThetaMatrix.zero(2), ThetaMatrix.random_rational(2, seed=9)]:
        ctx = Context.toeplitz(th)
        M = 4
        rep = represent(sphere_defect(ctx), M).toarray()
        expected = np.zeros_like(rep)
        expected[0, 0] = 1
        assert np.allclose(rep, expected)


@pytest.mark.parametrize("n,mode", [(2, "rational"), (3, "rational"), (2, "float")])
def test_represent_multiplicative_in_the_interior(n, mode):
    rng = rng_for("fock-mult")
    th = (ThetaMatrix.random_rational(n, seed=11) if mode == "rational"
          else random_float_theta(n, rng))
    ctx = Context.toeplitz(th)
    M = 6
    shape = (M + 1,) * n
    deep = np.zeros((M + 1) ** n)
    for idx in range(deep.size):
        if all(v <= M - 4 for v in np.unravel_index(idx, shape)):
            deep[idx] = 1
    proj = np.diag(deep).astype(complex)
    for _ in range(6):
        x = random_element(ctx, rng, nterms=2, degree=2)
        y = random_element(ctx, rng, nterms=2, degree=2)
        lhs = represent(x * y, M).toarray() @ proj
        rhs = represent(x, M).toarray() @ represent(y, M).toarray() @ proj
        assert abs(np.linalg.norm(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("kind", ["zero", "rational", "float"])
def test_sphere_normal_form_agrees_with_the_word_off_the_corner(N, kind):
    # represent compresses word by word, so for an interior word the
    # difference from its sphere normal form is the compression of an ideal
    # element W_{p-k} prod_s (1 - Q_s) W_{q-k}*, with k = min(p, q) and Q_s
    # the range projection of w_s^{k_s}: zero on e_mu once some mu_s >= q_s,
    # a unimodular entry at mu = q - k
    n = N + 1
    rng = rng_for(f"fock-sphere-nf-{N}-{kind}")
    th = {"zero": ThetaMatrix.zero(n),
          "rational": ThetaMatrix.random_rational(n, seed=N, den=12),
          "float": random_float_theta(n, rng)}[kind]
    M = 4
    mus = np.indices((M + 1,) * n).reshape(n, -1)
    for _ in range(6):
        p, q = (tuple(rng.randint(1, 3) for _ in range(n)) for _ in range(2))
        word = AlgebraElement.monomial(Context.toeplitz(th), p, q)
        nf = word.with_context(Context.sphere(th))
        assert all(any(min(a, b) == 0 for a, b in zip(*m)) for m in nf.terms)
        diff = (represent(word, M) - represent(nf, M)).toarray()
        off_corner = (mus >= np.array(q)[:, None]).any(axis=0)
        assert np.abs(diff[:, off_corner]).max() < 1e-12, (p, q)
        corner = np.ravel_multi_index([b - min(a, b) for a, b in zip(p, q)], (M + 1,) * n)
        assert abs(abs(diff[:, corner]).max() - 1) < 1e-12


def test_trace_formula_matches_matrix_trace():
    th = ThetaMatrix.random_rational(2, seed=13)
    ctx = Context.toeplitz(th)
    rng = rng_for("fock-trace")
    for M in (3, 5):
        for _ in range(8):
            x = random_element(ctx, rng)
            closed = truncated_trace(x, M)
            direct = represent(x, M).trace()
            assert abs(closed - direct) < 1e-10


def test_scalar_part():
    ctx = Context.toeplitz(ThetaMatrix.zero(2))
    s0 = generator(ctx, 0)
    x = unit(ctx).scale(2) + s0 + s0 * s0.star()
    assert abs(scalar_part(x) - 3) < 1e-14


def test_invariant_examples():
    th = ThetaMatrix.zero(2)
    assert class_invariant(projector_diagonal(0, 1, th)).as_pair() == (1, 0)
    inv1 = class_invariant(projector_diagonal(-1, 1, th))
    assert inv1.as_pair() == (1, 1)
    assert inv1.residual <= 1e-6


def test_invariant_winding_sweep_distinct():
    th = ThetaMatrix.zero(2)
    pairs = {}
    for n in range(-3, 4):
        inv = class_invariant(projector_diagonal(n, 1, th))
        pairs[n] = inv.as_pair()
        assert pairs[n] == (1, -n)
    assert len(set(pairs.values())) == 7


def _lifted_diagonal(diag):
    return [x.with_context(x.ctx.ambient()) for x in diag]


def _fitted_charge(diag, d, N, ms):
    # fit Tr rep_M(lift(E)) - d(M+1)^{N+1} over M and read the (M+1)^N
    # coefficient, independently of the closed form
    xs = np.array([m + 1 for m in ms], dtype=float)
    ys = [sum(truncated_trace(x, m) for x in diag).real - d * (m + 1) ** (N + 1)
          for m in ms]
    return np.polyfit(xs, ys, N)[0]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_compact_charge_closed_form_matches_polyfit(N):
    for th in [ThetaMatrix.zero(N + 1), ThetaMatrix.random_rational(N + 1, seed=23)]:
        for n in range(-3, 4):
            e = projector_diagonal(n, N, th)
            diag = _lifted_diagonal(e)
            longest = max(max(p) for x in diag for (p, q) in x.terms if p == q)
            inv = class_invariant(e)
            assert inv.compact_charge == -n
            # large truncations and the smallest where the trace is a
            # polynomial (M+1 = longest exponent) both fit to the closed form
            for ms in ([8 * k for k in range(1, N + 3)],
                       [longest - 1 + k for k in range(N + 2)]):
                fitted = _fitted_charge(diag, inv.dimension_class, N, ms)
                assert abs(compact_charge(diag) - fitted) < 1e-6, (N, n, ms)


def test_invariant_truncation_below_the_longest_word_is_unstable():
    # winding 3 at N=1 lifts to diagonal words up to S_0^3 S_0^3*; below
    # M+1 = 3 the truncated trace is not yet polynomial and the fit is off.
    # The invariant reads the closed form, which takes no cutoff.
    diag = _lifted_diagonal(projector_diagonal(3, 1, ThetaMatrix.zero(2)))
    assert abs(_fitted_charge(diag, 1, 1, [1, 2, 3]) + 3) > 1e-3
    assert abs(_fitted_charge(diag, 1, 1, [2, 3, 4]) + 3) < 1e-6
    assert class_invariant(projector_diagonal(3, 1, ThetaMatrix.zero(2))).as_pair() == (1, -3)


def test_invariant_input_validation():
    # no list of cutoffs is taken, so none is refused; what is checked is
    # that both numbers are integers
    e = projector_diagonal(1, 1, ThetaMatrix.zero(2))
    assert class_invariant(e).as_pair() == (1, -1)
    with pytest.raises(TypeError):
        class_invariant(e, [8, 16])
    with pytest.raises(UnstableInvariant, match="not an integer"):
        class_invariant([x.scale(Fraction(1, 2)) for x in e])


def lifted_trace_closed_form(n, N, M):
    """Tr rep_M of the lifted diagonal of winding n, in X = M+1:
    sum_f C(m-1+N-f, N-f) X^{f+1} for n = -m, and (X - n) X^N for n >= 0."""
    X = M + 1
    if n >= 0:
        return (X - n) * X ** N
    return sum(comb(-n - 1 + N - f, N - f) * X ** (f + 1) for f in range(N + 1))


def twist(kind, n):
    """Zero, random rational with denominator 8 or 12, or random float."""
    if kind == "zero":
        return ThetaMatrix.zero(n)
    if kind == "float":
        return random_float_theta(n, rng_for(f"diagonal-float-{n}"))
    return ThetaMatrix.random_rational(n, seed=n, den=int(kind[len("den-"):]))


@pytest.mark.parametrize("kind", ["zero", "den-8", "den-12", "float"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_lifted_diagonal_trace_closed_form(N, kind):
    # N+2 cutoffs from the first with M+1 >= max(n, 1); exact off float twists
    th = twist(kind, N + 1)
    for n in [n for n in range(-6, 5) if comb(abs(n) + N, N) <= MAX_SIZE]:
        diag = _lifted_diagonal(projector_diagonal(n, N, th))
        for M in range(max(n, 1) - 1, max(n, 1) + N + 1):
            got = sum(truncated_trace(x, M) for x in diag)
            want = lifted_trace_closed_form(n, N, M)
            if kind == "float":
                assert abs(got - want) <= 1e-12 * want, (N, n, M)
            else:
                assert got == want, (N, n, M)


def test_lifted_diagonal_trace_matches_the_representation():
    # independently of truncated_trace's closed form, at one small size
    th = ThetaMatrix.random_rational(3, seed=5)
    for n in (-2, 2):
        diag = _lifted_diagonal(projector_diagonal(n, 2, th))
        for M in (2, 3):
            got = sum(represent(x, M).trace() for x in diag)
            assert abs(got - lifted_trace_closed_form(n, 2, M)) < 1e-9, (n, M)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


@pytest.mark.parametrize("kind", ["zero", "den-8", "float"])
def test_class_invariant_uses_no_numpy(kind, monkeypatch):
    monkeypatch.setattr(fock, "np", _NoNumpy())
    for N in (1, 2, 3):
        th = twist(kind, N + 1)
        for n in range(-3, 4):
            diag = projector_diagonal(n, N, th)
            inv = class_invariant(diag)
            assert inv.as_pair() == (1, -n), (N, n, kind)
            assert kind == "float" or inv.residual == 0.0, (N, n, kind)


def test_fock_holds_only_the_residual_and_invariant_path():
    # the band algebra and the representation only tests reach live in
    # tests/reference_fock.py
    for name in ("represent", "truncated_trace", "_identity", "_take",
                 "default_truncations", "_longest_diagonal"):
        assert not hasattr(fock, name), name
    assert [f.name for f in fields(fock.SparseOperator)] == ["n", "M", "bands"]
    assert {a for a in vars(fock.SparseOperator) if not a.startswith("_")} == {"dim", "norm"}


def test_fock_imports_nothing_from_bundles():
    tree = ast.parse(Path(fock.__file__).read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module and node.module.split(".")[-1] == "bundles"]


def test_projector_residual_is_bounded_not_exact():
    # the truncated lift of a projector is only approximately idempotent;
    # the defect lives at the cutoff boundary and stays O(1)
    th = ThetaMatrix.zero(2)
    e = chern_galois_projector(-1, 1, th)
    ctx = e.entries[0][0].ctx
    norms = []
    for M in (4, 8):
        blocks = [[represent(x, M).toarray() for x in row] for row in e.entries]
        big = np.block(blocks)
        norms.append(np.linalg.norm(big @ big - big, 2))
    assert all(v < 5 for v in norms)


def test_dimension_cap(monkeypatch):
    assert fock.MAX_DIM == 100_000
    monkeypatch.setattr(fock, "MAX_DIM", 10)
    with pytest.raises(SizeOverflow, match="must be at most 10 "):
        fock_generator(0, 5, ThetaMatrix.zero(2))
    fock_generator(0, 2, ThetaMatrix.zero(2))               # dim 9


def test_dimension_check_forms_no_huge_power():
    # (M+1)^n is formed one factor at a time and abandoned past the cap, so
    # a size whose power would have 10^12 digits is refused at once
    for n, M in [(1, 99_999), (16, 1), (8, 3), (2, 315), (10 ** 9, 0), (1, 0)]:
        fock.check_dim(n, M)
    for n, M in [(1, 100_000), (17, 1), (9, 3), (2, 316), (10 ** 9, 3),
                 (1, 10 ** 1000), (10 ** 9, 10 ** 1000)]:
        with pytest.raises(SizeOverflow, match=r"\(fock\.MAX_DIM\)"):
            fock.check_dim(n, M)
