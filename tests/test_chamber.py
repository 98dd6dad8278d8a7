"""The E10 chamber: simple roots and weights, reduce_to_chamber, and
certified phi on the Enriques lattice with a certificate that
check_phi_certificate replays."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest

from divcalc import chamber, check_phi_certificate, cli, lattice, surfaces
from divcalc.chamber import (
    E10_ROOTS,
    E10_WEIGHTS,
    PhiCertificate,
    reduce_to_chamber,
)
from divcalc.divexpr import resolve
from divcalc.errors import ModelError, OverflowGuardError, RangeError
from divcalc.lattice import (
    I64_MAX,
    DivClass,
    LatticeModel,
    model_from_json_dict,
    pair,
)
from divcalc.surfaces import PhiResult, enriques, get_config, phi
import cli_diff
from oracle_bruteforce import brute_phi

E = enriques()
GRAM = E.gram


def dot(x, y):
    return sum(x[i] * GRAM[i][j] * y[j] for i in range(10) for j in range(10)
               if x[i] and y[j])


def height(x):
    return dot(x, [sum(w[k] for w in E10_WEIGHTS) for k in range(10)])


def act(x, step):
    """One step of a chamber word on the coordinates x, from its
    definition, with this module's dot."""
    if step == ("neg",):
        return [-a for a in x]
    if step[0] == "s":
        a = E10_ROOTS[step[1]]
        c = dot(x, a)
        return [xi + c * ai for xi, ai in zip(x, a)]
    _, e, v = step
    V = [0, 0] + list(v)
    unit = [int(i == e) for i in range(10)]
    xe, xv, vv = dot(x, unit), dot(x, V), dot(V, V)
    return [xi + xe * vi - (xv + vv // 2 * xe) * ui
            for xi, vi, ui in zip(x, V, unit)]


def sample(rng, n, bound):
    """n seeded classes of E10 with L^2 > 0 and coordinates in
    [-bound, bound]; the E8 part is drawn from a box [-k, k] with k
    random, since a uniform draw from the whole box has L^2 > 0 about
    once in a thousand."""
    out = []
    while len(out) < n:
        k = rng.randint(1, bound)
        x = ([rng.randint(-bound, bound) for _ in range(2)]
             + [rng.randint(-k, k) for _ in range(8)])
        if dot(x, x) > 0:
            out.append(E.klass(x))
    return out


def cusp(m):
    """U1 + (m^2 + 1) U2 + m (R1 + ... + R8): L^2 = 2, phi = 1."""
    return E.klass([1, m * m + 1] + [m] * 8)


def phi_enriques_shaped(rng, n):
    """U1 + b U2 + r with r in [-1, 1]^8, L^2 in 2..8, and U1, U2 swapped
    in half of them."""
    out = []
    while len(out) < n:
        r = [rng.randint(-1, 1) for _ in range(8)]
        l2 = rng.choice((2, 4, 6, 8))
        b = (l2 - dot([0, 0] + r, [0, 0] + r)) // 2
        ab = [b, 1] if len(out) % 2 else [1, b]
        out.append(E.klass(ab + r))
    return out


def count_kernel_calls(monkeypatch, name):
    """A list that grows by one at each call of the chamber kernel name
    (an attribute of chamber._kernels()), counted from here to the end
    of the test."""
    calls, kernels = [], vars(chamber._kernels()).copy()
    real = kernels[name]

    def counting(*args):
        calls.append(1)
        return real(*args)

    kernels[name] = counting
    patched = SimpleNamespace(**kernels)
    monkeypatch.setattr(chamber, "_kernels", lambda: patched)
    return calls


def walk_phi(L):
    """The slice walk's phi and witness, through lattice._slicer."""
    points, _ = lattice._slicer(L)
    for t in range(1, math.isqrt(pair(L, L)) + 1):
        found = points(t, 0, 0)
        if found:
            return t, min(found)[0]
    raise AssertionError(f"no witness for {L.coords}")


class TestE10Data:
    def test_roots_are_the_stated_classes(self):
        theta = resolve("2R1+3R2+4R3+6R4+5R5+4R6+3R7+2R8", E)
        stated = [resolve("U2-U1", E), resolve("U1", E) - theta]
        stated += [resolve(f"R{i}", E) for i in range(1, 9)]
        assert [a.coords for a in stated] == list(E10_ROOTS)
        # theta is the highest root of E8: square -2, pairing -1 with R8
        # and 0 with the other R_i
        assert pair(theta, theta) == -2
        assert [pair(theta, resolve(f"R{i}", E)) for i in range(1, 9)] \
            == [0] * 7 + [-1]

    def test_roots_form_t_2_3_7(self):
        C = [[dot(a, b) for b in E10_ROOTS] for a in E10_ROOTS]
        assert all(C[i][i] == -2 for i in range(10))
        assert all(C[i][j] in (0, 1) for i in range(10) for j in range(10)
                   if i != j)
        edges = {(i, j) for i in range(10) for j in range(i + 1, 10)
                 if C[i][j]}
        assert len(edges) == 9  # a tree on 10 nodes
        degree = [sum(i in e for e in edges) for i in range(10)]
        (center,) = [i for i in range(10) if degree[i] == 3]
        arms = []
        for start in (j for e in edges if center in e for j in e
                      if j != center):
            length, prev, node = 1, center, start
            while degree[node] == 2:
                prev, node = node, next(j for e in edges if node in e
                                        for j in e if j not in (node, prev))
                length += 1
            arms.append(length)
        assert sorted(arms) == [1, 2, 6]

    def test_weights_are_dual_and_only_u1_is_isotropic(self):
        assert [[dot(w, a) for a in E10_ROOTS] for w in E10_WEIGHTS] == \
            [[int(i == j) for j in range(10)] for i in range(10)]
        squares = [dot(w, w) for w in E10_WEIGHTS]
        assert squares.count(0) == 1 and min(squares) == 0
        assert E10_WEIGHTS[0] == resolve("U1", E).coords
        # every pair of distinct weights meets positively
        assert min(dot(v, w) for i, v in enumerate(E10_WEIGHTS)
                   for w in E10_WEIGHTS[i + 1:]) >= 1

    def test_height_class(self):
        h = [sum(w[k] for w in E10_WEIGHTS) for k in range(10)]
        assert dot(h, h) == 1240
        assert [dot(h, a) for a in E10_ROOTS] == [1] * 10


# the product kernels of the chamber path, by their names in
# chamber._kernels(), and the fixed matrix each multiplies by
KERNELS = {"roots": chamber._E10_ROOT_ROWS,
           "weights": chamber._E10_WEIGHT_COLUMNS, "gram": GRAM}


def wide_vectors(seed, n, count=300):
    """count seeded vectors of n coordinates: two in three small, and one
    in three with most coordinates near +-I64_MAX, where the kernels'
    sums leave 64 bits."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 3:
            yield [rng.randint(-60, 60) for _ in range(n)]
        else:
            yield [rng.choice((1, -1)) * (I64_MAX - rng.randint(0, 9))
                   if rng.random() < 0.7 else rng.randint(-9, 9)
                   for _ in range(n)]


def plain_shift(x, xe, v):
    """x.v + (v^2 / 2)(x.e) for x's E8(-1) part and v, by plain
    products with the E8(-1) rows."""
    Nv = [sum(map(mul, row, v)) for row in chamber._E8_ROWS]
    return sum(map(mul, x[2:], Nv)) + sum(map(mul, v, Nv)) // 2 * xe


def plain_cusp(x):
    """_cusp_step's choice, (e, v, shift) or None, from its docstring:
    the rounding v = -round(r / (x.e)), the shift and the height change
    (x.e)(h.v) - shift (h.e), U1 winning a tie."""
    best, drop = None, 0
    for e in (0, 1):
        xe = x[1 - e]
        v = tuple(-((2 * ri + xe) // (2 * xe)) for ri in x[2:])
        if any(v):
            shift = plain_shift(x, xe, v)
            change = (xe * sum(map(mul, chamber._E8_HEIGHT_ROW, v))
                      - shift * chamber._E10_HEIGHT_ROW[e])
            if change < drop:
                best, drop = (e, v, shift), change
    return best


class TestKernels:
    @pytest.mark.parametrize("name", KERNELS)
    def test_each_kernel_is_its_matrix_product(self, name):
        # the kernel is exact as the plain product, within 64 bits and
        # past them
        rows = KERNELS[name]
        kernel = getattr(chamber._kernels(), name)
        for x in wide_vectors(1601, len(rows[0])):
            want = [sum(map(mul, row, x)) for row in rows]
            assert kernel(x) == want and kernel(tuple(x)) == want, x

    def test_the_cusp_kernel_is_the_plain_formula(self):
        # x.U2 and x.U1 > 0, as on the chamber path, and then classes of
        # the closed chamber, where v is nonzero but no transvection
        # lowers the height (the reduction runs only after the wide
        # vectors, so a faulty kernel fails here before it can stall
        # it): the kernel's choice is the formula's, and every choice,
        # none, U1 and U2, is met
        cusp_kernel, taken = chamber._kernels().cusp, Counter()
        wide = list(wide_vectors(1602, 10))
        for x in wide:
            x[:2] = [abs(a) or 1 for a in x[:2]]
        chambered = (reduce_to_chamber(L)[0].coords
                     for L in sample(random.Random(1604), 100, 30))
        for x in itertools.chain(wide, chambered):
            want = plain_cusp(x)
            assert cusp_kernel(x) == want and cusp_kernel(tuple(x)) == want, x
            taken[want and want[0]] += 1
        assert min(taken[None], taken[0], taken[1]) > 50, taken

    def test_the_transvection_kernel_is_the_plain_formula(self):
        # E(x) = x + (x.e) v - shift e along U1 and U2, with the shift
        # computed by the kernel or handed to it, against act's gram
        # products; v is drawn wide too
        transvection = chamber._kernels().transvection
        vectors = wide_vectors(1603, 18)
        for i, xv in enumerate(vectors):
            x, v, e = xv[:10], tuple(xv[10:]), i % 2
            want = act(x, ("t", e, v))
            assert transvection(x, e, v, None) == want, xv
            shift = plain_shift(x, x[1 - e], v)
            assert transvection(tuple(x), e, v, shift) == want, xv

    def test_cusp_kernel_calls_on_the_heavy_draw(self, monkeypatch):
        # the draw of bench_heavy's enriques-phi-200 case (seed 7,
        # coordinates in [-30, 30]), with its pinned word length and sum
        # of phi: the reduction asks the cusp kernel once per cusp step,
        # 633 times, a work count that no timing noise moves
        classes = sample(random.Random(7), 200, 30)
        calls = count_kernel_calls(monkeypatch, "cusp")
        results = [phi(E, L) for L in classes]
        assert sum(len(r.certificate.word) for r in results) == 12157
        assert sum(r.value for r in results) == 2547
        assert len(calls) == 633

    def test_kernels_are_built_once_on_first_use(self):
        # a process that reduces no E10 class builds no kernel: importing
        # divcalc and walking phi on another gram leave the cache empty,
        # and phi on the Enriques lattice fills it once
        code = (
            "from divcalc import chamber, get_config, resolve, phi, "
            "enriques\n"
            "s = get_config('pencil-pair-1')\n"
            "phi(s, resolve('3E+2E1', s))\n"
            "print(chamber._kernels.cache_info().currsize)\n"
            "E = enriques()\n"
            "for e in ('U1+4U2+R1+R5', 'U1+U2', '3U1+5U2-R1'):\n"
            "    phi(E, resolve(e, E))\n"
            "info = chamber._kernels.cache_info()\n"
            "print(info.currsize, info.misses)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(chamber.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1", "1"]
        assert chamber._kernels() is chamber._kernels()

    def test_phi_images_l_by_the_gram_kernel(self, monkeypatch):
        # phi's (G L, L^2) on the E10 gram is _gram_image's, and the boxed
        # walk's set-up is handed that pair
        images = []

        def recording_slicer(L, image=None):
            images.append((L, image))
            return real_slicer(L, image)

        real_slicer = lattice._slicer
        monkeypatch.setattr(surfaces, "_slicer", recording_slicer)
        classes = sample(random.Random(1611), 100, 30)
        for L in classes:
            assert chamber._e10_image(L) == lattice._gram_image(L), L.coords
        boxed = phi_enriques_shaped(random.Random(1612), 6)
        for L in boxed:
            phi(E, L, mode="boxed", box=2)
        assert images == [(L, lattice._gram_image(L)) for L in boxed]
        U = resolve("U1+2U2", E)
        phi(E, U, mode="boxed", box=1)
        assert images[-1] == (U, ([2, 1] + [0] * 8, 4))

    def test_the_certificate_check_calls_no_kernel(self, monkeypatch):
        # results saved first; with every kernel raising, each still
        # checks, so check_phi_certificate is independent of them
        classes = sample(random.Random(1621), 60, 30)
        classes += [cusp(m) for m in (10, 10**9)] + [-cusp(3)]
        classes += [E.klass(x) for x in TestReduceToChamber.TIES]
        saved = [(L, phi(E, L)) for L in classes]

        def refuse(*args):
            raise AssertionError("a kernel was called")

        raising = SimpleNamespace(
            **{name: refuse for name in vars(chamber._kernels())})
        monkeypatch.setattr(chamber, "_kernels", lambda: raising)
        for L, res in saved:
            assert check_phi_certificate(L, res), L.coords
        with pytest.raises(AssertionError, match="kernel was called"):
            phi(E, classes[0])

    def test_a_wrong_kernel_fails_the_check(self, monkeypatch):
        # the root rows' kernel with one entry off: phi still returns,
        # and no result it gives passes the check
        rows = [list(row) for row in chamber._E10_ROOT_ROWS]
        rows[3][0] += 1
        wrong = SimpleNamespace(**vars(chamber._kernels()))
        wrong.roots = chamber._linear(rows)
        monkeypatch.setattr(chamber, "_kernels", lambda: wrong)
        for L in sample(random.Random(1631), 40, 30) + [cusp(10)]:
            assert not check_phi_certificate(L, phi(E, L)), L.coords


class TestReduceToChamber:
    def test_cusp_step_only_lowers_the_height(self):
        # a class of the closed chamber has the least height in its
        # orbit, so no transvection is taken there; elsewhere one is
        # taken only when it lowers L.h, which is what ends the loop
        h = [sum(w[k] for w in E10_WEIGHTS) for k in range(10)]
        for x in E10_WEIGHTS[1:] + (tuple(h),):
            assert chamber._cusp_step(list(x)) is None, x
        taken = 0
        for L in sample(random.Random(1211), 100, 8):
            step = chamber._cusp_step(list(L.coords))
            if step:
                taken += 1
                assert height(step[2]) < height(L.coords), L.coords
        assert taken

    def test_cusp_step_builds_only_the_image_it_takes(self, monkeypatch):
        # the two transvections are compared by their height change, so a
        # step builds at most one image, and it takes the step that
        # building both images and comparing their heights would take
        steps, both = 0, 0

        def checked_cusp_step(x):
            nonlocal steps, both
            want, top, live = None, height(x), 0
            for e in (0, 1):
                xe = x[1 - e]
                v = tuple(-((2 * ri + xe) // (2 * xe)) for ri in x[2:])
                if any(v):
                    live += 1
                    y = act(x, ("t", e, v))
                    if height(y) < top:
                        want, top = (e, v, y), height(y)
            images.clear()
            got = real_cusp_step(x)
            assert len(images) <= 1 and got == want, x
            steps += 1
            both += live == 2
            return got

        images = count_kernel_calls(monkeypatch, "transvection")
        real_cusp_step = chamber._cusp_step
        monkeypatch.setattr(chamber, "_cusp_step", checked_cusp_step)
        classes = sample(random.Random(1221), 200, 40)
        classes += [cusp(m) for m in (3, 10**4)] + [-cusp(7)]
        for L in classes:
            reduce_to_chamber(L)
        assert steps > len(classes) and both > 20

    # classes of 3,000 drawn by random.Random(31) with coordinates in
    # [-30, 30] whose reduction meets a cusp step where the transvections
    # along U1 and U2 lower the height equally: (phi, word length, the
    # word's transvections as (e, v), witness), with U1 winning each tie
    TIES = {
        (-21, -20, 7, 3, 14, 12, -11, -16, -19, -10): (
            5, 120, [(0, (0, 0, 1, 1, -1, -1, -1, -1)),
                     (0, (0, 0, 0, -1, -1, -1, 0, 0))],
            (-3, -3, 0, -1, 0, -1, -4, -4, -4, -2)),
        (24, 24, 7, 9, 16, 14, -5, 4, -5, -17): (
            9, 100, [(0, (0, 0, -1, -1, 0, 0, 0, 1)),
                     (1, (0, 0, -1, -1, -1, 0, 0, 0))],
            (2, 2, 1, 1, 2, 2, 0, 1, 0, -1)),
        (-30, -29, -28, 2, -20, -18, -17, -15, 10, 4): (
            4, 61, [(0, (-1, 0, -1, -1, -1, -1, 0, 0)),
                    (1, (0, 0, 2, 3, 3, 3, 2, 1))],
            (-1, -1, -1, 0, -1, -1, -1, -1, 0, 0)),
    }

    def test_cusp_step_tie_goes_to_u1(self, monkeypatch):
        # U1 wins a tie, as _cusp_step says: each tie met on the way is
        # checked against the heights of both images, and phi's word and
        # witness on these classes are pinned
        ties = []

        def checked_cusp_step(x):
            got = real_cusp_step(x)
            changes = []
            for e in (0, 1):
                xe = x[1 - e]
                v = tuple(-((2 * ri + xe) // (2 * xe)) for ri in x[2:])
                if any(v):
                    changes.append(height(act(x, ("t", e, v))) - height(x))
            if len(changes) == 2 and changes[0] == changes[1] < 0:
                ties.append(got[0])
            return got

        real_cusp_step = chamber._cusp_step
        monkeypatch.setattr(chamber, "_cusp_step", checked_cusp_step)
        for coords, (value, length, steps, witness) in self.TIES.items():
            res = phi(E, E.klass(coords))
            word = res.certificate.word
            assert res.value == value, coords
            assert len(word) == length, coords
            assert [s[1:] for s in word if s[0] == "t"] == steps, coords
            assert res.witness.coords == witness, coords
            assert check_phi_certificate(E.klass(coords), res), coords
        assert ties == [0] * len(self.TIES)

    def test_witness_starts_from_u1_coordinates(self, monkeypatch):
        # w^-1 U1 undoes the word's last step first; when that is a
        # transvection it acts on U1's coordinates (1, 0, ..., 0), with
        # no product with the weight columns (their kernel). A product is
        # made only where a transvection is undone right after a
        # reflection or the sign, or at the end after one
        words = [reduce_to_chamber(L)[1] for L in
                 [cusp(m) for m in (10, 10**4, 10**9)]
                 + sample(random.Random(1231), 200, 40)]
        products = count_kernel_calls(monkeypatch, "weights")
        ends = Counter()
        for word in words:
            F = [1] + [0] * 9
            for step in reversed(word):
                F = act(F, step if step[0] != "t" else
                        ("t", step[1], tuple(-a for a in step[2])))
            kinds = [step[0] for step in reversed(word)]
            needed = sum(a != "t" and b == "t" for a, b in zip(kinds,
                                                             kinds[1:]))
            needed += bool(kinds) and kinds[-1] != "t"
            products.clear()
            assert chamber._unword(word, E10_WEIGHTS[0]) == tuple(F), word
            assert len(products) == needed, word
            ends[kinds[0] if kinds else None] += 1
        assert ends["t"] >= 3 and ends["s"] > 20

    def test_witness_starts_from_u1_pairings(self, monkeypatch):
        # phi hands _unword U1's pairings with the roots, (1, 0, ..., 0):
        # its witness is _unword(word, U1) without them, and it makes no
        # product with the root rows (their kernel) to undo a closing
        # reflection or sign
        products = count_kernel_calls(monkeypatch, "roots")
        U1, ends = E10_WEIGHTS[0], Counter()
        for L in ([cusp(m) for m in (10, 10**4, 10**9)]
                  + sample(random.Random(1232), 200, 40)):
            res = phi(E, L)
            word = res.certificate.word
            counts = []
            for d in (None, [1] + [0] * 9):
                products.clear()
                assert chamber._unword(word, U1, d) == res.witness.coords
                counts.append(len(products))
            last = word[-1][0] if word else None
            assert counts[0] - counts[1] == (last in ("s", "neg")), word
            ends[last] += 1
        assert ends["s"] > 20 and ends["t"] >= 3, ends

    def test_replays_into_the_chamber(self):
        # the classes of cli_diff's phi corpus, and cusp classes; w^-1
        # (_unword, on any coordinates) takes each L' = wL back to L
        classes = [E.klass(x) for x in cli_diff.phi_classes()]
        classes += [cusp(m) for m in (1, 2, 3, 10, 100, 10**4, 10**6, 10**9)]
        classes += [-cusp(m) for m in (5, 10**9)]
        kinds = set()
        for L in classes:
            Lc, word = reduce_to_chamber(L)
            x = list(L.coords)
            for step in word:
                x = act(x, step)
                kinds.add(step[0])
            assert tuple(x) == Lc.coords, L.coords
            assert chamber._unword(word, Lc.coords) == L.coords
            assert min(dot(x, a) for a in E10_ROOTS) >= 0, L.coords
            assert dot(x, x) == pair(L, L)
            assert len(word) <= abs(height(L.coords)), L.coords
        assert kinds == {"neg", "s", "t"}

    def test_reduction_rebuilds_x_only_after_a_reflection(self, monkeypatch):
        # the reduction keeps x when its pairings, taken after the cusp
        # steps, are all >= 0, so x is rebuilt from the weight columns
        # (their kernel) only where the reflections stop: at each
        # alpha_-1 or alpha_0 step that leaves L outside the chamber, and
        # after the last step when it is a reflection; the cusp classes'
        # one transvection makes none
        classes = [cusp(m) for m in (10, 10**4, 10**9)]
        classes += sample(random.Random(1231), 200, 40)
        products = count_kernel_calls(monkeypatch, "weights")
        ends = Counter()
        for L in classes:
            products.clear()
            x, c, word = chamber._reduce(list(L.coords))
            end = word[-1][0] if word else None
            breaks = sum(s[0] == "s" and s[1] < 2 for s in word[:-1])
            assert len(products) == breaks + (end == "s"), L.coords
            assert c == [dot(x, a) for a in E10_ROOTS] and min(c) >= 0
            assert tuple(x) == reduce_to_chamber(L)[0].coords
            ends[end] += 1
        assert ends["t"] >= 3 and ends["s"] > 20

    def test_cusp_classes_take_one_transvection(self):
        for m in (10, 10**4, 10**9):
            Lc, word = reduce_to_chamber(cusp(m))
            assert Lc == resolve("U1+U2", E)
            assert [s[0] for s in word] == ["t"]

    def test_refusals(self):
        for expr in ("U1", "U1-U2"):
            with pytest.raises(RangeError, match="chamber reduction needs "
                               "L\\^2 > 0"):
                reduce_to_chamber(resolve(expr, E))
        s = get_config("pencil-pair-1")
        with pytest.raises(ModelError, match="E10 gram"):
            reduce_to_chamber(resolve("E+E1", s))
        with pytest.raises(OverflowGuardError):
            reduce_to_chamber(E.klass([3 * 10**9] * 2 + [0] * 8))


class TestChamberPhi:
    def test_agrees_with_the_slice_walk(self):
        rng = random.Random(1301)
        classes = sample(rng, 300, 8)
        classes += phi_enriques_shaped(rng, 40)
        classes += [cusp(m) for m in (1, 2, 3, 7, 10, 31, 100, 1000)]
        small = sample(rng, 8, 2)
        values = set()
        for L in classes + small:
            res = phi(E, L)
            t, Fw = walk_phi(L)
            assert res.value == t, L.coords
            F = res.witness.coords
            assert dot(F, F) == 0 and dot(F, L.coords) == t, L.coords
            assert dot(Fw, Fw) == 0 and dot(Fw, L.coords) == t, L.coords
            values.add(t)
        assert values >= {1, 2, 3}
        for L in small:
            res = phi(E, L)
            brute = brute_phi(GRAM, L.coords, 1)
            assert brute is not None and res.value <= brute, L.coords
            if max(map(abs, res.witness.coords)) <= 1:
                assert res.value == brute, L.coords

    def test_certificates_check(self):
        rng = random.Random(1401)
        for L in sample(rng, 60, 8) + [cusp(10**9), -cusp(3)]:
            res = phi(E, L)
            assert res.certified and res.certificate.phi == res.value
            assert check_phi_certificate(L, res), L.coords

    def test_builds_no_slicer(self, monkeypatch):
        calls = []

        def counting_kernel_basis(w, gram):
            calls.append(w)
            return real(w, gram)

        real = lattice._kernel_basis
        monkeypatch.setattr(lattice, "_kernel_basis", counting_kernel_basis)
        for L in phi_enriques_shaped(random.Random(1501), 8):
            phi(E, L)
        assert calls == []
        phi(E, resolve("U1+2U2", E), mode="boxed", box=1)
        assert len(calls) == 1  # boxed mode still walks

    def test_cusp_regression(self, monkeypatch):
        # certified phi walked about 58 m slice steps for these classes
        def refuse(*args):
            raise AssertionError("phi set up the slice walk")

        monkeypatch.setattr(lattice, "_kernel_basis", refuse)
        for m in (10, 10**4, 10**9):
            L = cusp(m)
            res = phi(E, L)
            assert res.value == 1
            assert check_phi_certificate(L, res)
            assert len(res.certificate.word) <= 3

    def test_refuses_as_the_walk_does(self):
        # L^2 and its 64-bit envelope are checked before the path is
        # chosen, so both paths refuse with the same errors
        for expr in ("U1", "U1-U2", "R1"):
            with pytest.raises(RangeError, match="phi needs L\\^2 > 0"):
                phi(E, resolve(expr, E))
        big = E.klass([3 * 10**9] * 2 + [0] * 8)  # L^2 = 1.8e19
        with pytest.raises(OverflowGuardError):
            phi(E, big)

    def test_path_follows_the_gram_not_the_kind(self, monkeypatch):
        calls = []

        def counting_kernel_basis(w, gram):
            calls.append(w)
            return real(w, gram)

        real = lattice._kernel_basis
        monkeypatch.setattr(lattice, "_kernel_basis", counting_kernel_basis)
        # the E10 gram under other labels takes the chamber path
        labels = ("A", "B") + tuple(f"C{i}" for i in range(8))
        copy = LatticeModel("relabelled", labels, GRAM, (0,) * 10, 1)
        L = copy.klass((1, 4, 1, 0, 0, 0, 1, 0, 0, 0))
        res = phi(copy, L)
        assert calls == [] and res.witness.model is copy
        assert check_phi_certificate(L, res)
        # the Enriques labels with another hyperbolic gram, here E10 with
        # U1 and U2 moved last, keep the walk: the gram alone picks it
        order = list(range(2, 10)) + [0, 1]
        doc = {"name": "moved",
               "basis": [E.labels[i] for i in order],
               "gram": [[GRAM[i][j] for j in order] for i in order],
               "canonical": [0] * 10, "chi": 1}
        moved = model_from_json_dict(doc)
        M = moved.klass([L.coords[i] for i in order])
        walked = phi(moved, M)
        assert len(calls) == 1 and walked.certificate is None
        assert walked.value == res.value and walked.certified
        assert not check_phi_certificate(M, walked)

    def test_a_model_built_from_lists_is_the_tuple_model(self):
        # the model stores its rows as tuples, so a copy of the E10 gram
        # built from lists is the builtin model and takes the chamber path
        fields = E._asdict()
        fields.update(gram=[list(row) for row in GRAM],
                      canonical=list(E.canonical))
        copy = LatticeModel(**fields)
        assert copy == E and hash(copy) == hash(E)
        assert copy.gram == GRAM and isinstance(copy.canonical, tuple)
        L = copy.klass((1, 4, 1, 0, 0, 0, 1, 0, 0, 0))
        res = phi(copy, L)
        assert res.certificate is not None and check_phi_certificate(L, res)
        assert res == phi(E, E.klass(L.coords))


class TestCheckPhiCertificate:
    def _case(self):
        # one transvection along U2, then the swap alpha_-1
        L = resolve("U1+4U2+R1+R5", E)
        res = phi(E, L)
        assert [s[0] for s in res.certificate.word] == ["t", "s"]
        return L, res

    def _mutated(self, res, word=None, pairings=None, value=None,
                 witness=None):
        cert = res.certificate
        value = res.value if value is None else value
        return PhiResult(
            value, witness or res.witness, True,
            PhiCertificate(cert.word if word is None else word,
                           cert.pairings if pairings is None else pairings,
                           value))

    def test_accepts_the_certificate(self):
        L, res = self._case()
        assert check_phi_certificate(L, res)

    def test_rejects_mutations(self):
        L, res = self._case()
        word, pairings = res.certificate.word, res.certificate.pairings
        (t, e, v), (s, j) = word
        i = next(i for i, p in enumerate(pairings) if p)
        other = phi(E, resolve("2U1+2U2-R1", E)).witness
        mutants = {
            "dropped step": self._mutated(res, word=word[:1]),
            "dropped first step": self._mutated(res, word=word[1:]),
            "changed root": self._mutated(res, word=(word[0], (s, j + 1))),
            "negative root index": self._mutated(res,
                                                 word=(word[0], (s, -10))),
            "changed vector": self._mutated(
                res, word=((t, e, (v[0] + 1,) + v[1:]), word[1])),
            "changed cusp": self._mutated(res, word=((t, 1 - e, v), word[1])),
            "flipped pairing": self._mutated(
                res, pairings=pairings[:i] + (-pairings[i],)
                + pairings[i + 1:]),
            "wrong phi": self._mutated(res, value=res.value + 1),
            "other witness": self._mutated(res, witness=other),
            "malformed step": self._mutated(res, word=word + (("x",),)),
        }
        for name, mutant in mutants.items():
            assert not check_phi_certificate(L, mutant), name

    def test_rejects_an_honest_word_that_stops_short(self):
        # the word without its last step, with the true pairings, L'.U1
        # and w^-1 U1 of what it reaches: every check holds but the
        # chamber's, and the value 2 is not phi(L) = 1
        L, res = self._case()
        word = res.certificate.word[:1]
        (t, e, v), = word
        x = act(list(L.coords), word[0])
        F = act([1] + [0] * 9, (t, e, tuple(-a for a in v)))
        pairings = tuple(dot(x, a) for a in E10_ROOTS)
        assert min(pairings) < 0 and dot(F, L.coords) == x[1] == 2
        short = PhiResult(2, E.klass(F), True,
                          PhiCertificate(word, pairings, 2))
        assert not check_phi_certificate(L, short)

    def test_malformed_certificates_are_refused_not_raised(self):
        L, res = self._case()
        cert = res.certificate
        malformed = {
            "pairings None": res._replace(
                certificate=cert._replace(pairings=None)),
            "word None": res._replace(certificate=cert._replace(word=None)),
            "witness None": res._replace(witness=None),
            "plain tuple": res._replace(certificate=tuple(cert)),
            "dict": res._replace(certificate=cert.to_json_dict()),
        }
        for name, mutant in malformed.items():
            assert check_phi_certificate(L, mutant) is False, name

    def test_refuses_numbers_that_are_not_ints(self):
        # each mutant equals the honest result number for number, as a
        # float or a bool may, and each is refused
        L = resolve("U1+7U2+R1-R2+R4+R5+R6-R7-R8", E)
        res = phi(E, L)
        cert = res.certificate
        assert check_phi_certificate(L, res)
        mutants = {
            "float phi and value": res._replace(
                value=float(res.value),
                certificate=cert._replace(phi=float(cert.phi))),
            "float pairings": res._replace(certificate=cert._replace(
                pairings=tuple(map(float, cert.pairings)))),
            "float zero transvection": res._replace(certificate=cert._replace(
                word=cert.word + (("t", 0, (0.0,) * 8),))),
            "bool root index": res._replace(certificate=cert._replace(
                word=(("s", True), ("s", True)) + cert.word)),
            "bool cusp": res._replace(certificate=cert._replace(
                word=(("t", False, (0,) * 8),) + cert.word)),
            "float witness": res._replace(witness=DivClass._walked(
                E, tuple(map(float, res.witness.coords)))),
        }
        for name, mutant in mutants.items():
            assert check_phi_certificate(L, mutant) is False, name

    def test_rejects_walk_results_and_other_grams(self):
        s = get_config("pencil-pair-1")
        L = resolve("3E+2E1", s)
        assert not check_phi_certificate(L, phi(s, L))
        L = resolve("U1+2U2", E)
        assert not check_phi_certificate(L, phi(E, L, mode="boxed", box=1))


class TestCli:
    def test_text_and_json_carry_the_certificate(self, capsys):
        argv = ["phi", "--surface", "enriques", "--curve", "U1+4U2+R1+R5"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "phi(U1+4U2+R1+R5) = 1"
        assert lines[2].startswith("certificate: w = t(U2; ")
        assert lines[2].endswith(" s(0); L'.alpha = 1 1 0 0 0 0 0 0 0 0; "
                                 "phi = L'.U1 = 1")
        assert cli.main(argv[:1] + ["--json"] + argv[1:]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert "notes" not in result
        assert result["certificate"]["word"][1] == ["s", 0]
        assert result["certificate"]["phi"] == 1

    def test_refusal_text(self, capsys):
        for curve, text in (("U1", "phi needs L^2 > 0, got 0"),
                            ("3000000000U1+3000000000U2",
                             "exceeds the 64-bit envelope")):
            argv = ["phi", "--surface", "enriques", "--curve", curve]
            assert cli.main(argv) == 1
            assert text in capsys.readouterr().err

    def test_walk_results_have_no_certificate(self, capsys):
        argv = ["phi", "--config", "pencil-pair-1", "--curve", "E+2E1"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert cli.main(argv[:1] + ["--json"] + argv[1:]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["certificate"] is None and "notes" not in result
