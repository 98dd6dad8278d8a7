import json
import math
import random

import pytest

from divcalc import lattice, surfaces
from divcalc.divexpr import resolve
from divcalc.errors import (
    ModelError,
    ModelMismatchError,
    NodalClassError,
    NonCurveClassError,
    OverflowGuardError,
    PhiBoundError,
    PhiInvariantError,
    RangeError,
)
from divcalc.lattice import (
    DivClass,
    LatticeModel,
    determinant,
    pair,
    signature,
)
from divcalc.surfaces import (
    blcn,
    blq,
    chi,
    config_from_json_dict,
    enriques,
    genus,
    get_config,
    get_surface,
    list_configs,
    list_surfaces,
    mod4_condition,
    phi,
    quasi_nef_test,
    sigma,
)
from oracle_bruteforce import brute_isotropic, brute_phi


class TestBuiltinModels:
    def test_enriques_lattice_shape(self):
        m = enriques()
        assert m.rank == 10
        assert signature(m.gram) == (1, 9, 0)
        assert determinant(m.gram) == -1
        assert m.canonical == (0,) * 10
        assert m.chi == 1
        # even lattice
        assert all(m.gram[i][i] % 2 == 0 for i in range(10))

    def test_sigma_canonical_squares(self):
        for n in range(1, 10):
            m = sigma(n)
            K = m.canonical_class
            assert pair(K, K) == 9 - n

    def test_sigma_range(self):
        with pytest.raises(ModelError):
            sigma(0)
        with pytest.raises(ModelError):
            sigma(10)

    def test_ruled_models(self):
        q = blq()
        assert pair(q.canonical_class, q.canonical_class) == 8
        assert q.chi == 1
        c6 = blcn(6)
        assert pair(c6.canonical_class, c6.canonical_class) == 0
        assert c6.chi == 0
        # L = aC0 + bf has L.f = a and L.(C0 + nf) = b
        assert q.sign_tests == ((0, 1), (1, 2))
        assert c6.sign_tests == ((0, 1), (1, 6))

    def test_list_and_get(self):
        names = list_surfaces()
        assert "enriques" in names and "sigma3" in names and "blc6" in names
        for nm in names:
            assert get_surface(nm).rank >= 2
        with pytest.raises(ModelError):
            get_surface("sigma99")

    def test_get_surface_from_path(self, tmp_path):
        p = tmp_path / "custom.json"
        p.write_text(json.dumps(sigma(2).to_json_dict()))
        surf = get_surface(str(p))
        assert surf.rank == 3

    def test_builtins_are_built_once_and_shared(self, monkeypatch):
        built = []
        new = lattice.LatticeModel.__new__

        def counting_new(cls, name, *args, **kwargs):
            built.append(name)
            return new(cls, name, *args, **kwargs)

        monkeypatch.setattr(lattice.LatticeModel, "__new__", counting_new)
        names = list_surfaces()
        first = [get_surface(nm) for nm in names]
        for _ in range(3):
            assert all(get_surface(nm) is m for nm, m in zip(names, first))
        assert all(built.count(nm) <= 1 for nm in names)
        assert set(built) <= set(names)
        # other names and the public constructors build on every call
        built.clear()
        assert get_surface("blc7") is not get_surface("blc7")
        assert enriques() is not enriques() and sigma(3) is not sigma(3)
        assert blq() is not blq() and blcn(6) is not blcn(6)
        assert len(built) == 10

    def test_builtin_names_keep_their_order(self):
        # the listing, the unknown-name message and the constructors
        # read one table
        names = ["enriques", "blq", "blc6"] + [f"sigma{i}"
                                               for i in range(1, 10)]
        assert list_surfaces() == names
        with pytest.raises(ModelError, match=f"builtins are "
                                             f"{', '.join(names)}$"):
            get_surface("nosuch")
        assert [get_surface(nm) for nm in names] == [
            enriques(), blq(), blcn(6)] + [sigma(i) for i in range(1, 10)]

    def test_rewritten_model_file_is_read_again(self, tmp_path):
        p = tmp_path / "custom.json"
        doc = sigma(2).to_json_dict()
        p.write_text(json.dumps(doc))
        assert get_surface(str(p)).gram[0][0] == 1
        doc["gram"][0][0] = 3
        p.write_text(json.dumps(doc))
        assert get_surface(str(p)).gram[0][0] == 3

    def test_surface_search_path_env(self, tmp_path, monkeypatch):
        p = tmp_path / "mine.json"
        p.write_text(json.dumps(blq().to_json_dict()))
        monkeypatch.setenv("DIVCALC_SURFACE_PATH", str(tmp_path))
        surf = get_surface("mine")
        assert surf.gram == blq().gram


class TestConfigs:
    def test_builtin_list(self):
        assert set(list_configs()) == {
            "pencil-pair-1", "pencil-pair-2", "pencil-triple-1",
        }

    def test_from_json(self):
        m = config_from_json_dict(
            {"labels": ["E", "E1"], "pairs": [[0, 1, 2]]}, "two"
        )
        assert m.name == "two" and m.gram == ((0, 2), (2, 0))

    # a labels value that is not a list, such as "EF", is refused too,
    # not split into one label per character
    @pytest.mark.parametrize("labels", [[1, None], ["E", 1], [["E"], "F"],
                                        "EF", {"E": 0, "F": 1}, ("E", "F")])
    def test_rejects_non_string_labels(self, labels):
        with pytest.raises(ModelError, match="bad config definition"):
            config_from_json_dict({"labels": labels, "pairs": [[0, 1, 1]]})

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ModelError, match="bad pair entry"):
            config_from_json_dict(
                {"labels": ["E", "E1"], "pairs": [[0, 0, 1]]}
            )

    @pytest.mark.parametrize(
        "pairs", [[[0, 1]], [[0, 1, "x"]], [[0, 1, 2, 3]], [5], 5,
                  [[0, 1, 1.5]], [[0, 1, "1"]], [[0, 1, True]]],
        ids=["short", "non-integer", "long", "not-a-list", "pairs-not-a-list",
             "float", "numeric-string", "bool"])
    def test_rejects_malformed_pair_entries(self, pairs):
        with pytest.raises(ModelError, match="bad config definition"):
            config_from_json_dict({"labels": ["E", "E1"], "pairs": pairs})

    @pytest.mark.parametrize("pairs", [[[0, 1, 1], [1, 0, 2]],
                                       [[0, 1, 1], [0, 1, 1]],
                                       [[0, 2, 0], [1, 2, 1], [2, 0, 0]]])
    def test_rejects_a_pair_given_twice(self, pairs):
        # a second value for a pair is refused, not taken: [0, 1, 1],
        # [1, 0, 2] would build the gram ((0, 2), (2, 0))
        with pytest.raises(ModelError, match=r"bad pair entry .* given twice"):
            config_from_json_dict({"labels": ["E", "E1", "E2"],
                                   "pairs": pairs})

    def test_a_pair_entry_beyond_the_envelope_is_an_overflow(self):
        for entry in ([2**63, 1, 1], [0, 1, -(2**63)], [0, 1, 10**30]):
            with pytest.raises(OverflowGuardError, match="pair entry"):
                config_from_json_dict({"labels": ["E", "E1"],
                                       "pairs": [entry]})

    def test_rejects_negative_pairing(self):
        with pytest.raises(ModelError):
            config_from_json_dict(
                {"labels": ["E", "E1"], "pairs": [[0, 1, -1]]}
            )

    @pytest.mark.parametrize("name, labels, gram", [
        ("pencil-pair-1", ("E", "E1"), ((0, 1), (1, 0))),
        ("pencil-pair-2", ("E", "E1"), ((0, 2), (2, 0))),
        ("pencil-triple-1", ("E", "E1", "E2"),
         ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
    ])
    def test_builtin_models(self, name, labels, gram):
        m = get_config(name)
        assert (m.name, m.labels, m.gram) == (name, labels, gram)
        assert m.canonical == (0,) * len(labels) and m.chi == 1
        assert m.effective_labels == labels
        assert m.sign_tests == tuple(
            tuple(int(i == j) for j in range(len(labels)))
            for i in range(len(labels)))
        assert get_config(name) is m

    def test_file_reusing_a_builtin_name_is_a_different_model(self, tmp_path):
        # a file loads under its stem's name, here the builtin's
        p = tmp_path / "pencil-pair-1.json"
        p.write_text(json.dumps({"labels": ["E", "E1"], "pairs": [[0, 1, 2]]}))
        impostor, builtin = get_config(str(p)), get_config("pencil-pair-1")
        assert impostor.name == "pencil-pair-1"
        assert impostor.effective_labels == impostor.labels
        assert impostor.gram == ((0, 2), (2, 0))
        E = resolve("E", impostor)
        assert E != resolve("E", builtin)
        with pytest.raises(ModelMismatchError, match=(
                r"two models named pencil-pair-1 with different gram\)$")):
            pair(E, resolve("E1", builtin))


class TestNumericalInvariants:
    def test_genus_values(self):
        s1 = sigma(1)
        assert genus(resolve("-2K", s1)) == 9
        q = blq()
        assert genus(resolve("-2K", q)) == 9
        assert genus(resolve("C0+f", q)) == 0
        c6 = blcn(6)
        assert genus(resolve("2C0+12f", c6)) == 7

    def test_genus_rejects_impossible_class(self):
        q = blq()
        with pytest.raises(NonCurveClassError):
            genus(resolve("2C0", q))

    def test_parity_refusals(self):
        # a canonical class that is not characteristic makes C^2 + C.K
        # odd, which no built-in model does
        odd = LatticeModel(name="odd", labels=("A",), gram=((1,),),
                           canonical=(0,), chi=1)
        A = odd.klass((1,))
        with pytest.raises(NonCurveClassError,
                           match=r"^C\^2 \+ C\.K = 1 is odd, not a curve "
                           "class$"):
            genus(A)
        with pytest.raises(NonCurveClassError,
                           match=r"^L\.\(L - K\) = 1 is odd; chi undefined$"):
            chi(A)

    def test_blcn_needs_a_positive_n(self):
        with pytest.raises(ModelError, match=r"^blcn\(n\) needs n >= 1$"):
            blcn(0)

    def test_chi_riemann_roch(self):
        e = enriques()
        L = e.klass((1, 1, 0, 0, 0, 0, 0, 0, 0, 0))
        assert chi(L) == pair(L, L) // 2 + 1
        s3 = sigma(3)
        assert chi(resolve("-2K", s3)) == 19
        c6 = blcn(6)  # chi(O) = 0
        assert chi(resolve("2C0+12f", c6)) == 18

    def test_mod4(self):
        s1 = sigma(1)
        C = resolve("-2K", s1)
        L = resolve("H", s1)
        assert mod4_condition(L, C - L)
        # with C = -2K on this model the condition is automatic
        # (2[a(a+3) - x(x-1)] is divisible by 4), so a failing pair
        # needs a different curve class
        C_odd = resolve("5H-2G1", s1)
        assert not mod4_condition(L, C_odd - L)


class TestPhi:
    def test_certified_on_builtin_configs(self):
        cases = [
            ("pencil-pair-1", "3E+2E1", 2),
            ("pencil-pair-2", "3E+E1", 2),
            ("pencil-pair-2", "4E+E1", 2),
            ("pencil-triple-1", "3E+E1+E2", 2),
            ("pencil-pair-1", "E+2E1", 1),
            ("pencil-pair-2", "E+E1", 2),
        ]
        for cfg_name, expr, want in cases:
            surf = get_config(cfg_name)
            L = resolve(expr, surf)
            res = phi(surf, L)
            assert res.certified, (cfg_name, expr)
            assert res.value == want, (cfg_name, expr, res.value)
            F = res.witness
            assert pair(F, F) == 0
            assert abs(pair(F, L)) == want
            assert res.value**2 <= pair(L, L)

    def test_certified_on_enriques_beyond_one(self):
        # L = aU1 + bU2 + e and F = xU1 + yU2 + f (e, f in E8(-1)) pair to
        # F.L = bx + ay + f.e, and F^2 = 2xy + f^2 = 0 forces xy >= 0
        # since E8(-1) is negative definite (and x = y = 0 forces f = 0,
        # so F = 0); F and -F give the same |F.L|. Every F.L lies in
        # gcd(G.L) Z, the gcd of the pairings of L with the basis.
        cases = [
            # gcd(G.L) = 2, and U1 pairs to 2
            ("2U1+2U2", 2),
            # gcd(G.L) = 3, and U1 pairs to 3
            ("3U1+3U2", 3),
            # gcd(G.L) = 1, but F.L = 2(x + y) - f.R1 with
            # (f.R1)^2 <= 2 (-f^2) = 4xy <= (x + y)^2, so F.L >= x + y
            # for x, y >= 0; F.L = 1 leaves x + y = 1, xy = 0, f = 0 and
            # then F.L = 2. U1 pairs to 2.
            ("2U1+2U2-R1", 2),
            # F.L = 5x + 3y with x, y of one sign and not both 0, so
            # |F.L| >= 3, which U2 attains; L^2 = 30
            ("3U1+5U2", 3),
        ]
        e = enriques()
        for expr, want in cases:
            L = resolve(expr, e)
            res = phi(e, L)
            assert res.certified, expr
            assert res.value == want, (expr, res.value)
            F = res.witness
            assert pair(F, F) == 0 and pair(F, L) == want, expr

    def test_sets_up_the_slice_walk_once(self, monkeypatch):
        calls = []

        def counting_kernel_basis(w, gram):
            calls.append(w)
            return real(w, gram)

        real = lattice._kernel_basis
        monkeypatch.setattr(lattice, "_kernel_basis", counting_kernel_basis)
        s3 = sigma(3)
        res = phi(s3, resolve("3H", s3))
        assert res.value == 3  # three slices t = 1, 2, 3
        assert len(calls) == 1

    def test_walked_phi_forms_g_l_and_l2_once(self, monkeypatch):
        # the walk's set-up takes G L and L^2 from phi's own product, so
        # phi multiplies exactly what _slicer(L) and its windows do and
        # pairs nothing
        surf = get_config("pencil-pair-1")
        L = resolve("3E+2E1", surf)
        products, pairs = [], []

        def counting_mul(a, b):
            products.append(a)
            return a * b

        def counting_pair(a, b):
            pairs.append(a)
            return pair(a, b)

        monkeypatch.setattr(lattice, "mul", counting_mul)
        monkeypatch.setattr(surfaces, "pair", counting_pair)
        res = phi(surf, L)
        in_phi = len(products)
        del products[:]
        points, L2 = lattice._slicer(L)
        for t in range(1, res.value + 1):
            points(t, 0, 0)
        assert (res.value, L2) == (2, 12)
        assert in_phi == len(products) > 0
        assert pairs == []
        # L^2 <= 0 is refused ahead of an unknown mode, and an L^2 beyond
        # the 64-bit envelope ahead of everything else
        with pytest.raises(RangeError, match="phi needs L\\^2 > 0"):
            phi(surf, surf.klass((1, 0)), mode="nonsense")
        with pytest.raises(OverflowGuardError):
            phi(surf, surf.klass((3 * 10**9, 3 * 10**9)), mode="nonsense")
        with pytest.raises(ModelError, match="^unknown phi mode 'nonsense'$"):
            phi(surf, L, mode="nonsense")

    def test_certified_phi_builds_only_its_witness(self, monkeypatch):
        # the slice walk yields coordinate tuples; the first non-empty
        # slice's smallest point is the one class phi builds, also when
        # that slice holds three isotropic classes, as for 3H-G1-G2-G3.
        # Both constructor paths count: __new__ and DivClass._walked.
        built = []

        def counting_new(cls, model, coords):
            built.append(coords)
            return real_new(cls, model, coords)

        def counting_walked(model, coords):
            built.append(coords)
            return real_walked(model, coords)

        real_new, real_walked = DivClass.__new__, DivClass._walked
        s3 = sigma(3)
        cases = [(resolve(expr, s3), want)
                 for expr, want in (("3H", 3), ("3H-G1-G2-G3", 2))]
        assert len(lattice.slice_points(cases[1][0], 2, 0, 0)) == 3
        monkeypatch.setattr(DivClass, "__new__", counting_new)
        monkeypatch.setattr(DivClass, "_walked", staticmethod(counting_walked))
        for L, want in cases:
            del built[:]
            res = phi(s3, L)
            assert res.value == want and res.certified
            assert built == [res.witness.coords]

    def test_a_box_outside_boxed_mode_is_refused(self):
        # only boxed mode reads box, so any other mode refuses one rather
        # than answer as if none were given: on the E10 gram, whose
        # sublattice mode takes the chamber path, and on a walked gram
        s3, E = sigma(3), enriques()
        for surf, L in ((E, resolve("U1+U2", E)), (s3, resolve("3H", s3))):
            want = phi(surf, L)
            for mode, box in (("sublattice", 1), ("sublattice", -5),
                              ("nonsense", 2)):
                with pytest.raises(ModelError, match="box only in boxed"):
                    phi(surf, L, mode=mode, box=box)
            assert phi(surf, L, box=None) == want
            assert phi(surf, L, mode="boxed", box=1).value >= want.value

    def test_rejects_nonpositive_square(self):
        surf = get_config("pencil-pair-1")
        with pytest.raises(RangeError):
            phi(surf, surf.klass((1, 0)))

    def test_sparse_span_refuses_to_certify(self):
        surf = config_from_json_dict({
            "labels": ["E", "E1", "E2"],
            "pairs": [[0, 1, 2], [0, 2, 2], [1, 2, 2]],
        }, "sparse")
        L = surf.klass((1, 1, 1))
        with pytest.raises(PhiInvariantError):
            phi(surf, L)

    def test_refuses_a_class_from_another_model(self):
        s2, s3 = sigma(2), sigma(3)
        with pytest.raises(ModelMismatchError):
            phi(s3, resolve("-K", s2))
        with pytest.raises(ModelMismatchError):
            phi(s3, resolve("-K", s2), mode="boxed", box=1)

    def test_certified_never_above_boxed_on_shipped_models(self):
        # Boxed phi is the least |F.L| over the isotropic F in a box, so
        # it can only be at or above the certified minimum, and equal to
        # it when the certified witness lies in the box. On a K = 0 model
        # a span too sparse to certify (phi^2 > L^2) has no witness pairing
        # to at most isqrt(L^2) in any box either. A shipped K != 0 model
        # reaches neither refusal: both walks go on to a short isotropic
        # class F0, and F0 lies in every box. The seeded draws reach the
        # two outcomes with a witness; two fixed K = 0 cases reach the two
        # refusals.
        rng = random.Random(11)
        models = [get_surface(n) for n in list_surfaces()]
        models += [get_config(n) for n in list_configs()]
        assert len(models) == 15
        sparse = config_from_json_dict({
            "labels": ["E", "E1", "E2"],
            "pairs": [[0, 1, 2], [0, 2, 2], [1, 2, 2]],
        }, "sparse")
        e = enriques()
        # phi = 1 with a witness of coordinate 2; no box-1 class pairs 1
        cases = [(sparse, sparse.klass((1, 1, 1))),
                 (e, resolve("2U1+2U2-R1-R3+R6-R8", e))]
        for m in models:
            count = 0
            while count < 12:
                wide = m.rank if m.rank <= 3 else 1  # coordinates in [-8, 8]
                L = m.klass([rng.randint(-8, 8) if i < wide
                             else rng.randint(-2, 2) for i in range(m.rank)])
                if not 0 < pair(L, L) <= 60:
                    continue
                count += 1
                cases.append((m, L))
        seen = set()
        for m, L in cases:
            box = 1 if m.rank >= 8 else 2
            try:
                cert = phi(m, L)
            except PhiInvariantError:
                with pytest.raises(PhiBoundError):
                    phi(m, L, mode="boxed", box=box)
                outcome = "neither certifies"
            else:
                in_box = max(map(abs, cert.witness.coords)) <= box
                try:
                    boxed = phi(m, L, mode="boxed", box=box)
                except PhiBoundError:
                    assert not in_box, (m.name, L.coords)
                    outcome = "box too small"
                else:
                    assert cert.value <= boxed.value, (m.name, L.coords)
                    if in_box:
                        assert cert.value == boxed.value, (m.name, L.coords)
                    outcome = "witness in box" if in_box else "witness outside"
            if any(m.canonical):
                assert outcome.startswith("witness"), (m.name, L.coords)
            seen.add(outcome)
        assert seen == {"neither certifies", "box too small", "witness in box",
                        "witness outside"}

    def test_boxed_matches_oracle_value_and_witness(self):
        # Boxed phi is brute_phi's value, and its witness is the first hit
        # of the oracle's (value, coordinates) order with a positive value;
        # with no such hit, or one above isqrt(L^2), it raises. On these
        # lattices L^2 > 0 leaves no isotropic class orthogonal to L.
        line = LatticeModel("line", ("A",), ((2,),), (0,), 1)
        rng = random.Random(22)
        seen = set()
        for m, box, draws in ((enriques(), 1, 6), (sigma(3), 2, 10),
                              (sigma(3), 4, 6), (blq(), 2, 10), (line, 2, 4)):
            count = 0
            while count < draws:
                L = m.klass([rng.randint(-3, 3) for _ in range(m.rank)])
                L2 = pair(L, L)
                if not 0 < L2 <= 60:
                    continue
                count += 1
                hits = brute_isotropic(m.gram, L.coords, box)
                positive = [(F, v) for F, v in hits if v > 0]
                # past isqrt(L^2) only where K != 0 (phi's walk)
                if not positive or (positive[0][1] ** 2 > L2
                                    and not any(m.canonical)):
                    with pytest.raises(PhiBoundError):
                        phi(m, L, mode="boxed", box=box)
                    seen.add((m.name, "bound"))
                    continue
                res = phi(m, L, mode="boxed", box=box)
                assert res.value == brute_phi(m.gram, L.coords, box), L
                assert res.witness.coords == positive[0][0], L
                assert not res.certified and res.certificate is None
                seen.add((m.name, "value"))
        assert seen >= {("enriques", "value"), ("sigma3", "value"),
                        ("blq", "value"), ("line", "bound")}

    def test_boxed_mode_is_uncertified(self):
        e = enriques()
        L = e.klass((1, 2, 0, 0, 0, 0, 0, 0, 0, 0))
        res = phi(e, L, mode="boxed", box=2)
        assert not res.certified
        assert res.value == 1  # U2 pairs to 1

    def test_boxed_mode_reports_insufficient_box(self):
        surf = config_from_json_dict(
            {"labels": ["E", "E1"], "pairs": [[0, 1, 5]]}, "wide"
        )
        L = surf.klass((1, 1))  # square 10, every box-1 pairing is 5
        with pytest.raises(PhiBoundError, match=r"box 1 .* isqrt\(L\^2\) = 3"):
            phi(surf, L, mode="boxed", box=1)

    def test_boxed_mode_walks_the_slices_not_the_box(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("boxed phi scanned the box")

        monkeypatch.setattr(lattice, "isotropic_search", refuse)
        monkeypatch.setattr("divcalc.surfaces.isotropic_search", refuse,
                            raising=False)
        e = enriques()
        rng = random.Random(33)
        count = 0
        while count < 4:
            L = e.klass([rng.randint(1, 4), rng.randint(1, 4)]
                        + [rng.randint(-1, 1) for _ in range(8)])
            if pair(L, L) <= 0:
                continue
            count += 1
            cert = phi(e, L)
            res = phi(e, L, mode="boxed", box=3)
            assert res.value == cert.value and not res.certified
            assert max(map(abs, res.witness.coords)) <= 3
            assert pair(res.witness, res.witness) == 0
            assert abs(pair(res.witness, L)) == res.value

    def test_boxed_mode_refusals(self):
        e = enriques()
        L = resolve("U1+2U2", e)
        for box in (0, -1):
            with pytest.raises(ModelError, match="box_bound must be >= 1"):
                phi(e, L, mode="boxed", box=box)
        # signature (2, 1): the complement of L is indefinite, so the slices
        # can be infinite; both modes refuse, where a box scan would answer
        m = LatticeModel("split", ("A", "B", "C"),
                         ((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 0, 0), 1)
        for mode, box in (("sublattice", None), ("boxed", 1)):
            with pytest.raises(ModelError, match="hyperbolic"):
                phi(m, m.klass((1, 0, 0)), mode=mode, box=box)
        # boxed mode has no default box: it is refused before any walk
        for surf in (e, m):
            L = surf.klass((1, 2) + (0,) * (surf.rank - 2))
            with pytest.raises(ModelError, match="^boxed mode needs a box$"):
                phi(surf, L, mode="boxed")

    def test_boxed_mode_takes_a_huge_box(self):
        # the box only filters slice points, so no bound on |F^2| over the
        # box is needed and a box past the 64-bit envelope is no error
        e = enriques()
        L = resolve("U1+4U2-R5-R8", e)
        for box in (1, 3, 10**30):
            res = phi(e, L, mode="boxed", box=box)
            assert (res.value, res.witness) == (1, resolve("-U2", e))

    @pytest.mark.parametrize("name, expr, L2, want", [
        ("sigma7", "-K", 2, 2),
        ("sigma8", "-K", 1, 2),
        ("sigma9", "4H-G1-G2-G3-G4-G5-G6-G7-G8-G9", 7, 3),
    ])
    def test_walk_goes_past_isqrt_on_a_model_with_k(self, name, expr, L2,
                                                    want):
        # phi^2 > L^2 here, so a walk held to isqrt(L^2) finds nothing;
        # it goes on to |(H-G1).L|, which no isotropic class undercuts
        s = get_surface(name)
        L = resolve(expr, s)
        assert pair(L, L) == L2 and want * want > L2
        res = phi(s, L)
        assert res == surfaces.PhiResult(want, resolve("H-G1", s), True)
        for box in (1, 3, 10):
            boxed = phi(s, L, mode="boxed", box=box)
            assert boxed.value == want and not boxed.certified
            assert abs(pair(boxed.witness, L)) == want
        assert brute_phi(s.gram, L.coords, 1) == want

    def test_no_refusal_on_the_sigma_models(self):
        # 300 seeded classes of L^2 > 0 per sigma_n, coordinates in
        # [-6, 6]: every one certifies, and on sigma6-9 some only past
        # isqrt(L^2), where the walk used to refuse. Against brute_phi in
        # a box of at most 10^5 vectors phi is never above the oracle,
        # and equal to it when its witness lies in the box.
        def draw(rng, n):
            # a != 0, then the G coefficients in a shuffled order, each
            # within what a^2 - 1 leaves, so that L^2 > 0
            a = rng.choice([x for x in range(-6, 7) if x])
            left, b = a * a - 1, [0] * n
            for i in rng.sample(range(n), n):
                top = min(6, math.isqrt(left))
                b[i] = rng.randint(-top, top)
                left -= b[i] ** 2
            return [a] + b

        past = {}
        for n in range(1, 10):
            s = sigma(n)
            box = max(b for b in range(1, 200) if (2 * b + 1) ** s.rank <= 10**5)
            rng = random.Random(29)
            past[n] = 0
            for k in range(300):
                L = s.klass(draw(rng, n))
                res = phi(s, L)
                assert res.certified and pair(res.witness, res.witness) == 0
                assert abs(pair(res.witness, L)) == res.value
                beyond = res.value > math.isqrt(pair(L, L))
                past[n] += beyond
                if k < 15 or beyond:
                    brute = brute_phi(s.gram, L.coords, box)
                    assert brute is None or res.value <= brute, L
                    if max(map(abs, res.witness.coords)) <= box:
                        assert res.value == brute, L
        assert past == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 2, 7: 3, 8: 10, 9: 15}


class TestQuasiNef:
    def _surf(self):
        return get_config("pencil-triple-1")

    def test_quasi_nef_at_minus_one(self):
        surf = self._surf()
        L = resolve("2E+E2", surf)
        delta = resolve("E2-E1", surf)
        r = quasi_nef_test(L, [delta])
        assert r.status == "quasi_nef"
        assert r.min_pairing == -1
        assert r.witness.coords == delta.coords

    def test_nef_when_no_negative_pairing(self):
        surf = self._surf()
        L = resolve("E+E1+E2", surf)
        r = quasi_nef_test(L, [])
        assert r.status == "nef"

    def test_violated_at_minus_two(self):
        surf = self._surf()
        L = resolve("2E+2E2", surf)
        delta = resolve("E2-E1", surf)
        r = quasi_nef_test(L, [delta])
        assert r.status == "violated"
        assert r.min_pairing == -2

    @pytest.mark.parametrize("expr, note", [
        ("E2-E1", "L^2 = -2 < 0; cannot be quasi-nef geometrically"),
        ("2E", "L is 2 times a primitive isotropic class; h1 may be "
         "nonzero in the classification"),
        ("E", "h1 expected zero by the classification"),
    ], ids=["negative-square", "isotropic-multiple", "isotropic-primitive"])
    def test_notes_on_the_square(self, expr, note):
        r = quasi_nef_test(resolve(expr, self._surf()), [])
        assert r.notes == (note,)

    def test_empty_pool_is_nef_by_absence_of_evidence(self):
        e = enriques()  # declares no effective classes
        r = quasi_nef_test(resolve("U1-U2", e), [])
        assert (r.status, r.min_pairing, r.witness, r.notes) == (
            "nef", None, None,
            ("L^2 = -2 < 0; cannot be quasi-nef geometrically",
             "empty test pool; nef by absence of evidence"))

    def test_rejects_non_nodal_pool_entry(self):
        surf = self._surf()
        with pytest.raises(NodalClassError):
            quasi_nef_test(resolve("E", surf), [resolve("E1", surf)])
