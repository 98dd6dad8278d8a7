import copy
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divcalc
import divcalc.cli  # noqa: F401 (defines the _Outcome record)
from divcalc import lattice
from divcalc.chamber import (
    PhiCertificate,
    check_phi_certificate,
    reduce_to_chamber,
)
from divcalc.criteria import GaussianVerdict, check_main_theorem
from divcalc.divexpr import render, resolve
from divcalc.enumeration import enumerate_bogreider, explainer
from divcalc.errors import (
    ModelError,
    ModelMismatchError,
    NodalClassError,
    OverflowGuardError,
)
from divcalc.lattice import (
    DivClass,
    LatticeModel,
    determinant,
    hodge_filter,
    isotropic_search,
    load_model,
    model_from_json_dict,
    pair,
    reflect_nodal,
    signature,
    slice_points,
    vectors_of_norm,
)
from divcalc.surfaces import (
    PhiResult,
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
from oracle_bruteforce import (
    brute_determinant,
    brute_inertia,
    brute_isotropic,
    brute_slice,
    slice_box,
)

E10 = enriques()

# Bourbaki-ordered E8 Cartan matrix (positive definite twin of the E8(-1)
# block inside the rank-10 model).
E8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
for i, j in ((0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)):
    E8[i][j] = E8[j][i] = -1


def _model(gram, labels=None, canonical=None, **kw):
    n = len(gram)
    return LatticeModel(
        name="t",
        labels=tuple(labels or [f"B{i}" for i in range(n)]),
        gram=tuple(tuple(r) for r in gram),
        canonical=tuple(canonical or [0] * n),
        chi=1,
        **kw,
    )


class TestModelValidation:
    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ModelError):
            _model([[0, 1], [2, 0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ModelError):
            _model([[2, 0], [0, 2]], labels=["A", "A"])

    def test_rejects_oversized_entries(self):
        with pytest.raises(OverflowGuardError):
            _model([[2**63, 0], [0, 2]])

    def test_json_round_trip(self):
        m = sigma(2)
        doc = m.to_json_dict()
        again = model_from_json_dict(doc)
        assert again.gram == m.gram
        assert again.labels == m.labels
        assert again.canonical == m.canonical

    @pytest.mark.parametrize(
        "field, value",
        [("effective", 3),
         ("gram", [[1, 0], [0, "x"]]), ("chi", None),
         ("gram", [[1.5, 0], [0, -1]]), ("canonical", [True, 0]),
         ("chi", "1"), ("basis", [1, None]), ("basis", ["H", 1]),
         ("effective", [1]), ("sign_tests", 3), ("sign_tests", "HG"),
         ("sign_tests", [1, 0]), ("sign_tests", [[1, "x"]]),
         ("sign_tests", [[1.0, 0]]), ("sign_tests", [[True, 0]]),
         # label lists must be JSON lists ("HG" is not two labels) and
         # the name a string
         ("basis", "HG"), ("basis", {"H": 0, "G": 1}), ("effective", "G"),
         ("name", 5), ("name", None), ("name", ["sigma1"]),
         # a string is a sequence, but "" is not "no sign tests", nor a
         # gram of no rows, and "10" is not the row (1, 0)
         ("sign_tests", ""), ("sign_tests", ["10"]), ("gram", "")])
    def test_json_rejects_malformed_fields(self, field, value):
        doc = dict(sigma(1).to_json_dict(), **{field: value})
        with pytest.raises(ModelError, match="bad lattice definition"):
            model_from_json_dict(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [("gram", [[1.5, 0], [0, -1]], "gram entry must be an integer"),
         ("canonical", [0, "1"], "canonical entry must be an integer"),
         ("chi", True, "chi must be an integer"),
         ("sign_tests", [[1, None]], "sign_tests entry must be an integer"),
         ("name", 5, "model name must be a string"),
         ("basis", ["H", 1], "labels must be a tuple of strings"),
         ("effective", [None], "effective_labels must be a tuple of strings"),
         ("basis", [], "model needs at least one basis label"),
         ("effective", ["H", "X"], r"effective_labels not in basis: \['X'\]"),
         ("canonical", [-3], "canonical class has wrong length"),
         ("canonical", [-3, 1, 0], "canonical class has wrong length"),
         # an expression reads K as the canonical class, so a basis class
         # labeled K would render as K and read back as another class
         ("basis", ["H", "K"], "basis label 'K' is reserved")])
    def test_a_refused_document_names_the_field(self, field, value, message):
        # the constructor, given the same value, refuses it alike
        doc = dict(sigma(1).to_json_dict(), **{field: value})
        with pytest.raises(ModelError,
                           match=f"^bad lattice definition: {message}"):
            model_from_json_dict(doc)
        field = {"basis": "labels", "effective": "effective_labels"}.get(
            field, field)
        if isinstance(value, list):
            value = tuple(value)
        with pytest.raises(ModelError, match=f"^{message}"):
            sigma(1)._replace(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("name", 5), ("name", None), ("name", b"t"), ("labels", "HG"),
         ("labels", ["H", "G"]), ("labels", ("H", 1)),
         ("effective_labels", "G"), ("effective_labels", ["G"]),
         ("effective_labels", (None,))])
    def test_constructor_refuses_non_string_names_and_labels(self, field,
                                                             value):
        # "HG" is not the labels ("H", "G"): a label lookup would match
        # by substring and the file writer would split it
        fields = dict(name="t", labels=("H", "G"), gram=((1, 0), (0, -1)),
                      canonical=(0, 0), chi=1)
        fields[field] = value
        with pytest.raises(ModelError, match=field):
            LatticeModel(**fields)

    @pytest.mark.parametrize("label", ["", "-", "2H", "H+G", "H G", "G_1",
                                       "\u00c9"])
    def test_labels_must_be_expression_identifiers(self, label):
        # a label divexpr cannot name would make the model unusable from
        # the command line, or ("H+G") read as another class
        doc = dict(sigma(1).to_json_dict(), basis=["H", label])
        with pytest.raises(ModelError, match="not an identifier"):
            model_from_json_dict(doc)
        with pytest.raises(ModelError, match="not an identifier"):
            _model([[1, 0], [0, -1]], labels=["H", label])

    def test_a_config_refuses_the_label_K(self):
        # as a lattice document does; a label that only starts with K is
        # an identifier like any other
        with pytest.raises(ModelError, match=(
                "^bad config definition: basis label 'K' is reserved")):
            config_from_json_dict({"labels": ["E", "K"],
                                   "pairs": [[0, 1, 1]]})
        m = _model([[1, 0], [0, -1]], labels=["K1", "Ka"])
        assert render(resolve("K1-Ka", m)) == "K1-Ka"

    @pytest.mark.parametrize("kind", ["sigma", "ruled", "generic",
                                      "nonsense", None])
    def test_a_document_with_kind_is_refused(self, kind):
        # "kind" used to pick the sign test; read as nothing, a "ruled"
        # file would silently get the default test of its effective labels
        doc = dict(sigma(1).to_json_dict(), kind=kind)
        with pytest.raises(ModelError, match="'kind'.*'sign_tests'"):
            model_from_json_dict(doc)
        with pytest.raises(TypeError, match="kind"):
            _model([[1, 0], [0, -1]], kind=kind)

    def test_builtin_labels_and_kinds_are_accepted(self):
        models = [get_surface(n) for n in list_surfaces()]
        models += [get_config(n) for n in list_configs()]
        for m in models:
            again = model_from_json_dict(m.to_json_dict())
            assert again == m and again.sign_tests == m.sign_tests

    def test_sign_tests_default_to_the_effective_basis_vectors(self):
        # and the JSON writes them only when they differ from the default
        m = _model([[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                   effective_labels=("B2", "B0"))
        assert m.sign_tests == ((0, 0, 1), (1, 0, 0))
        assert "sign_tests" not in m.to_json_dict()
        for tests in [(), ((0, 0, 1),), ((1, 0, 0), (0, 0, 1)),
                      ((1, 1, 0), (0, 0, 1))]:
            other = _model(m.gram, effective_labels=("B2", "B0"),
                           sign_tests=tests)
            assert other.to_json_dict()["sign_tests"] == [
                list(t) for t in tests]
            assert model_from_json_dict(other.to_json_dict()) == other
        # the default, stated as lists, is the same model
        assert _model(m.gram, effective_labels=("B2", "B0"),
                      sign_tests=[[0, 0, 1], [1, 0, 0]]) == m
        assert get_surface("blq").to_json_dict()["sign_tests"] == [
            [0, 1], [1, 2]]
        assert "sign_tests" not in get_surface("sigma3").to_json_dict()
        assert "sign_tests" not in get_surface("enriques").to_json_dict()

    @pytest.mark.parametrize("tests", [[[1]], [[1, 0, 0]], [[0, 1], [1]]])
    def test_a_sign_test_of_another_length_is_refused(self, tests):
        doc = dict(sigma(1).to_json_dict(), sign_tests=tests)
        with pytest.raises(ModelError, match=r"sign_tests must be \dx2"):
            model_from_json_dict(doc)

    @pytest.mark.parametrize("value", [["a", 1], 3, [3, 1.5], 0, False,
                                       [], [3, -1], None])
    def test_a_document_with_ample_ref_loads_as_without_it(self, value):
        # files written by earlier versions carry an ample class that no
        # computation read; the key chose nothing, so it is ignored
        doc = sigma(1).to_json_dict()
        assert "ample_ref" not in doc
        assert model_from_json_dict(dict(doc, ample_ref=value)) == \
            model_from_json_dict(doc) == sigma(1)
        with pytest.raises(TypeError, match="ample_ref"):
            _model([[1, 0], [0, -1]], ample_ref=value)

    def test_load_model_from_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(sigma(1).to_json_dict()))
        m = load_model(str(p))
        assert m.rank == 2

    def test_load_model_reads_utf8_under_an_ascii_locale(self, tmp_path):
        # labels are ASCII identifiers, so the non-ASCII text is the name
        doc = dict(sigma(1).to_json_dict(), name="\u00c9tale")
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        # open() defaults to the locale's encoding, which is fixed at
        # interpreter start, so the ASCII locale needs a fresh interpreter
        env = dict(
            os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
            PYTHONPATH=str(Path(divcalc.__file__).parents[1]),
        )
        code = (
            "import sys; from divcalc.lattice import load_model; "
            "sys.exit(load_model(sys.argv[1]).name != '\\u00c9tale')"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", code, str(p)],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")

    @pytest.mark.parametrize(
        "field, value, error",
        [("canonical", (-3.0, 1.5), ModelError),
         ("canonical", (True, 0), ModelError),
         ("canonical", (0, "1"), ModelError), ("chi", 1.0, ModelError),
         ("chi", True, ModelError), ("chi", None, ModelError),
         ("gram", ((1.0, 0), (0, -1)), ModelError),
         ("sign_tests", ((1, 0.5),), ModelError),
         ("sign_tests", ((0, False),), ModelError),
         ("canonical", (2**63, 0), OverflowGuardError),
         ("sign_tests", ((2**63, 0),), OverflowGuardError),
         ("chi", 2**63, OverflowGuardError)])
    def test_constructor_refuses_entries_that_are_not_64_bit_ints(
            self, field, value, error):
        fields = dict(name="t", labels=("H", "G"), gram=((1, 0), (0, -1)),
                      canonical=(0, 0), chi=1)
        fields[field] = value
        with pytest.raises(error, match=field):
            LatticeModel(**fields)

    @pytest.mark.parametrize("field, value, what",
                             [("gram", 5, "gram"), ("gram", (1,), "gram row"),
                              ("canonical", 5, "canonical"),
                              ("sign_tests", 5, "sign_tests"),
                              ("sign_tests", (5,), "sign_tests row")])
    def test_constructor_refuses_a_field_that_is_not_a_sequence(
            self, field, value, what):
        # these were a bare TypeError, "'int' object is not iterable"
        fields = dict(name="t", labels=("H",), gram=((1,),), canonical=(0,),
                      chi=1)
        fields[field] = value
        with pytest.raises(ModelError, match=f"^{what} must be a sequence"):
            LatticeModel(**fields)

    def test_rows_given_as_lists_are_stored_as_tuples(self):
        m = sigma(2)
        twin = LatticeModel(m.name, m.labels, [list(r) for r in m.gram],
                            list(m.canonical), m.chi, m.effective_labels,
                            [list(t) for t in m.sign_tests])
        assert twin == m and hash(twin) == hash(m)
        assert all(type(r) is tuple for r in twin.gram)
        assert type(twin.canonical) is tuple
        assert all(type(t) is tuple for t in twin.sign_tests)


# JSON values of another type or size than a document field wants
_LEAF = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=2),
                  st.sampled_from([2**63, -(2**63), 10**30]))
_NAMES = ("H", "G", "E1", "U2")


def _mutate(draw, doc):
    """doc with up to two edits, or a leaf in its place: a key dropped or
    set to a leaf, or an item of a list (or of one of its rows) set to a
    leaf, dropped or repeated, so that rows get the wrong length."""
    if draw(st.integers(0, 15)) == 0:
        return draw(_LEAF | st.lists(_LEAF, max_size=2))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(doc)))
        target = doc[key]
        edit = draw(st.sampled_from(("drop", "leaf", "item")))
        if edit == "drop":
            del doc[key]
            continue
        if edit == "leaf" or not isinstance(target, list) or not target:
            doc[key] = draw(_LEAF)
            continue
        if isinstance(target[0], list) and draw(st.booleans()):
            target = draw(st.sampled_from(target))
            if not isinstance(target, list) or not target:
                continue  # an earlier edit made this row a leaf
        k = draw(st.integers(0, len(target) - 1))
        how = draw(st.sampled_from(("leaf", "drop", "repeat")))
        if how == "leaf":
            target[k] = draw(_LEAF)
        elif how == "drop":
            del target[k]
        else:
            target.append(target[k])
    return doc


@st.composite
def _model_docs(draw):
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.sampled_from(_NAMES), min_size=n, max_size=n,
                           unique=True))
    small = st.integers(-3, 3)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(small)
    doc = {
        "name": draw(st.text(max_size=3)),
        "basis": labels,
        "gram": gram,
        "canonical": draw(st.lists(small, min_size=n, max_size=n)),
        "chi": draw(small),
        "effective": draw(st.lists(st.sampled_from(labels), unique=True)),
        "sign_tests": draw(st.none() | st.lists(
            st.lists(small, min_size=n, max_size=n), max_size=3)),
    }
    return _mutate(draw, doc)


@st.composite
def _config_docs(draw):
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.sampled_from(_NAMES), min_size=n, max_size=n,
                           unique=True))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(0, 3)).map(list)
    return _mutate(draw, {"labels": labels,
                          "pairs": draw(st.lists(entry, max_size=3))})


def _beyond_envelope(doc):
    if isinstance(doc, dict):
        return any(map(_beyond_envelope, doc.values()))
    if isinstance(doc, list):
        return any(map(_beyond_envelope, doc))
    return isinstance(doc, int) and abs(doc) > lattice.I64_MAX


class TestModelDocuments:
    """A model or config document drawn near the schema loads or raises
    ModelError, or OverflowGuardError when it holds an integer beyond the
    64-bit envelope, and never another exception; a model that loads
    round-trips through its JSON."""

    @staticmethod
    def _load_or_refuse(load, doc):
        try:
            m = load(copy.deepcopy(doc))
        except OverflowGuardError:
            assert _beyond_envelope(doc), doc
            return
        except ModelError:
            return
        assert model_from_json_dict(m.to_json_dict()) == m
        assert model_from_json_dict(
            json.loads(json.dumps(m.to_json_dict()))) == m

    @settings(max_examples=300, deadline=None)
    @given(_model_docs())
    def test_model_documents(self, doc):
        self._load_or_refuse(model_from_json_dict, doc)

    @settings(max_examples=200, deadline=None)
    @given(_config_docs())
    def test_config_documents(self, doc):
        self._load_or_refuse(config_from_json_dict, doc)

    def test_a_document_that_is_not_an_object_is_refused(self):
        for doc, got in ((None, "NoneType"), ([], "list"), ("gram", "str"),
                         (3, "int")):
            with pytest.raises(ModelError, match=(
                    "^bad lattice definition: a lattice document is a "
                    f"JSON object, got {got}$")):
                model_from_json_dict(doc)
            with pytest.raises(ModelError, match=(
                    "^bad config definition: a config document is a JSON "
                    f"object, got {got}$")):
                config_from_json_dict(doc)


class TestDivClassAlgebra:
    def test_klass_takes_integers_only(self):
        # no coordinate is truncated or parsed: 1.9 was read as 1
        m = sigma(2)
        for coords in [(1.9, 2, 0), (1, "2", 0), (Fraction(1), 0, 0),
                       (None, 0, 0)]:
            with pytest.raises(ModelError, match="integers"):
                m.klass(coords)
        D = m.klass(np.array([1, -2, 3]))  # numpy integers have __index__
        assert D == m.klass((1, -2, 3))
        assert all(type(c) is int for c in D.coords)

    @pytest.mark.parametrize("coords", [
        (1.5, 0), (1, 0.0), (True, 0), (0, False), (Fraction(1), 0),
        (np.int64(1), 0), ("1", 0), (None, 0)])
    def test_divclass_takes_int_coordinates_only(self, coords):
        # pair(DivClass(sigma1, (1.5, 0)), same) was the float 2.25; klass
        # is the door for values with __index__
        m = sigma(1)
        with pytest.raises(ModelError, match="must be ints"):
            DivClass(m, coords)

    def test_divclass_of_the_wrong_length(self):
        with pytest.raises(ModelError, match="^coordinate length does not "
                           "match model rank$"):
            DivClass(sigma(1), (1,))

    def test_only_an_int_scales(self):
        D = sigma(1).klass((1, 2))
        for n in (2.5, Fraction(1, 2), "2"):
            with pytest.raises(TypeError):
                n * D
            with pytest.raises(TypeError):
                D * n

    def test_add_sub_neg_scale(self):
        m = sigma(2)
        a = m.klass((1, 2, 3))
        b = m.klass((4, 0, -1))
        assert (a + b).coords == (5, 2, 2)
        assert (a - b).coords == (-3, 2, 4)
        assert (-a).coords == (-1, -2, -3)
        assert (3 * a).coords == (3, 6, 9)

    def test_cross_model_arithmetic_rejected(self):
        a = sigma(1).klass((1, 0))
        b = get_surface("blq").klass((1, 0))
        with pytest.raises(ModelMismatchError):
            a + b
        with pytest.raises(ModelMismatchError):
            pair(a, b)

    @pytest.mark.parametrize("call, got", [
        pytest.param(lambda s, H: H + 3, "int", id="add"),
        pytest.param(lambda s, H: H - (1, 0, 0, 0), "tuple", id="sub"),
        pytest.param(lambda s, H: pair(H, 3), "int", id="pair-right"),
        pytest.param(lambda s, H: pair(3, H), "int", id="pair-left"),
        pytest.param(lambda s, H: pair(H, s), "LatticeModel", id="pair-model"),
        pytest.param(lambda s, H: genus(5), "int", id="genus"),
        pytest.param(lambda s, H: chi(5), "int", id="chi"),
        pytest.param(lambda s, H: reflect_nodal(H, 1),
                     "int", id="reflect_nodal"),
        pytest.param(lambda s, H: mod4_condition(H, 2),
                     "int", id="mod4_condition"),
        pytest.param(lambda s, H: hodge_filter(H, 2),
                     "int", id="hodge_filter"),
        pytest.param(lambda s, H: quasi_nef_test(3, []),
                     "int", id="quasi_nef_test"),
        pytest.param(lambda s, H: phi(s, (1, 0, 0, 0)), "tuple", id="phi"),
        pytest.param(lambda s, H: enumerate_bogreider(s, (6, -2, -2, -2), 4),
                     "tuple", id="enumerate_bogreider"),
        pytest.param(lambda s, H: explainer(s, (6, -2, -2, -2), 4),
                     "tuple", id="explainer"),
        pytest.param(lambda s, H: slice_points((6, -2, -2, -2), 4, 0, 0),
                     "tuple", id="slice_points"),
        pytest.param(lambda s, H: isotropic_search(s, 3, 1),
                     "int", id="isotropic_search"),
        pytest.param(lambda s, H: reduce_to_chamber(E10),
                     "LatticeModel", id="reduce_to_chamber"),
        pytest.param(lambda s, H: render((1, 0, 0, 0)), "tuple", id="render"),
    ])
    def test_a_non_class_operand_raises_type_error(self, call, got):
        s = get_surface("sigma3")
        with pytest.raises(TypeError,
                           match=f"^expected a DivClass, got {got}$"):
            call(s, resolve("H", s))

    def test_a_certificate_of_a_non_class_is_false(self):
        L = resolve("3U1+2U2", E10)
        res = phi(E10, L)
        assert check_phi_certificate(L, res)
        assert not check_phi_certificate(L.coords, res)
        assert not check_phi_certificate(E10, res)
        assert not check_phi_certificate(L, None)

    def test_primitive_part(self):
        m = sigma(1)
        prim, mult = m.klass((4, 6)).primitive_part()
        assert prim.coords == (2, 3) and mult == 2
        prim, mult = m.klass((-2, -4)).primitive_part()
        # sign convention: first nonzero coordinate of the primitive
        # class is positive
        assert prim.coords == (1, 2) and mult == -2
        zero = resolve("0", m)
        assert zero.primitive_part() == (zero, 0)

    def test_overflow_guard(self):
        m = _model([[1]])
        big = m.klass((2**40,))
        with pytest.raises(OverflowGuardError):
            pair(big, big)

    def test_overflow_guard_on_arithmetic(self):
        m = _model([[1]])
        top = m.klass((2**63 - 1,))
        one = m.klass((1,))
        with pytest.raises(OverflowGuardError):
            top + one
        with pytest.raises(OverflowGuardError):
            -top - one
        with pytest.raises(OverflowGuardError):
            2 * top
        # the envelope is symmetric, so negation alone never leaves it
        assert (-top).coords == (-(2**63 - 1),)


def _record_types():
    found, todo = [], [lattice._Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("divcalc"):
                found.append(sub)
    return sorted(found, key=lambda c: c.__name__)


RECORD_TYPES = _record_types()
VALIDATING_TYPES = (LatticeModel, DivClass, GaussianVerdict)
PLAIN_TYPES = [c for c in RECORD_TYPES if c not in VALIDATING_TYPES]
PLAIN_NAMES = {"HodgeResult", "PhiCertificate", "PhiResult", "QuasiNefResult",
               "ScrollInvariants", "Decomposition", "EnumerationResult",
               "DestabCandidate", "DestabResult", "CaseFixture",
               "CaseReport", "B2Rule", "_Outcome"}

# every declared default of the plain records, trailing fields in order
RECORD_DEFAULTS = {
    "HodgeResult": {"lam": None, "note": ""},
    "PhiResult": {"certificate": None},
    "QuasiNefResult": {"notes": ()},
    "Decomposition": {"notes": ()},
    "CaseFixture": {"surface": None, "curve": None, "k": None,
                    "mod4": None, "expected": None, "killed": (),
                    "identities": (), "notes": ()},
    "CaseReport": {"notes": ()},
    "B2Rule": {"qualifiers": (), "notes": ()},
    "_Outcome": {"code": 0},
}


def _record_sample(cls):
    """Field values, in _fields order, that cls accepts."""
    m = sigma(2)
    return {
        LatticeModel: tuple(m),
        DivClass: (m, (1, -1, 0)),
        GaussianVerdict: ("SURJECTIVE", "rule", None, ("q",), ("n",),
                          {"g": 7}),
    }.get(cls) or tuple(f"{f} value" for f in cls._fields)


class TestRecords:
    """The value types are read-only named tuples, not dataclasses."""

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(divcalc.__file__).parents[1]))
        code = (
            "import sys; before = set(sys.modules)\n"
            "import divcalc, divcalc.cli\n"
            "new = set(sys.modules) - before\n"
            "print(sorted(new & {'dataclasses', 'inspect'}))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_dataclass_left(self):
        import divcalc.cli

        mods = [m for name, m in sys.modules.items()
                if name == "divcalc" or name.startswith("divcalc.")]
        assert divcalc.cli in mods
        classes = [v for m in mods for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("divcalc")]
        assert DivClass in classes and lattice._Record in classes
        assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []

    def test_divclass_compares_on_coords_and_model_name(self):
        a, b = sigma(2), sigma(2)
        assert a is not b
        x, y = a.klass((1, -1, 0)), b.klass((1, -1, 0))
        assert x == y and hash(x) == hash(y)
        assert x != a.klass((1, 0, -1))
        other = model_from_json_dict(a.to_json_dict(), name="other")
        z = other.klass((1, -1, 0))
        assert x != z and z != x
        assert len({x, y, z}) == 2

    def test_records_are_read_only(self):
        m = sigma(1)
        D = m.klass((1, 0))
        res = enumerate_bogreider(m, m.klass((3, -1)), 2)
        for obj, name in ((D, "coords"), (m, "name"), (res, "visited"),
                          (hodge_filter(D, 2 * D), "outcome")):
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, before)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            with pytest.raises(AttributeError):
                obj.extra = 1
            assert getattr(obj, name) is before

    def test_copy_and_pickle_rebuild_equal_records(self):
        m = sigma(2)
        verdict = check_main_theorem(g=7, L2=12, phi=2, degM=8, h1M=0,
                                     h0_residual=1)
        cfg = get_config("pencil-pair-1")
        for obj in (m, m.klass((1, -1, 0)), verdict, cfg):
            for twin in (copy.copy(obj), copy.deepcopy(obj),
                         pickle.loads(pickle.dumps(obj))):
                assert type(twin) is type(obj) and twin == obj

    @pytest.mark.parametrize("cls", RECORD_TYPES,
                             ids=lambda c: c.__name__)
    def test_constructor_contract(self, cls):
        fields = cls._fields
        vals = _record_sample(cls)
        rec = cls(*vals)
        assert rec == cls(**dict(zip(fields, vals)))
        assert tuple(rec) == vals
        with pytest.raises(TypeError):  # missing the first field
            cls(**dict(zip(fields[1:], vals[1:])))
        with pytest.raises(TypeError):
            cls(*vals, no_such_field=1)
        with pytest.raises(TypeError):  # the first field twice
            cls(*vals, **{fields[0]: vals[0]})
        with pytest.raises(TypeError):
            cls(*vals, "one too many")
        assert rec._replace() == rec and cls._make(vals) == rec
        for twin in (copy.copy(rec), copy.deepcopy(rec),
                     pickle.loads(pickle.dumps(rec))):
            assert type(twin) is cls and twin == rec

    @pytest.mark.parametrize("cls", RECORD_TYPES,
                             ids=lambda c: c.__name__)
    def test_records_are_tuples_equal_only_to_their_own_type(self, cls):
        # a record is the tuple of its fields, with no __dict__, but never
        # equal to that plain tuple, from either side (a DivClass is not
        # its (model, coords)); its fields are read-only, and the types
        # that keep the tuple's hash hash as it
        rec = cls(*_record_sample(cls))
        plain = tuple(rec)
        assert isinstance(rec, tuple) and not hasattr(rec, "__dict__")
        assert rec != plain and plain != rec
        assert not rec == plain and not plain == rec
        for f in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, f, None)
            with pytest.raises(AttributeError):
                delattr(rec, f)
        hashable = not any(isinstance(v, dict) for v in rec)
        own_hash = cls is LatticeModel
        assert not hashable or own_hash or hash(rec) == hash(plain)
        assert not hashable or len({rec, plain}) == 2
        for twin in (cls(*_record_sample(cls)), copy.copy(rec),
                     copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(twin) is cls and twin == rec and not twin != rec
            assert tuple(twin) == plain
            assert not hashable or hash(twin) == hash(rec)

    def test_make_and_replace_keep_the_checks(self):
        # namedtuple's _make would build the tuple without __new__
        m = sigma(2)
        D = m.klass((1, -1, 0))
        assert D._replace(coords=(0, 1, 0)) == m.klass((0, 1, 0))
        with pytest.raises(ModelError):
            D._replace(coords=(1.5, 0, 0))
        with pytest.raises(ModelError):
            m._replace(gram=((1, 2, 0), (0, -1, 0), (0, 0, -1)))
        with pytest.raises(ModelError):
            LatticeModel._make(("x", ("H",), 5, (0,), 1))

    def test_a_subclass_without_slots_of_its_own_builds(self):
        class Noted(lattice.HodgeResult):
            pass

        rec = Noted("pass", 4, 3)
        assert tuple(rec) == ("pass", 4, 3, None, "") and rec.keeps
        assert rec == Noted(outcome="pass", lhs=4, rhs=3)
        assert rec != lattice.HodgeResult("pass", 4, 3)
        assert copy.copy(rec) == rec
        with pytest.raises(AttributeError):
            rec.outcome = "fail"
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_walked_classes_are_the_checked_classes(self):
        # DivClass._walked builds, without __new__'s checks, the class
        # that __new__ builds from the same ints
        m = sigma(3)
        for coords in ((1, -1, 0, 0), (0, 0, 0, 0), (2**63 - 1, -3, 5, 0)):
            walked, checked = DivClass._walked(m, coords), m.klass(coords)
            assert type(walked) is DivClass and walked == checked
            assert tuple(walked) == tuple(checked)
            assert hash(walked) == hash(checked)
            assert pickle.loads(pickle.dumps(walked)) == checked

    @pytest.mark.parametrize("cls", PLAIN_TYPES, ids=lambda c: c.__name__)
    def test_declared_defaults(self, cls):
        defaults = RECORD_DEFAULTS.get(cls.__name__, {})
        assert cls._field_defaults == defaults
        n = len(cls._fields) - len(defaults)
        assert cls._fields[n:] == tuple(defaults)  # trailing, in order
        rec = cls(*_record_sample(cls)[:n])
        assert rec[n:] == tuple(defaults.values())

    def test_defaults_pinned_by_example(self):
        from divcalc.cli import _Outcome
        from divcalc.enumeration import CaseFixture

        out = _Outcome({}, None, [])
        assert out.code == 0
        assert CaseFixture("x", "pencil").killed == ()

    def test_records_whose_json_is_their_fields_share_one_rule(self):
        # the rule is _Record's to_json_dict; only a type whose JSON is
        # more than its fields writes its own
        own = {c.__name__ for c in RECORD_TYPES if "to_json_dict" in vars(c)}
        assert own == {"LatticeModel", "Decomposition", "EnumerationResult",
                       "CaseReport", "GaussianVerdict"}
        assert not hasattr(lattice._Record, "_field_dict")
        m = sigma(2)
        cert = PhiCertificate((("t", 1, (2, 3)), ("s", 0)), (0, 1), 1)
        res = PhiResult(1, m.klass((1, 0, -1)), True, cert)
        got = res.to_json_dict()
        assert got == {"value": 1, "witness": [1, 0, -1], "certified": True,
                       "certificate": {"word": [["t", 1, [2, 3]], ["s", 0]],
                                       "pairings": [0, 1], "phi": 1}}
        assert list(got) == list(PhiResult._fields)

    def test_only_validating_types_define_new(self):
        assert {c.__name__ for c in PLAIN_TYPES} == PLAIN_NAMES
        assert set(RECORD_DEFAULTS) <= PLAIN_NAMES
        own = {c for c in RECORD_TYPES if "__new__" in vars(c)}
        assert own == set(VALIDATING_TYPES)


@given(
    a=st.tuples(*[st.integers(-50, 50)] * 4),
    b=st.tuples(*[st.integers(-50, 50)] * 4),
    c=st.tuples(*[st.integers(-50, 50)] * 4),
    n=st.integers(-9, 9),
)
def test_pairing_bilinear_symmetric(a, b, c, n):
    m = sigma(3)
    A, B, C = m.klass(a), m.klass(b), m.klass(c)
    assert pair(A, B) == pair(B, A)
    assert pair(A + C, B) == pair(A, B) + pair(C, B)
    assert pair(n * A, B) == n * pair(A, B)


def _double_sum(gram, a, b):
    n = len(gram)
    return sum(a[i] * gram[i][j] * b[j] for i in range(n) for j in range(n))


def test_pairing_is_the_double_sum_inside_the_envelope():
    # sum_ij a_i g_ij b_j on E10, the three configs and seeded symmetric
    # grams of rank 1-10, for zero, sparse and dense classes whose
    # coordinates reach 2^36, so some totals leave the envelope
    rng = random.Random(2300)
    models = [E10] + [get_config(n) for n in list_configs()]
    for n in range(1, 11):
        for _ in range(4):
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.choice([0, 0, rng.randint(-9, 9)])
            models.append(_model(g))
    outcomes = Counter()
    for m in models:
        n = m.rank
        for _ in range(30):
            pair_of = []
            for _ in range(2):
                shape = rng.choice(["zero", "sparse", "dense"])
                scale = rng.choice([1, 100, 2**20, 2**31, 2**36])
                x = [0] * n
                if shape != "zero":
                    places = (rng.sample(range(n), min(n, 2))
                              if shape == "sparse" else range(n))
                    for i in places:
                        x[i] = rng.randint(-scale, scale)
                pair_of.append(DivClass(m, tuple(x)))
            a, b = pair_of
            want = _double_sum(m.gram, a.coords, b.coords)
            if abs(want) > lattice.I64_MAX:
                outcomes["guarded"] += 1
                with pytest.raises(OverflowGuardError):
                    pair(a, b)
            else:
                outcomes["exact"] += 1
                got = pair(a, b)
                assert type(got) is int and got == want
    assert outcomes["guarded"] > 50 and outcomes["exact"] > 1000, outcomes


def test_signature_and_determinant():
    assert signature(E8) == (8, 0, 0)
    assert determinant(E8) == 1
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature(E10.gram) == (1, 9, 0)
    assert determinant(E10.gram) == -1
    assert signature([[2, 2], [2, 2]]) == (1, 0, 1)
    assert determinant([[2, 2], [2, 2]]) == 0


@pytest.mark.parametrize("gram", [[[1, 2]], [[1, 2], [3, 4]], [[1, 2], [2]],
                                  [[1, 0, 0], [0, 1, 0]], [[]]])
def test_signature_and_determinant_refuse_a_form_that_is_not_symmetric(gram):
    # the elimination reads the upper triangle only, so [[1, 2], [3, 4]]
    # would otherwise take the determinant of [[1, 2], [2, 4]], 0
    for f in (signature, determinant):
        with pytest.raises(ModelError, match="symmetric"):
            f(gram)


def _symmetric(rng, n, kind):
    """A seeded symmetric n x n integer matrix with entries in [-3, 3].

    "random" draws every entry. "zero-diagonal" has a zero diagonal and
    a live first row, so the first pivot needs the repair. "definite" is
    strictly diagonally dominant, |diagonal| >= 2 against one off-diagonal
    +-1 per row, and of either sign. "degenerate" repeats one basis vector
    as the last.
    """
    M = [[0] * n for _ in range(n)]
    if kind == "definite":
        sgn = rng.choice((1, -1))
        order = rng.sample(range(n), n)
        for i, j in zip(order[::2], order[1::2]):
            M[i][j] = M[j][i] = sgn * rng.choice((-1, 0, 1))
        for i in range(n):
            M[i][i] = sgn * rng.randint(2, 3)
        return M
    m = n - 1 if kind == "degenerate" and n > 1 else n
    for i in range(m):
        for j in range(i, m):
            M[i][j] = M[j][i] = rng.randint(-3, 3)
    if kind == "zero-diagonal":
        for i in range(n):
            M[i][i] = 0
        if n > 1:
            M[0][n - 1] = M[n - 1][0] = rng.choice((-3, -2, -1, 1, 2, 3))
    elif kind == "degenerate":
        if n == 1:
            return [[0]]
        k = rng.randrange(m)
        for i in range(m):
            M[i][m] = M[m][i] = M[i][k]
        M[m][m] = M[k][k]
    return M


class TestSignature:
    # a hyperbolic plane where e_i + e_j is isotropic too, so the repair
    # takes e_i - e_j; a zero pivot that appears only after elimination;
    # the zero matrix; a zero row between two live ones
    FIXED = ([[0, 1], [1, -2]], [[1, 1, 0], [1, 1, 1], [0, 1, 0]],
             [[0, 0], [0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]])

    def test_matches_eigenvalue_oracle(self):
        rng = random.Random(12)
        cases = [list(map(list, g)) for g in self.FIXED]
        for n in range(1, 11):
            for kind in ("random", "zero-diagonal", "definite", "degenerate"):
                cases += [_symmetric(rng, n, kind) for _ in range(8)]
        models = [get_surface(n) for n in list_surfaces()]
        models += [get_config(n) for n in list_configs()]
        cases += [[list(row[i:]) for row in m.gram[i:]]
                  for m in models for i in range(m.rank)]
        seen = set()
        for gram in cases:
            got = signature(gram)
            assert got == brute_inertia(gram), gram
            assert determinant(gram) == brute_determinant(gram), gram
            n = len(gram)
            pos, neg, null = got
            seen.add("degenerate" if null else "positive definite"
                     if pos == n else "negative definite" if neg == n
                     else "indefinite")
            if n > 1 and gram[0][0] == 0 and any(gram[0]):
                seen.add("repair")
        assert seen == {"degenerate", "positive definite", "negative definite",
                        "indefinite", "repair"}

    def test_rank12_is_exact_and_fast(self):
        # the fraction-free elimination keeps every entry a minor of the
        # matrix, so rank 12 costs about what rank 10 does: well under a
        # millisecond a call, where this bound allows 100 ms
        rng = random.Random(13)
        grams = [_symmetric(rng, 12, kind) for kind in
                 ("random", "zero-diagonal", "definite", "degenerate")]
        start = time.perf_counter()
        got = [signature(g) for g in grams]
        assert time.perf_counter() - start < 0.4
        assert got == [brute_inertia(g) for g in grams]


def test_sigma_model_determinants():
    for n in range(1, 10):
        g = sigma(n).gram
        assert determinant(g) == (-1) ** n
        assert signature(g) == (1, n, 0)


def test_relabeling_leaves_pairings_alone():
    m = sigma(2)
    relabeled = LatticeModel(
        name="perm",
        labels=("X", "Y", "Z"),
        gram=m.gram,
        canonical=m.canonical,
        chi=m.chi,
        effective_labels=("X", "Y", "Z"),
    )
    for coords in [(1, 2, 3), (0, -1, 4)]:
        assert pair(m.klass(coords), m.klass(coords)) == pair(
            relabeled.klass(coords), relabeled.klass(coords)
        )


class TestVectorsOfNorm:
    def test_e8_root_count(self):
        assert len(vectors_of_norm(E8, 2)) == 240

    def test_square_lattice_norm_25(self):
        got = sorted(vectors_of_norm([[1, 0], [0, 1]], 25))
        want = sorted(
            {(x, y) for x in range(-5, 6) for y in range(-5, 6)
             if x * x + y * y == 25}
        )
        assert got == want

    def test_zero_norm_gives_origin(self):
        assert vectors_of_norm([[2]], 0) == [(0,)]

    def test_the_empty_form_has_only_the_empty_vector(self):
        # rank 0: the one vector () has norm 0, as in the walk's rank-0
        # branch; no other norm is reached
        for Q in ([], ()):
            assert vectors_of_norm(Q, 0) == [()]
            for N in (1, 2, -1):
                assert vectors_of_norm(Q, N) == []

    def test_rejects_indefinite(self):
        with pytest.raises(ModelError):
            vectors_of_norm([[0, 1], [1, 0]], 2)

    @pytest.mark.parametrize("Q", [[[2, 1], [0, 2]], [[2, 0], [1, 2]],
                                   [[2, 1]], [[2, 1, 0], [1, 2, 0]]])
    def test_rejects_a_form_that_is_not_symmetric(self, Q):
        # _ldl reads the upper triangle only, so a lower triangle that
        # disagrees with it would be ignored rather than refused
        with pytest.raises(ModelError, match="symmetric"):
            vectors_of_norm(Q, 2)


class TestSlicePoints:
    def test_matches_a_literal_scan(self):
        m = _model([[-2, 1], [1, 0]])
        C = m.klass((4, 8))  # C^2 = 32, G.C = (0, 4)
        for s, qlo, qhi in [(4, 0, 2), (8, -4, 4), (12, 0, 0)]:
            want = sorted(
                (a, b) for a in range(-40, 41) for b in range(-40, 41)
                if pair(m.klass((a, b)), C) == s
                and qlo <= pair(m.klass((a, b)), m.klass((a, b))) <= qhi
            )
            assert [x.coords for x in slice_points(C, s, qlo, qhi)] == want

    def test_empty_when_gcd_does_not_divide(self):
        m = _model([[-2, 1], [1, 0]])
        assert slice_points(m.klass((4, 8)), 6, -100, 100) == []

    def test_rejects_nonpositive_or_definite(self):
        with pytest.raises(ModelError):  # C^2 = 0
            slice_points(_model([[0, 1], [1, 0]]).klass((1, 0)), 1, 0, 0)
        with pytest.raises(ModelError):  # positive definite lattice
            slice_points(_model([[1, 0], [0, 1]]).klass((1, 1)), 2, 0, 2)

    def test_matches_oracle_on_random_hyperbolic_models(self):
        # negative qlo and s off the gcd of G.C check the floor and
        # ceiling division of negative numerators in the integer walk
        rng = random.Random(6)
        seen = set()
        for trial in range(300):
            r, even = rng.randint(2, 5), trial % 2 == 0
            gram = _hyperbolic_gram(rng, r, even)
            C = tuple(rng.randint(-3, 3) for _ in range(r))
            if trial % 3 == 0:
                C = tuple(2 * c for c in C)
            m = _model(gram)
            if pair(m.klass(C), m.klass(C)) <= 0:
                continue
            g = math.gcd(*(sum(a * c for a, c in zip(row, C)) for row in gram))
            for _ in range(3):
                s = rng.randint(-6, 8)
                qlo = rng.randint(-10, 2)
                qhi = qlo + rng.randint(0, 6)
                box = slice_box(gram, C, s, qlo)
                if (2 * box + 1) ** r > 2 * 10**5:
                    continue
                got = [x.coords for x in slice_points(m.klass(C), s, qlo, qhi)]
                assert got == brute_slice(gram, C, s, qlo, qhi, box), (
                    gram, C, s, qlo, qhi)
                seen |= {f"rank {r}", "even" if even else "odd",
                         "points" if got else "empty"}
                if s % g:
                    seen.add("s off the gcd")
                if qlo < 0:
                    seen.add("negative qlo")
        assert seen == {"rank 2", "rank 3", "rank 4", "rank 5", "even", "odd",
                        "points", "empty", "s off the gcd", "negative qlo"}

    def test_even_lattice_skips_odd_only_windows(self, monkeypatch):
        walks = []

        def counting_walker(*form):
            walk = real_walker(*form)

            def counting_walk(*window):
                walks.append(window)
                return walk(*window)

            return counting_walk

        real_walker = lattice._walker
        monkeypatch.setattr(lattice, "_walker", counting_walker)
        C = get_surface("blq").klass((4, 8))  # -2K, even lattice
        assert slice_points(C, 4, 1, 1) == []
        assert slice_points(C, 6, -3, -3) == []
        assert walks == []
        assert [x.coords for x in slice_points(C, 4, -1, 1)] == [(0, 1), (1, 1)]
        assert len(walks) == 1

    def test_kernel_basis_is_a_congruence(self):
        # _kernel_basis reduces G.C to one entry by column operations and
        # applies each to minus the gram as a congruence; the result must
        # be the rows of a basis (K | p) with K spanning the complement of
        # C, p.C = +-gcd, and the form in it equal to the dense product
        # -P^T G P
        rng = random.Random(14)
        cases = []
        for m in [get_surface(n) for n in list_surfaces()] + [
                get_config(n) for n in list_configs()]:
            for _ in range(4):
                C = tuple(rng.randint(-3, 4) for _ in range(m.rank))
                cases.append((m.gram, C))
            cases.append((m.gram, tuple(2 * c for c in C)))
        for trial in range(200):
            r = 1 + trial % 10
            if r == 1:
                gram = [[rng.choice((1, 2, 4))]]
            else:
                gram = _hyperbolic_gram(rng, r, trial % 3 == 0)
            C = tuple(rng.randint(-3, 3) for _ in range(r))
            cases.append((gram, C if trial % 4 else tuple(3 * c for c in C)))
        # the sparse congruence must not lean on a signature: any
        # symmetric gram, with zero rows and zero diagonals
        for trial in range(120):
            r = 1 + trial % 10
            gram = _symmetric(rng, r, ("random", "zero-diagonal",
                                       "degenerate")[trial % 3])
            cases.append((gram, tuple(rng.randint(-3, 3) for _ in range(r))))
        def dot(u, v):
            return sum(a * b for a, b in zip(u, v))

        ranks, big_gcd = set(), 0
        for gram, C in cases:
            r = len(gram)
            w = [dot(row, C) for row in gram]
            if not any(w):
                continue
            rows, g, M = lattice._kernel_basis(w, gram)
            P = [list(col) for col in zip(*rows)]
            K, p = P[:-1], P[-1]
            assert len(P) == r and all(dot(w, col) == 0 for col in K)
            assert dot(w, p) == g and abs(g) == math.gcd(*w)
            assert round(abs(np.linalg.det(np.array(P, dtype=float)))) == 1
            dense = [[-dot(u, [dot(row, v) for row in gram]) for v in P]
                     for u in P]
            assert M == dense, (gram, C)
            ranks.add(r)
            big_gcd += abs(g) > 1
        assert ranks == set(range(1, 11)) and big_gcd > 20

    def test_ldl_is_a_weighted_sum_of_squares(self):
        # B Q(x) = sum_i W[i] (e[i] x_i + sum_{j>i} V[i][j] x_j)^2 with
        # e the leading principal minors, checked on seeded x; None exactly
        # when a minor other than the last is not positive or the last is
        # zero; and a lower triangle of None changes nothing, since only
        # the upper triangle is read. _ldl works in place on the matrix it
        # is handed, so each call gets its own copy
        rng = random.Random(15)
        cases = []
        for m in [get_surface(n) for n in list_surfaces()] + [
                get_config(n) for n in list_configs()]:
            cases.append(m.gram)
            for _ in range(3):
                C = tuple(rng.randint(-3, 4) for _ in range(m.rank))
                w = [sum(a * c for a, c in zip(row, C)) for row in m.gram]
                if any(w):  # _slicer's form: minus the gram in (K | p)
                    cases.append(lattice._kernel_basis(w, m.gram)[2])
        for n in range(1, 11):
            for kind in ("random", "zero-diagonal", "definite", "degenerate"):
                cases += [_symmetric(rng, n, kind) for _ in range(6)]
        seen = set()
        for Q in cases:
            n = len(Q)
            got = lattice._ldl([list(row) for row in Q])
            upper = [[v if j >= i else None for j, v in enumerate(row)]
                     for i, row in enumerate(Q)]
            assert lattice._ldl(upper) == got, Q
            minors = [_exact_det([row[:k] for row in Q[:k]])
                      for k in range(1, n + 1)]
            if min(minors[:-1], default=1) <= 0 or minors[-1] == 0:
                assert got is None, Q
                seen.add("zero pivot" if 0 in minors else "negative pivot")
                continue
            W, e, V, B = got
            assert e == minors and B > 0
            assert all(V[i][j] == 0 for i in range(n) for j in range(i + 1))
            for _ in range(4):
                x = [rng.randint(-5, 5) for _ in range(n)]
                q = sum(x[i] * Q[i][j] * x[j]
                        for i in range(n) for j in range(n))
                assert B * q == sum(
                    W[i] * (e[i] * x[i]
                            + sum(V[i][j] * x[j] for j in range(n))) ** 2
                    for i in range(n)), Q
            seen.add("definite" if minors[-1] > 0 else "last pivot negative")
        assert seen == {"zero pivot", "negative pivot", "definite",
                        "last pivot negative"}

    def test_eliminating_in_place_leaves_callers_matrices_alone(self):
        # _eliminate works in place on the matrix it is handed: signature,
        # determinant and vectors_of_norm hand it copies of the caller's
        # list of lists, and _kernel_basis builds its form from the gram
        # without writing to it
        rng = random.Random(16)
        for n in range(1, 7):
            for kind in ("random", "zero-diagonal", "definite", "degenerate"):
                Q = _symmetric(rng, n, kind)
                before = copy.deepcopy(Q)
                signature(Q)
                determinant(Q)
                assert Q == before, kind
        Q = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        assert vectors_of_norm(Q, 2)
        assert Q == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        for gram, C in [([[1, 0, 0], [0, -1, 0], [0, 0, -1]], (3, 1, 1)),
                        ([[0, 2, 1], [2, 0, 0], [1, 0, -2]], (2, 3, 1))]:
            before = copy.deepcopy(gram)
            m = _model(gram)
            w = [sum(a * c for a, c in zip(row, C)) for row in gram]
            assert (lattice._kernel_basis(w, gram)
                    == lattice._kernel_basis(w, m.gram))
            points = slice_points(m.klass(C), 4, -6, 2)
            assert points and slice_points(m.klass(C), 4, -6, 2) == points
            assert gram == before and m.gram == tuple(map(tuple, before))

    def test_points_refuse_out_of_envelope_coordinates(self):
        # the walk hands back (coordinates, x^2) pairs, whose coordinates
        # it checks as DivClass would have; x = 2^64 is the one point of
        # the slice
        C = _model([[1]]).klass((1,))
        with pytest.raises(OverflowGuardError):
            lattice._slicer(C)[0](2**64, 2**128, 2**128)
        for s in (2**64, -2**64):
            with pytest.raises(OverflowGuardError):
                slice_points(C, s, 2**128, 2**128)
        assert [x.coords for x in slice_points(C, 2**40, 0, 2**80)] == [
            (2**40,)]



def _exact_det(A):
    """Determinant of a square integer matrix by Gaussian elimination
    over Fraction, with row swaps."""
    A = [[Fraction(v) for v in row] for row in A]
    n, det = len(A), Fraction(1)
    for i in range(n):
        k = next((k for k in range(i, n) if A[k][i]), None)
        if k is None:
            return 0
        if k != i:
            A[i], A[k], det = A[k], A[i], -det
        det *= A[i][i]
        for r in range(i + 1, n):
            f = A[r][i] / A[i][i]
            A[r] = [a - f * b for a, b in zip(A[r], A[i])]
    return int(det)


def _hyperbolic_gram(rng, r, even):
    """A seeded gram of signature (1, r - 1), even or odd: a diagonal form,
    or the hyperbolic plane plus a diagonal one when even, in a random
    unimodular basis."""
    if even:
        diag = [2 * rng.randint(1, 2)] + [-2 * rng.randint(1, 2)
                                          for _ in range(r - 1)]
    else:
        diag = [rng.choice((1, 3))] + [-rng.randint(1, 3) for _ in range(r - 1)]
    base = [[diag[i] if i == j else 0 for j in range(r)] for i in range(r)]
    if even and rng.random() < 0.5:
        base[0][0] = base[1][1] = 0
        base[0][1] = base[1][0] = 1
    P = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(r):
        i, j = rng.sample(range(r), 2)
        f = rng.choice((-1, 1))
        P[i] = [a + f * b for a, b in zip(P[i], P[j])]
    return [[sum(P[i][a] * base[a][b] * P[j][b]
                 for a in range(r) for b in range(r)) for j in range(r)]
            for i in range(r)]


def _hits(found):
    return [(F.coords, v) for F, v in found]


def _chained(gram):
    """The gram in the basis e'_0 = e_0, e'_i = e_i + e_{i-1}."""
    def idx(i):
        return [i, i - 1] if i else [i]
    n = len(gram)
    return [[sum(gram[a][c] for a in idx(i) for c in idx(j)) for j in range(n)]
            for i in range(n)]


class TestIsotropicSearch:
    def test_hyperbolic_plane_box3(self):
        m = _model([[0, 1], [1, 0]])
        target = m.klass((1, 1))
        found = isotropic_search(m, target, 3)
        coords = [f.coords for f, _ in found]
        # isotropic vectors in U are exactly the axes
        assert set(coords) == {
            (a, 0) for a in range(-3, 4) if a
        } | {(0, b) for b in range(-3, 4) if b}
        values = [v for _, v in found]
        assert values == sorted(values)

    def test_rank6_box4_matches_literal_scan(self):
        gram = [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, -2, 0, 0, 0],
            [0, 0, 0, -2, 0, 0],
            [0, 0, 0, 0, -2, 0],
            [0, 0, 0, 0, 0, -2],
        ]
        m = _model(gram)
        target = (2, 3, 1, 0, 0, 1)
        got = isotropic_search(m, m.klass(target), 4)
        assert _hits(got) == brute_isotropic(gram, target, 4)

    def test_enriques_box1_matches_direct(self):
        # the walk never reads the target, which only values and orders
        # the hits: the same 180 classes for any target, zero included
        rng = random.Random(21)
        targets = [(1, 1) + (0,) * 8, (2, 3, 1, 0, 0, -1, 0, 0, 0, 1),
                   (0,) * 10]
        targets += [tuple(rng.randint(-4, 4) for _ in range(10))
                    for _ in range(4)]
        classes = set()
        for target in targets:
            found = isotropic_search(E10, E10.klass(target), 1)
            assert _hits(found) == brute_isotropic(E10.gram, target, 1)
            assert len(found) == 180
            classes.add(frozenset(F.coords for F, _ in found))
        assert len(classes) == 1

    def test_matches_oracle_on_random_grams(self):
        # rank 1 first: the walk's first level is then its last
        for gram in ([[0]], [[2]], [[-2]]):
            m = _model(gram)
            for box in (1, 2, 3):
                got = isotropic_search(m, m.klass((1,)), box)
                assert _hits(got) == brute_isotropic(gram, (1,), box)
        rng = random.Random(4)
        kinds = set()
        for trial in range(100):
            r = rng.randint(1, 6)
            box = rng.randint(1, 3)
            A = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            if trial % 3 == 0:  # definite or semidefinite, either sign
                sgn = rng.choice((1, -1))
                gram = [[sgn * sum(a[i] * a[j] for a in A) for j in range(r)]
                        for i in range(r)]
            elif trial % 3 == 1:  # degenerate: a form in fewer variables
                d = [rng.choice((1, -1)) for _ in range(r - 1)]
                gram = [[sum(dk * a[i] * a[j] for dk, a in zip(d, A))
                         for j in range(r)] for i in range(r)]
            else:
                gram = [[0] * r for _ in range(r)]
                for i in range(r):
                    for j in range(i, r):
                        gram[i][j] = gram[j][i] = rng.randint(-3, 3)
            pos, neg, null = signature(gram)
            kinds.add("degenerate" if null else
                      "indefinite" if pos and neg else "definite")
            target = tuple(rng.randint(-3, 3) for _ in range(r))
            m = _model(gram)
            got = isotropic_search(m, m.klass(target), box)
            assert _hits(got) == brute_isotropic(gram, target, box), (gram, box)
        assert kinds == {"definite", "indefinite", "degenerate"}

    def test_one_component_rank10_box1_matches_oracle(self):
        gram = _chained(E10.gram)
        target = (1, 2, 0, -1, 0, 0, 1, 0, 0, 0)
        m = _model(gram)
        got = isotropic_search(m, m.klass(target), 1)
        assert len(got) == 1228
        assert _hits(got) == brute_isotropic(gram, target, 1)

    def test_one_component_rank10_box2_returns(self):
        # the basis graph of the chained gram is connected, so no split
        # into orthogonal components helps; a full scan has 5^10 cells.
        # 74,008 was checked once against a chunked numpy scan.
        m = _model(_chained(E10.gram))
        found = isotropic_search(m, m.klass((1,) + (0,) * 9), 2)
        assert len(found) == 74_008
        assert all(pair(F, F) == 0 for F, _ in found)
        assert all(max(map(abs, F.coords)) <= 2 for F, _ in found)
        keys = [(v, F.coords) for F, v in found]
        assert keys == sorted(keys)

    def test_overflow_guard_up_front(self):
        for gram in ([[2**62, 2**62], [2**62, 2**62]], [[0, 2**62], [2**62, 0]]):
            m = _model(gram)
            with pytest.raises(OverflowGuardError):
                isotropic_search(m, resolve("0", m), 1)

    def test_rejects_bad_box(self):
        with pytest.raises(ModelError):
            isotropic_search(E10, resolve("0", E10), 0)


class TestHodge:
    def test_filter_needs_positive_squares(self):
        m = sigma(1)
        with pytest.raises(ModelError):  # L^2 = 0
            hodge_filter(m.klass((1, -1)), m.klass((6, -2)))
        with pytest.raises(ModelError):  # C^2 = -1
            hodge_filter(m.klass((1, 0)), m.klass((0, 1)))

    def test_filter_pass_and_equality(self):
        m = sigma(1)
        L = m.klass((2, -1))
        C = m.klass((6, -2))
        r = hodge_filter(L, C)
        assert r.outcome == "pass" and r.keeps
        r2 = hodge_filter(L, 3 * L)
        assert r2.outcome == "equality_case" and r2.keeps
        assert r2.lam is not None

    def test_filter_fail_needs_two_positive_directions(self):
        # on a signature-(1, k) lattice the index inequality can never
        # strictly fail for positive squares, so the strict-fail outcome
        # only shows up on forms with a second positive direction
        m = _model([[1, 0], [0, 1]])
        r = hodge_filter(m.klass((1, 0)), m.klass((0, 1)))
        assert r.outcome == "fail" and not r.keeps

    def test_fail_by_integrality_needs_degenerate_form(self):
        cfg_doc = {
            "labels": ["E", "E1", "E2"],
            "pairs": [[0, 1, 1], [0, 2, 1], [1, 2, 0]],
        }
        from divcalc.surfaces import config_from_json_dict

        m = config_from_json_dict(cfg_doc, "degenerate")
        assert determinant(m.gram) == 0
        L = m.klass((1, 1, 0))
        C = m.klass((1, 2, -1))
        r = hodge_filter(L, C)
        assert r.outcome == "fail_by_integrality"
        assert not r.keeps

    def test_equality_on_nondegenerate_is_proportional(self):
        # on a nondegenerate signature-(1, k) lattice, equality in the
        # index inequality forces integral proportionality, so the
        # equality_case outcome must carry the multiplier
        m = sigma(3)
        L = m.klass((1, 0, 0, 0))
        r = hodge_filter(L, 4 * L)
        assert r.outcome == "equality_case" and r.lam == 4


class TestReflection:
    def test_simple_root_reflection(self):
        m = E10
        L = m.klass((3, 1, 2, 0, 0, 0, 0, 0, 0, 0))
        delta = resolve("R1", m)
        img = reflect_nodal(L, delta)
        assert pair(img, img) == pair(L, L)
        assert reflect_nodal(img, delta).coords == L.coords

    def test_rejects_non_nodal(self):
        m = E10
        with pytest.raises(NodalClassError):
            reflect_nodal(resolve("0", m), m.klass((1, 0, 0, 0, 0, 0, 0, 0, 0, 0)))


_SIMPLE_NODALS = [
    (1, -1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
]


@settings(max_examples=100, deadline=None)
@given(
    coords=st.tuples(*[st.integers(-9, 9)] * 10),
    seed=st.integers(0, 10**6),
    hops=st.integers(0, 4),
)
def test_reflection_preserves_form(coords, seed, hops):
    import random

    rng = random.Random(seed)
    m = E10
    delta = m.klass(rng.choice(_SIMPLE_NODALS))
    # reflecting a nodal class in other nodal classes keeps square -2,
    # which walks delta around the root system
    for _ in range(hops):
        other = m.klass(rng.choice(_SIMPLE_NODALS))
        delta = reflect_nodal(delta, other)
    assert pair(delta, delta) == -2
    L = m.klass(coords)
    img = reflect_nodal(L, delta)
    assert pair(img, img) == pair(L, L)
    assert reflect_nodal(img, delta).coords == L.coords
