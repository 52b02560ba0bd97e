"""Canonical serialization, schema diagnostics, and the CLI surface."""

import ast
import copy
import inspect
import json
import math
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from starlift.certify import FiniteSubset, QDCertificate, nuclear_witness_verify
from starlift import __version__, certify, cli, tensorexact
from starlift.cli import cmd_dispatch
from starlift.cpmaps import LinearMapMat, block_apply, complexify, compress
from starlift.io import (SchemaError, _matrices_to_json, algebra_from_json, algebra_to_json,
                         anti_to_json, canonical_dumps, cert_from_json, cert_to_json,
                         ideal_from_json, map_from_json, map_to_json,
                         matrix_from_json, matrix_to_json, subset_from_json,
                         trace_from_json)
from starlift.matrix import matrix_units, op_norm, positivity_defect, split_norm
from starlift.realform import AntiAutomorphism, StarAlgebra, real_decompose, real_form_residual
from starlift.transport import ThetaScale, rho_map, sigma_map

import algebra_oracle
import codec_oracle
from map_fixtures import (block_algebra, full_algebra, random_matrix, random_unitary,
                          unital_compression_map)

ANTI2 = AntiAutomorphism.transpose(2)


@pytest.fixture()
def workdir(tmp_path):
    """Fixture files shared by the CLI tests."""
    files = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(canonical_dumps(doc), encoding="ascii")
        files[name] = str(p)
        return str(p)

    transpose = LinearMapMat.from_function(lambda m: np.asarray(m).T, 2, "C")
    write("transpose2.json", map_to_json(transpose))
    idm = LinearMapMat.identity(2)
    write("idmap2.json", map_to_json(idm))
    cert = QDCertificate(full_algebra(2),
                         FiniteSubset((np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))),
                         idm, epsilon=1e-6)
    write("id_cert.json", cert_to_json(cert))
    phi = unital_compression_map(np.random.default_rng(4), 2, 3, field="R",
                                 terms=2)
    rng = np.random.default_rng(12)
    subset = FiniteSubset(tuple(rng.standard_normal((2, 2)) for _ in range(4)))
    rcert = QDCertificate(full_algebra(2), subset, phi, 9.0,
                          "complex_op", ANTI2)
    write("real_cert.json", cert_to_json(rcert))
    write("real_map.json", map_to_json(phi))
    ccert = QDCertificate(full_algebra(2), subset,
                          complexify(phi, ANTI2), 9.0, "complex_op", ANTI2)
    write("cx_cert.json", cert_to_json(ccert))
    write("phi.json", anti_to_json(ANTI2))
    write("J2.json", anti_to_json(AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))))
    write("idmap3.json", map_to_json(LinearMapMat.identity(3)))
    write("A2.json", algebra_to_json(full_algebra(2)))
    write("ideal.json", {"B": algebra_to_json(block_algebra([2, 3])),
                         "ideal_blocks": [0]})
    write("trace.json", {"gram": matrix_to_json(np.eye(2) / 2)})
    write("x.json", matrix_to_json(np.array([[1.0, 2.0 + 1.0j], [0.0, 1.0]])))
    write("F.json", [matrix_to_json(m) for m in subset.elements])
    files["dir"] = str(tmp_path)
    return files


def _typed(doc):
    """doc with every float tagged by its sign, and numpy scalars as Python ones."""
    if isinstance(doc, dict):
        return {k: _typed(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_typed(v) for v in doc]
    if isinstance(doc, (float, np.floating)):
        return ("float", float(doc), math.copysign(1.0, doc))
    return int(doc) if isinstance(doc, np.integer) else doc


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_dumps({"b": 0.5, "a": 1.0, "c": [True, None, "x"]})
        assert text == '{"a":1.0,"b":0.5,"c":[true,null,"x"]}\n'

    def test_seventeen_digit_floats(self):
        third = 1.0 / 3.0
        text = canonical_dumps(third)
        assert float(text) == third

    def test_round_trip_byte_identity(self):
        doc = {"x": [0.1, 2, -1.0 / 3.0], "y": {"z": "s"}, "f": 1e-9}
        text = canonical_dumps(doc)
        assert canonical_dumps(json.loads(text)) == text

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_dumps(float("nan"))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), np.float64("nan"),
                                       np.zeros(2), 1j])
    def test_rejects_infinity_arrays_and_complex(self, value):
        with pytest.raises(ValueError):
            canonical_dumps({"a": [value]})

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.recursive(
        st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 3, 1e308, -1e308]),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-2 ** 60, 2 ** 60).map(float),
            st.integers(), st.booleans(), st.none(), st.text(max_size=6),
            st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
            st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
            st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)),
        lambda kids: st.one_of(st.lists(kids, max_size=4),
                               st.dictionaries(st.text(max_size=4), kids, max_size=4)),
        max_leaves=24))
    def test_matches_the_per_value_emitter(self, doc):
        text = canonical_dumps(doc)
        assert json.loads(text) == json.loads(codec_oracle.canonical_dumps(doc))
        assert canonical_dumps(json.loads(text)) == text
        assert _typed(json.loads(text)) == _typed(doc)    # float type and zero sign kept


class TestMatrixSchema:
    def test_round_trip_complex(self):
        m = random_matrix(np.random.default_rng(0), 2, 3)
        doc = matrix_to_json(m)
        back = matrix_from_json(doc)
        assert back.dtype == np.complex128
        assert op_norm(back - m) < 1e-15

    def test_round_trip_real_compact(self):
        doc = matrix_to_json(np.eye(2))
        assert doc["field"] == "R"
        assert doc["data"] == [1.0, 0.0, 0.0, 1.0]
        back = matrix_from_json(doc)
        assert back.dtype == np.float64
        assert np.array_equal(back, np.eye(2))

    def test_real_accepts_pairs_with_zero_imag(self):
        doc = {"rows": 1, "cols": 1, "field": "R", "data": [[2.0, 0.0]]}
        assert matrix_from_json(doc)[0, 0] == 2.0

    def test_bad_field(self):
        doc = {"rows": 1, "cols": 1, "field": "Q", "data": [1.0]}
        with pytest.raises(SchemaError, match="field"):
            matrix_from_json(doc)

    def test_wrong_length(self):
        doc = {"rows": 2, "cols": 2, "field": "R", "data": [1.0]}
        with pytest.raises(SchemaError, match="data"):
            matrix_from_json(doc)

    def test_real_rejects_nonzero_imag(self):
        doc = {"rows": 1, "cols": 1, "field": "R", "data": [[1.0, 2.0]]}
        with pytest.raises(SchemaError):
            matrix_from_json(doc)

    def test_uniform_and_per_entry_parsing_agree(self):
        mixed = [3, -2.5, [0.25], [-0.0, -1.5], [7, 0], 1e300]
        pairs = [[3, 0.0], [-2.5, 0.0], [0.25, 0.0], [-0.0, -1.5], [7, 0], [1e300, 0.0]]
        numbers = [3, -2.5, 0.25, -0.0, 7, 1e300]
        got = {}
        for name, data in (("mixed", mixed), ("pairs", pairs), ("numbers", numbers)):
            doc = {"rows": 2, "cols": 3, "field": "C", "data": data}
            got[name] = matrix_from_json(doc).ravel()
            expected = np.array([complex(*v) if isinstance(v, list) else complex(v)
                                 for v in data])
            for part in (np.real, np.imag):
                assert np.array_equal(part(got[name]), part(expected))
                assert np.array_equal(np.signbit(part(got[name])),
                                      np.signbit(part(expected)))
        assert np.array_equal(got["mixed"], got["pairs"])

    @pytest.mark.parametrize("data, path", [
        ([1.0, True], "matrix.data[1]"),
        ([1.0, "2"], "matrix.data[1]"),
        ([[1.0, 0.0], [False, 0.0]], "matrix.data[1][0]"),
        ([[1.0, 0.0], [2.0, "0"]], "matrix.data[1][1]"),
        ([[1.0, 0.0], [2.0, 0.0, 3.0]], "matrix.data[1]"),
    ])
    def test_uniform_layouts_still_name_bad_entries(self, data, path):
        doc = {"rows": 1, "cols": 2, "field": "C", "data": data}
        with pytest.raises(SchemaError) as err:
            matrix_from_json(doc)
        assert err.value.path == path

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite(self, value, tmp_path, capsys):
        doc = map_to_json(LinearMapMat.identity(2))
        doc["images"][3]["data"][1] = [float(value), 0.0]
        text = json.dumps(doc)          # NaN / Infinity literals, as json.load accepts
        with pytest.raises(SchemaError) as err:
            map_from_json(json.loads(text))
        assert err.value.path == "map.images[3].data[1]"
        p = tmp_path / "map.json"
        p.write_text(text)
        code, out, err_text = _run(["cp-check", "--map", str(p)], capsys)
        assert (code, out) == (2, "")
        assert "map.images[3].data[1]" in err_text

    def test_rejects_dimension_below_one(self, tmp_path, capsys):
        doc = {"rows": 0, "cols": 0, "field": "R", "data": []}
        with pytest.raises(SchemaError) as err:
            matrix_from_json(doc)
        assert err.value.path == "matrix.rows"
        p = tmp_path / "u0.json"
        p.write_text(json.dumps({"u": doc}))
        code, out, err_text = _run(["realform", "--phi", str(p)], capsys)
        assert (code, out) == (2, "")
        assert "phi.u.rows" in err_text


NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3))
CORRUPTIONS = ["bool", "str", "null", "nan", "inf", "-inf", "pair1", "pair3", "rows", "cols",
               "data", "real_imag", "not_dict"]


def _corrupt(docs: list, j: int, i: int, kind: str) -> None:
    """Put one corruption into matrix document j of ``docs``, at entry i."""
    doc = docs[j]
    data = doc["data"]
    bad = {"bool": True, "str": "1", "null": None, "nan": float("nan"),
           "inf": float("inf"), "-inf": float("-inf")}
    re = data[i][0] if isinstance(data[i], list) else data[i]
    if kind in bad and isinstance(data[i], list):
        data[i][0] = bad[kind]
    elif kind in bad:
        data[i] = bad[kind]
    elif kind in ("pair1", "pair3"):
        data[i] = [re] if kind == "pair1" else [re, 0.0, 1.0]
    elif kind in ("rows", "cols"):
        doc[kind] += 1
    elif kind == "data":
        data.append(0.0)
    elif kind == "real_imag":
        doc["field"], data[i] = "R", [re, 2.0]
    else:
        docs[j] = data    # not an object


@st.composite
def _matrix_docs(draw):
    """1 to 4 matrix documents of one shape, each R or C, with plain
    entries or [re, im] pairs, after one corruption or none, as read back
    from JSON (NaN and Infinity literals included)."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    docs = []
    for _ in range(draw(st.integers(1, 4))):
        field = draw(st.sampled_from(["R", "C"]))
        data = [draw(NUMBERS) for _ in range(rows * cols)]
        if draw(st.booleans()):
            imag = NUMBERS if field == "C" else st.sampled_from([0, 0.0, -0.0])
            data = [[re, draw(imag)] for re in data]
        docs.append({"rows": rows, "cols": cols, "field": field, "data": data})
    kind = draw(st.sampled_from([None] + CORRUPTIONS))
    if kind is not None:
        _corrupt(docs, draw(st.integers(0, len(docs) - 1)),
                 draw(st.integers(0, rows * cols - 1)), kind)
    return json.loads(json.dumps(docs))


ENCODER_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 3, 1.0]),
                            st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _stacks(draw):
    """A stack of 1 to 4 matrices of one shape: float64, or complex128 with
    each matrix's imaginary part drawn or zero of either sign, so that
    real and complex matrices mix."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    size = shape[1] * shape[2]

    def part():
        return draw(st.lists(ENCODER_ENTRIES, min_size=size, max_size=size))

    re = np.array([part() for _ in range(shape[0])]).reshape(shape)
    if draw(st.booleans()):
        return re
    stack = np.empty(shape, dtype=np.complex128)
    stack.real = re    # set part by part, so a zero keeps its sign
    stack.imag = np.array([part() if draw(st.booleans())
                           else [draw(st.sampled_from([0.0, -0.0]))] * size
                           for _ in range(shape[0])]).reshape(shape)
    return stack


def _decoded(decode):
    """The (shape, bytes) of each matrix ``decode`` returns, or the message
    of the SchemaError it raises."""
    try:
        return [(m.shape, m.tobytes()) for m in decode()]
    except SchemaError as exc:
        return str(exc)


class TestMatrixLists:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_matrix_docs())
    @example([{"rows": True, "cols": 1, "field": "R", "data": [1.0]}])
    @example([{"rows": 1, "cols": 2, "field": "R", "data": [1.0]},
              {"rows": 1, "cols": 2, "field": "R", "data": [1.0, 2.0, 3.0]}])
    def test_one_pass_matches_per_matrix_decoding(self, docs):
        want = _decoded(lambda: [matrix_from_json(d, f"F[{i}]").astype(np.complex128)
                                 for i, d in enumerate(docs)])
        assert _decoded(lambda: subset_from_json(docs, "F")) == want

    def test_a_list_of_one_layout_is_decoded_in_one_call(self):
        docs = [matrix_to_json(m) for m in 1j * matrix_units(3)]
        with mock.patch("starlift.io.matrix_from_json", wraps=matrix_from_json) as spy:
            stack = subset_from_json(docs, "F")
        assert spy.call_count == 1
        assert np.array_equal(stack, 1j * matrix_units(3))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_stacks(), st.sampled_from([None, "R", "C"]))
    @example(np.array([[[1.0 + 0.0j]]]), None)
    @example(np.array([[[-0.0 - 0.0j, 5e-324]], [[0.0, 1.0 + 2.0j]]]), "R")
    @example(np.array([[[-0.0 + 5e-324j]], [[1.0 - 0.0j]]]), None)
    def test_the_stack_encoder_matches_the_per_matrix_one(self, stack, field):
        def encoded(encode):
            try:
                return canonical_dumps(encode())    # keeps the sign of zero and float vs int
            except ValueError as exc:
                return str(exc)

        want = encoded(lambda: [codec_oracle.matrix_to_json(m, field) for m in stack])
        assert encoded(lambda: _matrices_to_json(stack, field)) == want
        if field is None:
            assert encoded(lambda: [matrix_to_json(m) for m in stack]) == want

    def test_maps_algebras_and_certificates_encode_lists_as_the_oracle_does(self):
        def oracle(mats, field=None):
            return canonical_dumps([codec_oracle.matrix_to_json(m, field) for m in mats])

        real = unital_compression_map(np.random.default_rng(0), 2, 3, field="R")
        for phi in (real, complexify(real, ANTI2), LinearMapMat.identity(2)):
            assert canonical_dumps(map_to_json(phi)["images"]) == oracle(phi.images, phi.cod_field)
        b = block_algebra([1, 2])
        assert canonical_dumps(algebra_to_json(b)["span"]) == oracle(b.span)
        subset = FiniteSubset((np.eye(2), np.array([[0.0, 1j], [-0.0, 2.0]])))
        cert = QDCertificate(full_algebra(2), subset, LinearMapMat.identity(2), 1.0)
        assert canonical_dumps(cert_to_json(cert)["F"]) == oracle(subset.elements)

    @pytest.mark.parametrize("kind", [k for k in CORRUPTIONS if k != "pair1"])
    def test_a_bad_map_and_a_bad_algebra_print_the_per_matrix_message(
            self, workdir, tmp_path, capsys, kind):
        cases = [(map_to_json(unital_compression_map(np.random.default_rng(0), 3, 2)),
                  "images", "map", ["cp-check", "--map"]),
                 (algebra_to_json(full_algebra(2)), "span", "algebra",
                  ["exactness", "--ideal", workdir["ideal.json"], "--algebra"])]
        for doc, key, name, argv in cases:
            _corrupt(doc[key], 1, 2, kind)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaError) as exc:
                for i, m in enumerate(json.loads(path.read_text())[key]):
                    matrix_from_json(m, f"{name}.{key}[{i}]")
            code, out, err = _run(argv + [str(path)], capsys)
            assert (code, out, err) == (2, "", f"error: {exc.value}\n")


class TestMapSchema:
    def test_complex_round_trip(self):
        phi = LinearMapMat.from_function(lambda m: np.asarray(m).T, 2, "C")
        back = map_from_json(map_to_json(phi))
        x = random_matrix(np.random.default_rng(1), 2)
        assert op_norm(back.apply(x) - phi.apply(x)) < 1e-14

    def test_real_linear_round_trip(self):
        back = map_from_json(map_to_json(sigma_map(2)))
        assert back.linearity == "R" and back.cod_field == "R"
        x = random_matrix(np.random.default_rng(2), 2)
        assert op_norm(back.apply(x) - sigma_map(2).apply(x)) < 1e-12

    def test_real_domain_round_trip(self):
        back = map_from_json(map_to_json(rho_map(2)))
        assert back.dom_field == "R"
        m = random_matrix(np.random.default_rng(3), 4, field="R")
        assert op_norm(back.apply(m) - rho_map(2).apply(m)) < 1e-12

    def test_image_count_checked(self):
        doc = map_to_json(LinearMapMat.identity(2))
        doc["images"] = doc["images"][:-1]
        with pytest.raises(SchemaError, match="images"):
            map_from_json(doc)

    def test_real_codomain_rejects_imaginary_images(self, tmp_path, capsys):
        doc = map_to_json(LinearMapMat.identity(2))
        doc["cod_field"] = "R"
        doc["images"][1]["data"][3] = [0.0, 1.0]
        with pytest.raises(SchemaError) as err:
            map_from_json(doc)
        assert err.value.path == "map.images[1].data[3]"
        p = tmp_path / "map.json"
        p.write_text(json.dumps(doc))
        code, out, _ = _run(["cp-check", "--map", str(p)], capsys)
        assert (code, out) == (2, "")

    def test_real_codomain_map_rejects_complex_images(self):
        with pytest.raises(ValueError, match="cod_field"):
            LinearMapMat.from_function(lambda x: 1j * x, 2, "C", cod_field="R")

    def test_real_codomain_map_round_trip_exact(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 3, 3))
        phi = LinearMapMat.from_function(lambda x: a @ np.asarray(x).real @ b, 3, "R",
                                         dom_field="R", cod_field="R")
        back = map_from_json(json.loads(json.dumps(map_to_json(phi))))
        assert back.cod_field == "R" and back.dom_field == "R"
        assert np.array_equal(back.images, phi.images)


class TestCertSchema:
    def test_round_trip(self, workdir):
        doc = json.load(open(workdir["real_cert.json"]))
        cert = cert_from_json(doc)
        assert cert.epsilon == 9.0
        assert cert.anti is not None
        assert canonical_dumps(cert_to_json(cert)) == \
            open(workdir["real_cert.json"]).read()

    def test_missing_epsilon_named(self, workdir):
        doc = json.load(open(workdir["id_cert.json"]))
        del doc["epsilon"]
        with pytest.raises(SchemaError, match="epsilon"):
            cert_from_json(doc)

    def test_bad_norm_mode(self, workdir):
        doc = json.load(open(workdir["id_cert.json"]))
        doc["norm_mode"] = "spectral"
        with pytest.raises(SchemaError, match="norm_mode"):
            cert_from_json(doc)


class TestIdealSchema:
    def test_round_trip_and_blocks(self, workdir):
        pres = ideal_from_json(json.load(open(workdir["ideal.json"])))
        assert pres.b.blocks == ((0, 2), (2, 3))
        assert pres.ideal_blocks == (0,)


def _run(argv, capsys):
    code = cmd_dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_lemma_audit_counterexample_exit(self, capsys):
        code, out, _ = _run(["lemma-audit", "--claim", "eqtr1_scale1",
                             "--samples", "100", "--seed", "7"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["report"]["witness"]["ratio"] == 2.0

    def test_lemma_audit_holds_exit(self, capsys):
        code, out, _ = _run(["lemma-audit", "--claim", "eqtr1_scale_half"],
                            capsys)
        assert code == 0

    def test_qd_verify_pass(self, workdir, capsys):
        code, out, _ = _run(["qd-verify", "--cert", workdir["id_cert.json"]],
                            capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["max_mult_defect"] == 0.0

    def test_cp_check_transpose_fails(self, workdir, capsys):
        code, out, _ = _run(["cp-check", "--map", workdir["transpose2.json"]],
                            capsys)
        assert code == 1
        assert json.loads(out)["defect"] == -1.0

    @pytest.mark.parametrize("level", ["1", "2", "3"])
    def test_cp_check_fails_the_tomiyama_map_at_every_level(self, tmp_path, capsys, level):
        # x -> tr(x) 1 - x/2 on M_3 as a real-linear map is 2-positive but
        # not CP, and the fixed-element probe passes it at level 2.
        phi = LinearMapMat.from_function(lambda x: np.trace(x) * np.eye(3) - np.asarray(x) / 2,
                                         3, "R")
        code, out, _ = _run(["cp-check", "--map", _write(tmp_path, "tomiyama.json",
                                                         map_to_json(phi)),
                             "--level", level], capsys)
        doc = json.loads(out)
        assert (code, doc["completely_positive"], doc["choi_level"]) == (1, False, 6)
        assert doc["choi_defect"] == pytest.approx(-0.5, abs=1e-12)
        replay = positivity_defect(block_apply(phi, matrix_from_json(doc["choi_witness"]), 6))
        assert replay <= doc["choi_defect"] + 1e-12
        assert ("witness" in doc) == (level == "3")

    def test_cp_check_env_tolerance(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("STARLIFT_TOL", "10.0")
        code, _, _ = _run(["cp-check", "--map", workdir["transpose2.json"]],
                          capsys)
        assert code == 0

    def test_flag_overrides_env(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("STARLIFT_TOL", "10.0")
        code, _, _ = _run(["cp-check", "--map", workdir["transpose2.json"],
                           "--tol", "1e-9"], capsys)
        assert code == 1

    def test_transport_identity(self, workdir, capsys):
        code, out, _ = _run(["transport", "--phi-map", workdir["idmap2.json"],
                             "--psi-map", workdir["idmap2.json"]], capsys)
        assert code == 0
        assert json.loads(out)["composition_residual"] < 1e-10

    def test_qd_transport_complexify(self, workdir, capsys):
        code, out, _ = _run(["qd-transport", "--cert", workdir["real_cert.json"],
                             "--direction", "complexify"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["extra"]["bounds_hold"]
        assert doc["certificate"]["norm_mode"] == "phi_split"

    def test_qd_transport_realify_fixed_and_paper(self, workdir, capsys):
        code, out, _ = _run(["qd-transport", "--cert", workdir["cx_cert.json"],
                             "--direction", "realify"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["extra"]["bounds_hold"]
        code, out, _ = _run(["qd-transport", "--cert", workdir["cx_cert.json"],
                             "--direction", "realify", "--theta-mode", "paper"],
                            capsys)
        doc = json.loads(out)
        assert doc["certificate"] is None
        assert any("nonlinear theta" in f
                   for f in doc["report"]["extra"]["flags"])

    def test_qd_transport_complexify_takes_phi_over_the_certificates(self, workdir, capsys):
        # --phi replaces the certificate's Phi: the transpose again changes
        # nothing, and u = J moves the real matrices of F out of the real form.
        argv = ["qd-transport", "--cert", workdir["real_cert.json"], "--direction", "complexify"]
        same = _run(argv + ["--phi", workdir["phi.json"]], capsys)
        assert same == _run(argv, capsys) and same[0] == 0
        j2 = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        f0 = cert_from_json(json.load(open(workdir["real_cert.json"]))).subset.elements[0]
        assert _run(argv + ["--phi", workdir["J2.json"]], capsys) == (
            2, "", "error: subset element F[0] is not in the real form "
                   f"(residual {real_form_residual(j2, f0):.3e})\n")

    @pytest.mark.parametrize("mode", ["auto", "paper", "fixed:0.5"])
    def test_qd_transport_realify_quaternionic(self, tmp_path, capsys, mode):
        # Under u = J the real-form parts of the subset have complex
        # entries; the domain norm measures them through sigma.
        anti = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        rng = np.random.default_rng(3)
        subset = FiniteSubset(tuple(random_matrix(rng, 2) for _ in range(3)))
        cert = QDCertificate(full_algebra(2), subset,
                             LinearMapMat.identity(2), 1e-6, "complex_op", anti)
        path = tmp_path / "cert_j.json"
        path.write_text(canonical_dumps(cert_to_json(cert)), encoding="ascii")
        code, out, err = _run(["qd-transport", "--cert", str(path),
                               "--direction", "realify", "--theta-mode", mode], capsys)
        assert code in (0, 1), err
        report = json.loads(out)["report"]
        assert report["norm_mode"] == "real_col1"
        assert np.isfinite(report["max_norm_defect"])
        assert np.isfinite(report["max_mult_defect"])

    def test_trace_audit(self, workdir, capsys):
        code, out, _ = _run(["trace-audit", "--cert", workdir["cx_cert.json"],
                             "--trace", workdir["trace.json"],
                             "--phi", workdir["phi.json"]], capsys)
        doc = json.loads(out)
        assert "transport" in doc and "chain" in doc["transport"]

    def test_trace_audit_auto_is_the_realify_constant(self, workdir, capsys):
        # "auto" means in trace-audit what it means in qd-transport: the
        # fixed per-certificate scale, not the paper normalizer.
        def transport(*mode):
            _, out, _ = _run(["trace-audit", "--cert", workdir["cx_cert.json"],
                              "--trace", workdir["trace.json"],
                              "--phi", workdir["phi.json"], *mode], capsys)
            return json.loads(out)["transport"]

        auto, paper = transport(), transport("--theta-mode", "paper")
        _, out, _ = _run(["qd-transport", "--cert", workdir["cx_cert.json"],
                          "--direction", "realify"], capsys)
        realify = json.loads(out)["report"]["extra"]
        assert transport("--theta-mode", "auto") == auto
        assert (auto["theta_mode"], auto["theta_scale"]) == ("fixed", realify["theta_scale"])
        assert paper["theta_mode"] == "paper" and "theta_scale" not in paper
        assert auto["chain"] != paper["chain"]

    @pytest.mark.parametrize("dims, gram, expect", [
        ([2], [1.0, 0.0], 2),                        # diag(1, 0) is not tracial on M_2
        ([2, 3], [0.35, 0.35, 0.1, 0.1, 0.1], 0)])   # block-constant on M_2 + M_3
    def test_trace_audit_checks_the_witness_is_tracial(self, tmp_path, capsys, dims, gram,
                                                        expect):
        n = sum(dims)
        cert = QDCertificate(block_algebra(dims), FiniteSubset((np.eye(n),)),
                             LinearMapMat.identity(n), 0.1)
        (tmp_path / "cert.json").write_text(canonical_dumps(cert_to_json(cert)))
        (tmp_path / "trace.json").write_text(canonical_dumps({"gram": matrix_to_json(
            np.diag(gram))}))
        code, out, err = _run(["trace-audit", "--cert", str(tmp_path / "cert.json"),
                               "--trace", str(tmp_path / "trace.json")], capsys)
        assert code == expect
        if expect == 2:
            assert out == "" and "not tracial" in err and "1.000e+00" in err
        else:
            assert json.loads(out)["verify"]["pass"] is True

    def test_nuclear_verify(self, workdir, capsys):
        code, out, _ = _run(["nuclear-verify",
                             "--phi-map", workdir["idmap2.json"],
                             "--psi-map", workdir["idmap2.json"],
                             "--set", workdir["F.json"],
                             "--epsilon", "1e-6"], capsys)
        assert code == 0

    def test_fubini_and_exactness(self, workdir, capsys):
        code, out, _ = _run(["fubini", "--algebra", workdir["A2.json"],
                             "--ideal", workdir["ideal.json"]], capsys)
        assert code == 0
        assert json.loads(out)["fubini"]["match"]
        code, out, _ = _run(["exactness", "--algebra", workdir["A2.json"],
                             "--ideal", workdir["ideal.json"]], capsys)
        assert code == 0
        assert json.loads(out)["report"]["ok"]

    def _exactness(self, workdir, capsys, span, u, command="exactness"):
        algebra = workdir["dir"] + "/sub_algebra.json"
        phi = workdir["dir"] + "/sub_phi.json"
        with open(algebra, "w") as fh:
            fh.write(canonical_dumps(algebra_to_json(StarAlgebra(2, span))))
        with open(phi, "w") as fh:
            fh.write(canonical_dumps({"u": matrix_to_json(u)}))
        return _run([command, "--algebra", algebra, "--phi", phi,
                     "--ideal", workdir["ideal.json"]], capsys)

    def test_exactness_on_a_proper_subalgebra(self, workdir, capsys):
        # The real leg is the real form of A = diag, not of all of M_2.
        code, out, _ = self._exactness(
            workdir, capsys, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.eye(2))
        assert code == 0
        report = json.loads(out)["report"]
        assert report["decomposition"]["real_part_dim"] == 52
        assert report["decomposition"]["tensor_dim"] == 52
        assert report["real_kernel"]["kernel_dim"] == 16
        assert report["complex_kernel"]["kernel_dim"] == 16

    def test_exactness_rejects_an_algebra_phi_does_not_preserve(self, workdir, capsys):
        p = np.ones((2, 2)) / 2
        code, out, err = self._exactness(workdir, capsys, (p, np.eye(2) - p),
                                         np.diag([1.0, 1.0j]))
        assert (code, out) == (2, "")
        assert "not invariant under the antiautomorphism" in err

    def test_fubini_rejects_an_algebra_phi_does_not_preserve(self, workdir, capsys):
        p = np.ones((2, 2)) / 2
        code, out, err = self._exactness(workdir, capsys, (p, np.eye(2) - p),
                                         np.diag([1.0, 1.0j]), command="fubini")
        assert (code, out) == (2, "")
        assert "not invariant under the antiautomorphism" in err

    def test_realform_check_and_decompose(self, workdir, capsys):
        code, out, _ = _run(["realform", "--phi", workdir["phi.json"],
                             "--matrix", workdir["x.json"]], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["check"]["ok"]
        assert doc["decomposition"]["recombine_residual"] < 1e-12

    def test_realform_bad_u_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad_phi.json"
        bad.write_text(json.dumps(
            {"u": matrix_to_json(np.diag([2.0, 1.0]))}))
        code, out, _ = _run(["realform", "--phi", str(bad)], capsys)
        assert code == 1
        assert not json.loads(out)["check"]["ok"]

    def test_choi(self, workdir, capsys):
        code, out, _ = _run(["choi", "--map", workdir["transpose2.json"]],
                            capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["min_eigenvalue"] == pytest.approx(-1.0)

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(["frobnicate"], capsys)
        assert code == 2

    def test_unknown_claim(self, capsys):
        code, _, err = _run(["lemma-audit", "--claim", "nope"], capsys)
        assert code == 2
        assert "unknown claim" in err

    def test_schema_error_field(self, workdir, tmp_path, capsys):
        doc = json.load(open(workdir["id_cert.json"]))
        bad = copy.deepcopy(doc)
        bad["F"][0]["field"] = "Q"
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, _, err = _run(["qd-verify", "--cert", str(p)], capsys)
        assert code == 2
        assert "field" in err

    def test_a_non_unital_certificate_exits_two(self, tmp_path, capsys):
        # phi(x) = x_11 / 4 on the unital M_2: ||phi(1) - 1|| = 0.75.
        phi = compress(LinearMapMat.identity(2), 0.5 * np.array([[1.0], [0.0]]))
        cert = QDCertificate(full_algebra(2), FiniteSubset((np.eye(2),)), phi, 1.0)
        p = tmp_path / "non_unital.json"
        p.write_text(canonical_dumps(cert_to_json(cert)), encoding="ascii")
        assert _run(["qd-verify", "--cert", str(p)], capsys) == (
            2, "", "error: certificate: map is not unital: ||phi(1) - 1|| = 7.500e-01\n")

    def test_zero_codomain_map_exits_two(self, tmp_path, capsys):
        p = tmp_path / "cod0.json"
        p.write_text(json.dumps({"dom": 1, "cod": 0, "linearity": "C",
                                 "images": [{"rows": 0, "cols": 0, "field": "R",
                                             "data": []}]}))
        code, out, err = _run(["cp-check", "--map", str(p)], capsys)
        assert (code, out) == (2, "")
        assert "map.cod" in err

    def test_unexpected_exception_exits_two(self, workdir, capsys, monkeypatch):
        def broken(args):
            raise IndexError("index 0 is out of bounds")

        monkeypatch.setattr(cli, "_cmd_choi", broken)
        code, out, err = _run(["choi", "--map", workdir["transpose2.json"]],
                              capsys)
        assert (code, out) == (2, "")
        assert err.startswith("internal error: IndexError")

    def test_witness_ties_report_first_occurrence(self, tmp_path, capsys):
        # F = [x, 1, x]: the repeated x ties every defect it attains with
        # its first copy, which the witness must name.
        rng = np.random.default_rng(5)
        phi = unital_compression_map(rng, 2, 3)
        psi = unital_compression_map(rng, 3, 2)
        x = random_matrix(rng, 2)
        subset = FiniteSubset((x, np.eye(2), x))
        cert = QDCertificate(full_algebra(2), subset, phi, 9.0)
        files = {}
        for name, doc in (("cert", cert_to_json(cert)),
                          ("trace", {"gram": matrix_to_json(np.eye(2) / 2)}),
                          ("phi", map_to_json(phi)), ("psi", map_to_json(psi)),
                          ("F", [matrix_to_json(m) for m in subset.elements])):
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(canonical_dumps(doc))

        _, out, _ = _run(["qd-verify", "--cert", files["cert"]], capsys)
        w = json.loads(out)["report"]["witnesses"]
        assert (w["mult"]["left"], w["mult"]["right"]) == ("F[0]", "F[0]")
        assert w["norm"]["element"] == "F[0]"
        _, out, _ = _run(["trace-audit", "--cert", files["cert"],
                          "--trace", files["trace"]], capsys)
        w = json.loads(out)["verify"]["witnesses"]
        assert (w["mult"]["left"], w["mult"]["right"]) == ("F[0]", "F[0]")
        assert w["trace"]["element"] == "F[0]"
        _, out, _ = _run(["nuclear-verify", "--phi-map", files["phi"],
                          "--psi-map", files["psi"], "--set", files["F"],
                          "--epsilon", "9"], capsys)
        w = json.loads(out)["report"]["witnesses"]
        assert w["approximation"]["element"] == "F[0]"

    def test_missing_file(self, capsys):
        code, _, _ = _run(["qd-verify", "--cert", "/nonexistent.json"], capsys)
        assert code == 2

    def test_output_file(self, workdir, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = _run(["qd-verify", "--cert", workdir["id_cert.json"],
                             "--output", str(out_path)], capsys)
        assert out_path.read_text() == out

    def test_determinism_same_seed(self, workdir, capsys):
        a = _run(["lemma-audit", "--claim", "eta_cp", "--samples", "60",
                  "--seed", "11"], capsys)
        b = _run(["lemma-audit", "--claim", "eta_cp", "--samples", "60",
                  "--seed", "11"], capsys)
        assert a == b


# Every subcommand on fixture inputs, with its --seed when it has one.
SUBCOMMANDS = {
    "complexify": ["--map", "real_map.json"],
    "realform": ["--phi", "phi.json", "--matrix", "x.json", "--seed", "3"],
    "choi": ["--map", "transpose2.json"],
    "cp-check": ["--map", "real_map.json", "--seed", "3"],
    "transport": ["--phi-map", "idmap2.json", "--psi-map", "idmap2.json"],
    "qd-verify": ["--cert", "id_cert.json"],
    "qd-transport": ["--cert", "real_cert.json", "--direction", "complexify"],
    "trace-audit": ["--cert", "cx_cert.json", "--trace", "trace.json",
                    "--phi", "phi.json", "--seed", "3"],
    "nuclear-verify": ["--phi-map", "idmap2.json", "--psi-map", "idmap2.json",
                       "--set", "F.json", "--epsilon", "1e-6"],
    "fubini": ["--algebra", "A2.json", "--ideal", "ideal.json"],
    "exactness": ["--algebra", "A2.json", "--ideal", "ideal.json"],
    "lemma-audit": ["--claim", "eqtr1_scale1", "--samples", "5", "--seed", "3"],
}


def _argv(workdir, command):
    return [command] + [workdir.get(a, a) for a in SUBCOMMANDS[command]]


def test_every_subcommand_covers_the_parser():
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(SUBCOMMANDS) == set(choices)


# Each subcommand's option strings, in parser order: the common --tol,
# --output (and --seed) come last.
OPTIONS = {
    "complexify": ["--map", "--phi", "--tol", "--output"],
    "realform": ["--phi", "--matrix", "--tol", "--output", "--seed"],
    "choi": ["--map", "--tol", "--output"],
    "cp-check": ["--map", "--level", "--tol", "--output", "--seed"],
    "transport": ["--phi-map", "--psi-map", "--tol", "--output"],
    "qd-verify": ["--cert", "--tol", "--output"],
    "qd-transport": ["--cert", "--direction", "--phi", "--theta-mode", "--tol", "--output"],
    "trace-audit": ["--cert", "--trace", "--phi", "--scale", "--theta-mode", "--tol",
                    "--output", "--seed"],
    "nuclear-verify": ["--phi-map", "--psi-map", "--set", "--epsilon", "--target", "--b-list",
                       "--norm-mode", "--tol", "--output"],
    "fubini": ["--algebra", "--ideal", "--phi", "--tol", "--output"],
    "exactness": ["--algebra", "--ideal", "--phi", "--tol", "--output"],
    "lemma-audit": ["--claim", "--samples", "--tol", "--output", "--seed"],
}


def test_every_subcommand_has_a_handler_and_its_options():
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert list(choices) == list(OPTIONS)
    for name, parser in choices.items():
        handler = getattr(cli, "_cmd_" + name.replace("-", "_"))
        assert inspect.isfunction(handler) and handler.__module__ == cli.__name__
        options = [s for a in parser._actions for s in a.option_strings]
        assert options == ["-h", "--help"] + OPTIONS[name], name
    assert {n for n, o in OPTIONS.items() if "--seed" in o} == set(cli.SEEDED)


def test_the_benchmark_generates_every_audit_claim_in_order():
    # bench/gen.py keeps its own copy of the claims; it is read, not imported.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "gen.py")
    tree = ast.parse(open(path, encoding="utf-8").read())
    claims = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["AUDIT_CLAIMS"]]
    assert claims == [certify.AUDIT_CLAIMS]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_report_is_canonical_with_provenance(workdir, tmp_path, capsys,
                                                   monkeypatch, command):
    monkeypatch.setenv("STARLIFT_TOL", "1e-8")
    out_path = tmp_path / "report.json"
    code, out, err = _run(_argv(workdir, command) + ["--output", str(out_path)], capsys)
    assert code in (0, 1), err
    assert canonical_dumps(json.loads(out)) == out
    assert out_path.read_text(encoding="ascii") == out
    seed = 3 if "--seed" in SUBCOMMANDS[command] else 0
    prov = json.loads(out)["provenance"]
    assert {k: prov[k] for k in ("tool", "version", "seed", "tol")} == {
        "tool": "starlift", "version": __version__, "seed": seed, "tol": 1e-8}


@pytest.mark.parametrize("command", ["qd-verify", "cp-check"])
@pytest.mark.parametrize("flag, env", [("0", None), ("-1", None), ("nan", None),
                                       ("inf", None), (None, "inf"), (None, "abc")])
def test_a_tolerance_that_is_not_positive_and_finite_exits_two(
        workdir, capsys, monkeypatch, command, flag, env):
    if env is not None:
        monkeypatch.setenv("STARLIFT_TOL", env)
    argv = _argv(workdir, command) + ([f"--tol={flag}"] if flag is not None else [])
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert "tolerance" in err


@pytest.mark.parametrize("command, option, value, want", [
    *[("nuclear-verify", "--epsilon", v, f"epsilon must be positive and finite, got {v}")
      for v in ("-1.0", "0.0", "nan", "inf")],
    *[("qd-transport", "--theta-mode", f"fixed:{v}",
       f"fixed theta scale must be positive and finite, got {v}") for v in ("inf", "nan")],
    *[("trace-audit", "--scale", v, f"trace transport scale must be finite, got {v}")
      for v in ("inf", "-inf", "nan")],
    *[(command, "--theta-mode", v,
       f"bad theta mode {v!r}; expected 'paper' or 'fixed:<value>'")
      for command in ("qd-transport", "trace-audit") for v in ("fixed:abc", "fixed:", "")],
    # complexify has no use for --theta-mode, but both transport options
    # are checked whichever the direction.
    *[("qd-transport complexify", "--theta-mode", v,
       f"bad theta mode {v!r}; expected 'paper' or 'fixed:<value>'")
      for v in ("bogus", "fixed:abc", "fixed:", "")],
    ("qd-transport complexify", "--theta-mode", "fixed:inf",
     "fixed theta scale must be positive and finite, got inf"),
    ("qd-transport complexify", "--phi", "/nonexistent.json",
     "[Errno 2] No such file or directory: '/nonexistent.json'"),
    # Without --phi there is no transport, but its options are checked all the same.
    ("trace-audit without --phi", "--theta-mode", "bogus",
     "bad theta mode 'bogus'; expected 'paper' or 'fixed:<value>'"),
    ("trace-audit without --phi", "--scale", "nan", "trace transport scale must be finite, got nan"),
    # cp-check decides from the stored images and realform from u's two
    # exact defects; neither draws samples.
    *[("cp-check", "--samples", v, f"unrecognized arguments: --samples={v}")
      for v in ("-1", "0")],
    ("realform", "--samples", "5", "unrecognized arguments: --samples=5"),
    # --level is checked before the map is read, whatever its linearity.
    *[(command, "--level", v, "level must be >= 1")
      for command in ("cp-check", "cp-check on a complex-linear map") for v in ("0", "-3")],
    ("complexify", "--map", "idmap2.json", "map.linearity: complexify expects a real-linear map"),
    # u = J has no real form inside M_2(R), the domain of real_map.json.
    ("complexify", "--phi", "J2.json",
     "input is outside the map's domain span: residual 5.000e-01"),
    ("nuclear-verify", "--psi-map", "idmap3.json", "factorization dimensions do not chain"),
    ("nuclear-verify", "--target", "idmap3.json",
     "target dimensions do not match the factorization")])
def test_a_parameter_out_of_range_exits_two_naming_it(workdir, capsys, command, option,
                                                      value, want):
    # Exit 1 is a verified failure, and a non-finite value must not reach
    # the arithmetic or the JSON encoder.  The last of a repeated option wins.
    argv = {"qd-transport": ["qd-transport", "--cert", workdir["cx_cert.json"],
                             "--direction", "realify"],
            "qd-transport complexify": _argv(workdir, "qd-transport"),
            "trace-audit without --phi": ["trace-audit", "--cert", workdir["cx_cert.json"],
                                          "--trace", workdir["trace.json"]],
            "cp-check on a complex-linear map": ["cp-check", "--map", workdir["idmap2.json"]],
            }.get(command) or _argv(workdir, command)
    value = workdir.get(value, value)
    want = f"error: {want}\n"
    if want.startswith("error: unrecognized arguments"):    # argparse's own message
        want = cli.build_parser().format_usage() + "starlift: " + want
    assert _run(argv + [f"{option}={value}"], capsys) == (2, "", want)


@pytest.mark.parametrize("command, changes, want", [
    ("qd-verify", {"F": [matrix_to_json(np.eye(3))]},
     "certificate: subset dimension does not match the algebra"),
    ("qd-verify", {"phi_map": map_to_json(LinearMapMat.identity(3))},
     "certificate: map domain does not match the algebra"),
    ("qd-verify", {"anti": anti_to_json(AntiAutomorphism.transpose(3))},
     "certificate: antiautomorphism dimension does not match the algebra"),
    # A non-unital algebra admits phi = id/2 on load, but a trace check does not.
    ("trace-audit", {"algebra": algebra_to_json(StarAlgebra(2, matrix_units(2), unital=False)),
                     "phi_map": map_to_json(LinearMapMat(2, 2, "C", 0.5 * matrix_units(2)))},
     "trace verification needs a unital map")])
def test_a_certificate_that_breaks_a_precondition_exits_two(workdir, tmp_path, capsys,
                                                            command, changes, want):
    doc = {**json.load(open(workdir["id_cert.json"])), **changes}
    path = tmp_path / "cert.json"
    path.write_text(canonical_dumps(doc))
    argv = [command, "--cert", str(path)] + (["--trace", workdir["trace.json"]]
                                             if command == "trace-audit" else [])
    assert _run(argv, capsys) == (2, "", f"error: {want}\n")


def test_transport_compares_a_real_domain_phi_on_its_own_basis(workdir, tmp_path, capsys):
    # phi on M_2(R) is tabulated on the real matrix units, not on {E_jl, i E_jl}.
    phi = unital_compression_map(np.random.default_rng(0), 2, 2, field="R")
    path = tmp_path / "phi_real.json"
    path.write_text(canonical_dumps(map_to_json(phi)))
    code, out, err = _run(["transport", "--phi-map", str(path),
                           "--psi-map", workdir["idmap2.json"]], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["composition_residual"] == 0.0


def _write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(canonical_dumps(doc))
    return str(path)


def test_qd_verify_in_real_col1_takes_column_sums_of_complex_images(tmp_path, capsys):
    # A complex-linear compression by real isometries has complex images
    # with zero imaginary part; its defects are column sums of their real parts.
    images = unital_compression_map(np.random.default_rng(4), 2, 3, field="R").images
    phi = lambda x: np.tensordot(x.ravel(), images, axes=1)
    col1 = lambda m: float(np.max(np.sum(np.abs(m), axis=0)))
    f = np.random.default_rng(8).standard_normal((3, 2, 2))
    cert = QDCertificate(full_algebra(2), FiniteSubset(f),
                         LinearMapMat(2, 3, "C", images.astype(complex)), 1e-6, "real_col1")
    code, out, err = _run(["qd-verify", "--cert", _write(tmp_path, "cert.json",
                                                          cert_to_json(cert))], capsys)
    report = json.loads(out)["report"]
    assert (code, err, report["norm_mode"]) == (1, "", "real_col1")
    assert report["max_mult_defect"] == pytest.approx(
        max(col1(phi(a @ b) - phi(a) @ phi(b)) for a in f for b in f), rel=1e-12)
    assert report["max_norm_defect"] == pytest.approx(
        max(abs(col1(phi(a)) - col1(a)) for a in f), rel=1e-12)


def test_qd_verify_in_phi_split_splits_domain_norms_by_the_anti(tmp_path, capsys):
    # Under u = J the identity keeps products exactly, but a domain element
    # splits as r + i s in J's real form while its image splits entrywise.
    anti = AntiAutomorphism(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    f = [random_matrix(np.random.default_rng(9 + i), 2) for i in range(3)]
    cert = QDCertificate(full_algebra(2), FiniteSubset(f), LinearMapMat.identity(2), 1e-6,
                         "phi_split", anti)
    code, out, err = _run(["qd-verify", "--cert", _write(tmp_path, "cert.json",
                                                          cert_to_json(cert))], capsys)
    report = json.loads(out)["report"]
    want = max(abs(split_norm(a) - sum(op_norm(p) for p in real_decompose(anti, a)))
               for a in f)
    assert (code, err, report["norm_mode"]) == (1, "", "phi_split")
    assert report["max_mult_defect"] < 1e-14
    assert report["max_norm_defect"] == pytest.approx(want, rel=1e-12) and want > 0.1


def test_trace_audit_flags_a_trace_that_is_not_real_on_the_real_form(workdir, tmp_path,
                                                                      capsys):
    # (i/2) tr is tracial on M_2 but imaginary on M_2(R), the real form of u = 1.
    cert = QDCertificate(full_algebra(2), FiniteSubset((np.eye(2),)), LinearMapMat.identity(2),
                         0.1)
    code, out, err = _run(["trace-audit", "--cert", _write(tmp_path, "cert.json",
                                                            cert_to_json(cert)),
                           "--trace", _write(tmp_path, "trace.json",
                                             {"gram": matrix_to_json(0.5j * np.eye(2))}),
                           "--phi", workdir["phi.json"]], capsys)
    transport = json.loads(out)["transport"]
    assert err == "" and code == 1      # tau(1) = i, not the normalized trace 1
    assert (transport["real_valued_on_form"], transport["imag_on_form"]) == (False, 0.5)
    assert transport["flags"] == ["witness is not real-valued on the real form; "
                                  "the transported functional is not real-linear there"]
    assert transport["traciality_residual"] < 1e-15


def test_trace_audit_rejects_an_algebra_phi_does_not_preserve(workdir, tmp_path, capsys):
    p = np.ones((2, 2)) / 2
    cert = QDCertificate(StarAlgebra(2, (p, np.eye(2) - p)), FiniteSubset((np.eye(2),)),
                         LinearMapMat.identity(2), 0.1)
    code, out, err = _run(["trace-audit", "--cert", _write(tmp_path, "cert.json",
                                                            cert_to_json(cert)),
                           "--trace", workdir["trace.json"],
                           "--phi", _write(tmp_path, "phi.json",
                                           {"u": matrix_to_json(np.diag([1.0, 1.0j]))})],
                          capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the algebra is not invariant under the antiautomorphism")


@pytest.mark.parametrize("command", ["cp-check", "realform", "trace-audit"])
def test_a_report_without_samples_does_not_depend_on_the_seed(workdir, capsys, command):
    argv = _argv(workdir, command)[:-2]     # without its "--seed", "3"
    reports = [json.loads(_run(argv + ["--seed", seed], capsys)[1]) for seed in ("1", "7")]
    assert [r["provenance"].pop("seed") for r in reports] == [1, 7]
    assert canonical_dumps(reports[0]) == canonical_dumps(reports[1])


@pytest.mark.parametrize("command, phi, field", [
    ("complexify", "real", "R"), ("cp-check", "real", "R"), ("choi", "imaginary", "C")])
def test_a_map_without_cod_field_has_it_inferred_from_its_images(tmp_path, capsys, command,
                                                                 phi, field):
    # Real images give "R" and images with an imaginary part give "C", so
    # each report is the one for the document that spells its field out.
    doc = map_to_json({"real": unital_compression_map(np.random.default_rng(4), 2, 3,
                                                      field="R", terms=2),
                       "imaginary": LinearMapMat(2, 2, "C", 1j * matrix_units(2))}[phi])
    assert doc.pop("cod_field") == field
    reports = [_run([command, "--map", _write(tmp_path, name, d)], capsys)
               for name, d in (("inferred.json", doc), ("spelled.json", {**doc, "cod_field": field}))]
    assert reports[0] == reports[1] and reports[0][0] == 0


@pytest.mark.parametrize("command", ["fubini", "exactness"])
def test_the_zero_ideal_has_a_zero_kernel(workdir, tmp_path, capsys, command):
    # With J = 0 the quotient map is injective: the kernel and its Fubini
    # product are both the zero space.
    ideal = _write(tmp_path, "ideal.json", {"B": algebra_to_json(block_algebra([2, 3])),
                                            "ideal_blocks": []})
    code, out, err = _run([command, "--algebra", workdir["A2.json"], "--ideal", ideal], capsys)
    doc = json.loads(out)
    checks = [doc["fubini"]] if command == "fubini" else [
        doc["report"][key] for key in ("real_kernel", "complex_kernel", "fubini_real",
                                       "fubini_complex")]
    assert (code, err) == (0, "")
    assert all((c["kernel_dim"], c["span_dim"], c["match"]) == (0, 0, True) for c in checks)


@pytest.mark.parametrize("direction, f, labels, want", [
    # Complexified element k is F[k] + i F[h + k], with a zero partner "0".
    ("complexify", "real", ("a", "b", "c"), ["a + i c", "b + i 0"]),
    # An element outside the real form travels as its parts r and s.
    ("realify", "mixed", ("one", "z"), ["one", "z.r", "z.s"])])
def test_qd_transport_keeps_the_labels_of_a_labelled_certificate(tmp_path, capsys, direction,
                                                                 f, labels, want):
    if f == "real":
        subset = FiniteSubset(np.random.default_rng(12).standard_normal((3, 2, 2)), labels)
        phi = unital_compression_map(np.random.default_rng(4), 2, 3, field="R", terms=2)
    else:
        subset = FiniteSubset((np.eye(2), np.array([[1.0, 1.0j], [0.0, 2.0]])), labels)
        phi = LinearMapMat.identity(2)
    cert = QDCertificate(full_algebra(2), subset, phi, 9.0, "complex_op", ANTI2)
    code, out, err = _run(["qd-transport", "--cert", _write(tmp_path, "cert.json",
                                                             cert_to_json(cert)),
                           "--direction", direction], capsys)
    assert code in (0, 1) and err == ""
    assert json.loads(out)["certificate"]["labels"] == want


@pytest.mark.parametrize("name, key, argv", [
    ("id_cert.json", "F", ["qd-verify", "--cert"]),
    ("F.json", None, ["nuclear-verify", "--phi-map", "idmap2.json", "--psi-map", "idmap2.json",
                      "--epsilon", "1e-6", "--set"]),
    ("A2.json", "span", ["exactness", "--ideal", "ideal.json", "--algebra"]),
    ("idmap2.json", "images", ["choi", "--map"])])
def test_a_ragged_list_of_matrices_exits_two_naming_its_entry(workdir, tmp_path, capsys,
                                                              name, key, argv):
    # Only the decoder decides that a list's entries share one shape, and
    # it names the first entry shaped unlike entry 0.
    doc = json.load(open(workdir[name]))
    mats = doc[key] if key else doc
    mats[1] = matrix_to_json(np.eye(3))
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(doc))
    prefix = {"F": "certificate.F", "span": "algebra.span", "images": "map.images"}.get(key, "F")
    code, out, err = _run([workdir.get(a, a) for a in argv] + [str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {prefix}[1]: expected the shape (2, 2) of "
                                       f"{prefix}[0], got (3, 3)\n")


def test_a_ragged_b_list_is_decoded_entry_by_entry(workdir, tmp_path, capsys):
    # Compressions may differ in width: b = 1_2 and a 2x1 column.
    b_list = [np.eye(2), np.array([[1.0], [1.0j]])]
    path = tmp_path / "b.json"
    path.write_text(canonical_dumps([matrix_to_json(b) for b in b_list]))
    code, out, err = _run(["nuclear-verify", "--phi-map", workdir["idmap2.json"],
                           "--psi-map", workdir["transpose2.json"], "--set", workdir["F.json"],
                           "--epsilon", "10", "--b-list", str(path)], capsys)
    assert (code, err) == (0, "")
    psi = map_from_json(json.load(open(workdir["transpose2.json"])))
    subset = FiniteSubset(subset_from_json(json.load(open(workdir["F.json"]))))
    want = nuclear_witness_verify(LinearMapMat.identity(2), psi, subset, 10.0,
                                  b_list=[b.astype(np.complex128) for b in b_list])
    assert json.loads(out)["report"] == json.loads(canonical_dumps(want))
    assert min(want["extra"]["compressed_defects"]) > 0


def _plain(doc) -> bool:
    """Whether doc is made of JSON's own Python types only: a numpy scalar
    (np.float64 is a float) or a tuple is not."""
    if type(doc) is dict:
        return all(type(k) is str and _plain(v) for k, v in doc.items())
    if type(doc) is list:
        return all(map(_plain, doc))
    return doc is None or type(doc) in (str, int, float, bool)


def _load(workdir, name):
    return json.load(open(workdir[name]))


def _cert(workdir, name):
    return cert_from_json(_load(workdir, name))


def _tensor_inputs(workdir):
    return (algebra_from_json(_load(workdir, "A2.json")), ANTI2,
            ideal_from_json(_load(workdir, "ideal.json")))


# Each check on the shared fixtures, the CLI run that prints its report,
# and the key of that report in the CLI's document.
CHECK_REPORTS = {
    "qd_verify": (lambda w: certify.qd_verify(_cert(w, "id_cert.json")),
                  ["qd-verify", "--cert", "id_cert.json"], "report"),
    "qd_complexify": (lambda w: certify.qd_complexify(_cert(w, "real_cert.json"))[1],
                      ["qd-transport", "--cert", "real_cert.json", "--direction", "complexify"],
                      "report"),
    "qd_realify fixed": (lambda w: certify.qd_realify(_cert(w, "cx_cert.json"),
                                                      scale=ThetaScale.parse("fixed:0.5"))[1],
                         ["qd-transport", "--cert", "cx_cert.json", "--direction", "realify",
                          "--theta-mode", "fixed:0.5"], "report"),
    "qd_realify paper": (lambda w: certify.qd_realify(_cert(w, "cx_cert.json"),
                                                      scale=ThetaScale("paper"))[1],
                         ["qd-transport", "--cert", "cx_cert.json", "--direction", "realify",
                          "--theta-mode", "paper"], "report"),
    "nuclear_witness_verify": (
        lambda w: nuclear_witness_verify(
            map_from_json(_load(w, "idmap2.json")), map_from_json(_load(w, "transpose2.json")),
            FiniteSubset(subset_from_json(_load(w, "F.json"))), 10.0),
        ["nuclear-verify", "--phi-map", "idmap2.json", "--psi-map", "transpose2.json",
         "--set", "F.json", "--epsilon", "10"], "report"),
    "trace_qd_verify": (lambda w: certify.trace_qd_verify(_cert(w, "cx_cert.json"),
                                                          trace_from_json(_load(w, "trace.json"))),
                        ["trace-audit", "--cert", "cx_cert.json", "--trace", "trace.json"],
                        "verify"),
    "trace_transport": (lambda w: certify.trace_transport(trace_from_json(_load(w, "trace.json")),
                                                          ANTI2, _cert(w, "cx_cert.json")),
                        ["trace-audit", "--cert", "cx_cert.json", "--trace", "trace.json",
                         "--phi", "phi.json"], "transport"),
    **{f"lemma_audit {claim}": (lambda w, claim=claim: certify.lemma_audit(claim, 5, 3),
                                ["lemma-audit", "--claim", claim, "--samples", "5", "--seed", "3"],
                                "report")
       for claim in certify.AUDIT_CLAIMS},
    "exactness_check": (lambda w: tensorexact.exactness_check(*_tensor_inputs(w)),
                        ["exactness", "--algebra", "A2.json", "--ideal", "ideal.json"], "report"),
    "fubini_check": (lambda w: tensorexact.fubini_check(*_tensor_inputs(w)),
                     ["fubini", "--algebra", "A2.json", "--ideal", "ideal.json"], "fubini"),
}


@pytest.mark.parametrize("name", list(CHECK_REPORTS))
def test_a_check_returns_the_report_the_cli_prints(workdir, capsys, name):
    # One format: the CLI embeds the object a check returns as it is, so
    # the object holds nothing the canonical encoder would refuse.
    check, argv, key = CHECK_REPORTS[name]
    report = check(workdir)
    assert _plain(report)
    code, out, err = _run([workdir.get(a, a) for a in argv], capsys)
    assert code in (0, 1), err
    assert json.loads(out)[key] == json.loads(canonical_dumps(report))

@pytest.mark.parametrize("doc, message", [
    ({"rows": 1, "cols": 1, "field": "R", "data": [1.0]},
     "b_list: expected a nonempty list of matrices"),
    ([], "b_list: expected a nonempty list of matrices"),
    ([{"rows": 2, "cols": 2, "field": "R", "data": [1.0, 0.0, 0.0, 1.0]},
      {"rows": 2, "cols": 1, "field": "R", "data": [1.0, "x"]}],
     "b_list[1].data[1]: expected a number or [re, im] pair, got 'x'"),
    ([{"rows": 2, "cols": 1, "field": "C", "data": [[1.0, 0.0]]}],
     "b_list[0].data: expected 2 row-major entries")])
def test_a_bad_b_list_exits_two_naming_its_path(workdir, tmp_path, capsys, doc, message):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["nuclear-verify", "--phi-map", workdir["idmap2.json"],
                           "--psi-map", workdir["idmap2.json"], "--set", workdir["F.json"],
                           "--epsilon", "10", "--b-list", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["fubini", "exactness"])
def test_an_ideal_outside_b_exits_two(workdir, tmp_path, capsys, command):
    # B = span{I_2} splits into two 1x1 blocks, but E_11 is not in B.
    ideal = tmp_path / "outside.json"
    ideal.write_text(canonical_dumps(
        {"B": algebra_to_json(StarAlgebra(2, (np.eye(2),))), "ideal_blocks": [0]}))
    code, out, err = _run([command, "--algebra", workdir["A2.json"],
                           "--ideal", str(ideal)], capsys)
    assert (code, out) == (2, "")
    assert "ideal.ideal_blocks" in err


@pytest.mark.parametrize("command", ["fubini", "exactness"])
def test_an_all_zero_span_exits_two_naming_it(workdir, tmp_path, capsys, command):
    algebra = _write(tmp_path, "zero.json", {"n": 2, "span": [matrix_to_json(np.zeros((2, 2)))],
                                             "unital": False})
    code, out, err = _run([command, "--algebra", algebra, "--ideal", workdir["ideal.json"]],
                          capsys)
    assert (code, out, err) == (2, "", "error: algebra.span: span is zero\n")


def _rejected_input(kind: str, tmp_path):
    """(algebra path or None, ideal path or None, block partition or None,
    the stderr line the loop oracles give) for an input the validation of
    A, B or the ideal must reject."""
    def write(name, doc):
        path = tmp_path / name
        path.write_text(canonical_dumps(doc), encoding="ascii")
        return str(path)

    if kind in ("not_product_closed", "small_not_product_closed", "not_adjoint_closed"):
        if kind != "not_adjoint_closed":
            # At 1e-6 the raw span's products fell below the bound; on the
            # frame the residual is the same as at scale 1.
            g = np.random.default_rng(5).standard_normal((2, 3, 3))
            h = g[0] + 1j * g[1]
            scale = 1e-6 if kind == "small_not_product_closed" else 1.0
            span = tuple(scale * m for m in (np.eye(3), h + h.conj().T, h @ h.conj().T))
        else:
            span = tuple(e for e in matrix_units(3) if np.argwhere(e)[0, 0] <= np.argwhere(e)[0, 1])
        alg = StarAlgebra(3, span, validate=False)
        want = ("algebra: span is not closed under product/adjoint: "
                f"residual {algebra_oracle.closure_defect(alg):.3e}")
        return write("A.json", algebra_to_json(alg)), None, None, want
    if kind == "ideal_outside_b":
        # B = span{I_2} splits into two 1x1 blocks, but E_11 is not in B.
        b = StarAlgebra(2, (np.eye(2),))
        resid = algebra_oracle.contains_residual(b, matrix_units(1, 2)[0])
        want = f"ideal.ideal_blocks: ideal block 0 does not lie in B: residual {resid:.3e}"
        return None, write("I.json", {"B": algebra_to_json(b), "ideal_blocks": [0]}), None, want
    # B's own block partition gives a two-sided ideal, so this one-sided
    # one needs a partition that is not B's: block 0 = {E_11} inside
    # B = M_2 + C is one-sided.
    b = block_algebra([2, 1])
    blocks = ((0, 1), (1, 2))
    b.__dict__["blocks"] = blocks
    with mock.patch.object(tensorexact.IdealPresentation, "validate"):
        pres = tensorexact.IdealPresentation(b, (0,))
    with pytest.raises(ValueError) as exc:
        algebra_oracle.validate_ideal(pres)
    return (None, write("I.json", {"B": algebra_to_json(b), "ideal_blocks": [0]}), blocks,
            f"ideal.ideal_blocks: {exc.value}")


@pytest.mark.parametrize("command", ["fubini", "exactness"])
@pytest.mark.parametrize("kind", ["not_product_closed", "small_not_product_closed",
                                  "not_adjoint_closed", "ideal_outside_b", "one_sided"])
def test_rejected_inputs_print_the_oracle_message(workdir, tmp_path, capsys, monkeypatch,
                                                  command, kind):
    # The validation measures a whole stack of residuals at once and skips
    # the SVD when the stack's norm is below the tolerance, so each
    # rejection must still print the residual that the one-at-a-time
    # oracle measures.
    algebra, ideal, blocks, want = _rejected_input(kind, tmp_path)
    if blocks is not None:
        # B (n = 3) gets the partition; A (n = 2) keeps its own.
        own = StarAlgebra.blocks.func
        monkeypatch.setattr(StarAlgebra, "blocks",
                            property(lambda alg: blocks if alg.n == 3 else own(alg)))
    code, out, err = _run([command, "--algebra", algebra or workdir["A2.json"],
                           "--ideal", ideal or workdir["ideal.json"]], capsys)
    assert (code, out, err) == (2, "", f"error: {want}\n")


@pytest.mark.parametrize("command", ["fubini", "exactness"])
@pytest.mark.parametrize("ideal_blocks", [[1], [0, 1]])
def test_an_ideal_of_an_algebra_with_off_block_dust_is_accepted(workdir, tmp_path, capsys,
                                                                command, ideal_blocks):
    # B = span{E_11, E_22, 1e-8 E_22 + 5e-13 E_12} is the diagonal algebra
    # up to dust below the rank cut, so its frame has two elements and
    # every union of its blocks is an ideal.
    units = matrix_units(2)
    b = StarAlgebra(2, (units[0], units[3], 1e-8 * units[3] + 5e-13 * units[1]))
    assert len(b.frame) == 2 and b.blocks == ((0, 1), (1, 1))
    ideal = tmp_path / "dust.json"
    ideal.write_text(canonical_dumps({"B": algebra_to_json(b), "ideal_blocks": ideal_blocks}))
    code, out, err = _run([command, "--algebra", workdir["A2.json"],
                           "--ideal", str(ideal)], capsys)
    assert code == 0, err


@pytest.mark.parametrize("command", ["fubini", "exactness"])
@pytest.mark.parametrize("kind", ["proper_subalgebra", "off_block_dust"])
def test_validation_verdicts_do_not_depend_on_the_scale(workdir, tmp_path, capsys,
                                                        command, kind):
    # B is validated on its frame, whose elements have norm 1, so at 1e-150
    # and 1e150, under cmd_dispatch's errstate that raises on overflow, it
    # gets the verdict and message it gets at scale 1.  span{1, X}, with X
    # a rotated 1 (x) sigma_x, is a proper subalgebra of M_4 whose one block
    # is not in it; the dusty B has two blocks, and block 1 is an ideal.
    if kind == "proper_subalgebra":
        q = random_unitary(np.random.default_rng(3), 4)
        span = np.stack([np.eye(4), q @ np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
                         @ q.conj().T])
        ideal_blocks, want = [0], 2
    else:
        units = matrix_units(2)
        span = np.stack([units[0], units[3], 1e-8 * units[3] + 5e-13 * units[1]])
        ideal_blocks, want = [1], 0
    results = []
    for scale in (1.0, 1e-150, 1e150):
        b = StarAlgebra(len(span[0]), scale * span)
        assert not b.is_block_full
        ideal = tmp_path / f"{scale}.json"
        ideal.write_text(canonical_dumps({"B": algebra_to_json(b),
                                          "ideal_blocks": ideal_blocks}))
        code, out, err = _run([command, "--algebra", workdir["A2.json"],
                               "--ideal", str(ideal)], capsys)
        results.append((code, err))
    assert results == [(want, results[0][1])] * 3
    if want == 2:
        assert results[0][1].startswith("error: ideal.ideal_blocks: ideal block 0 does not lie")


@pytest.mark.parametrize("command", ["fubini", "exactness"])
def test_a_tiny_full_algebra_is_one_block(workdir, tmp_path, capsys, command):
    # B = 1e-13 M_2: detect_blocks cuts support relative to B's largest
    # entry, so B has M_2's one 2x2 block and ideal [0] is all of it, as
    # for M_2.  With an absolute cut of 1e-12 it had two 1x1 blocks, and
    # span{E_11} is a one-sided ideal of M_2.
    b = StarAlgebra(2, 1e-13 * matrix_units(2))
    assert b.blocks == ((0, 2),) and b.is_block_full
    ideal = tmp_path / "tiny.json"
    ideal.write_text(canonical_dumps({"B": algebra_to_json(b), "ideal_blocks": [0]}))
    code, out, err = _run([command, "--algebra", workdir["A2.json"],
                           "--ideal", str(ideal)], capsys)
    assert code == 0, err


def test_a_trace_witness_on_a_rescaled_algebra_is_tracial(tmp_path, capsys):
    # 1e5 times a rotated M_3 with tau = tr/3: on the raw span, rounding in
    # products of size 1e10 left |tau(ab) - tau(ba)| at 2.4e-07.
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((9, 9)))
    span = tuple(1e5 * np.tensordot(q, matrix_units(3), axes=(1, 0)))
    cert = QDCertificate(StarAlgebra(3, span), FiniteSubset((np.eye(3),)),
                         LinearMapMat.identity(3), 0.1)
    (tmp_path / "cert.json").write_text(canonical_dumps(cert_to_json(cert)))
    (tmp_path / "trace.json").write_text(canonical_dumps({"gram": matrix_to_json(
        np.eye(3) / 3)}))
    code, out, err = _run(["trace-audit", "--cert", str(tmp_path / "cert.json"),
                           "--trace", str(tmp_path / "trace.json")], capsys)
    assert code == 0, err
    assert json.loads(out)["verify"]["pass"] is True


@pytest.mark.parametrize("command", ["fubini", "exactness"])
def test_an_a_leg_that_is_not_a_frame_exits_two(workdir, capsys, monkeypatch, command):
    # The checks are solved on B's rows and scaled by the A leg's length,
    # which is right only for a frame: a repeated real-form element must
    # fail the Gram test on the CLI path, not double the dimensions.
    frame = tensorexact.real_frame
    monkeypatch.setattr(tensorexact, "real_frame",
                        lambda a, anti: np.concatenate([frame(a, anti)[:1], frame(a, anti)]))
    code, out, err = _run([command, "--algebra", workdir["A2.json"],
                           "--ideal", workdir["ideal.json"]], capsys)
    assert (code, out) == (2, "")
    assert "not orthonormal" in err


@pytest.mark.parametrize("command", ["fubini", "exactness"])
def test_tensor_checks_at_a_large_size(tmp_path, capsys, command):
    # A = M6 under u = J and B = 1+2+3+4 with the ideal {0, 2}: the whole
    # tensor spans have 2160 real dimensions, the kernels 720.
    paths = {}
    for name, doc in (
            ("A", algebra_to_json(full_algebra(6))),
            ("phi", anti_to_json(AntiAutomorphism(np.kron(np.eye(3), [[0.0, 1.0],
                                                                      [-1.0, 0.0]])))),
            ("ideal", {"B": algebra_to_json(block_algebra([1, 2, 3, 4])),
                       "ideal_blocks": [0, 2]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(canonical_dumps(doc), encoding="ascii")
    t0 = time.perf_counter()
    code, out, _ = _run([command, "--algebra", str(paths["A"]), "--phi", str(paths["phi"]),
                         "--ideal", str(paths["ideal"])], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out)
    check = doc["fubini"] if command == "fubini" else doc["report"]["real_kernel"]
    assert check["kernel_dim"] == check["span_dim"] == 720
    if command == "exactness":
        assert doc["report"]["decomposition"]["tensor_dim"] == 2160
    assert elapsed < 2.0


def test_an_unwritable_output_exits_two_before_stdout(workdir, tmp_path, capsys):
    code, out, err = _run(_argv(workdir, "qd-verify") + ["--output", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert str(tmp_path) in err


def test_an_overflow_exits_two_with_empty_stdout(workdir, tmp_path, capfd):
    # Finite 1e308 entries at (0, 1) and (1, 0) of one image overflow the
    # Hermitian part of the real CP check's Choi matrix (one alone no
    # longer overflows, since nothing is sampled).  Captured at the
    # file-descriptor level, so LAPACK's own error handler, which writes
    # to descriptor 1, would show in stdout.
    doc = json.load(open(workdir["real_map.json"]))
    image = doc["images"][0]
    image["data"][1] = image["data"][image["cols"]] = 1e308
    p = tmp_path / "overflow.json"
    p.write_text(json.dumps(doc))
    capfd.readouterr()
    code = cmd_dispatch(["cp-check", "--map", str(p), "--seed", "3"])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: overflow")


def _json_paths(doc, path=()):
    """Every node of a JSON document, as its path of keys and indices."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _mutated(doc, data):
    """doc with one node deleted, retyped, resized or made non-finite."""
    holder = [copy.deepcopy(doc)]           # so that the root has a parent too
    path = (0,) + data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = holder
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kind = data.draw(st.sampled_from(("delete", "type", "dimension", "nonfinite")))
    if kind == "delete":
        del parent[key]
    elif kind == "type":
        parent[key] = data.draw(st.sampled_from(["x", [], {}, True, None, 1, 0.5])
                                .filter(lambda new: type(new) is not type(value)))
    elif kind == "dimension" and isinstance(value, list):
        parent[key] = value[:-1] if data.draw(st.booleans()) else value + value[-1:]
    elif kind == "dimension" and type(value) is int:
        parent[key] = value + data.draw(st.sampled_from((-2, -1, 1)))
    else:
        parent[key] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf, 1e308, -1e308)))
    return holder[0] if holder else None


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(SUBCOMMANDS)), st.data())
def test_mutated_inputs_keep_the_exit_code_contract(workdir, tmp_path, capfd, command, data):
    # One input document per example is mutated; lemma-audit reads none,
    # so its --samples value is replaced instead.  Output is captured at
    # the file-descriptor level, so anything native code prints counts.
    argv = _argv(workdir, command)
    docs = [i for i, a in enumerate(argv) if a.endswith(".json")]
    if docs:
        i = data.draw(st.sampled_from(docs))
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(_mutated(json.load(open(argv[i])), data)))
        argv[i] = str(path)
    else:
        i = argv.index("--samples") + 1
        argv[i] = data.draw(st.sampled_from(("nan", "inf", "1e308", "-1", "0", "x")))
    capfd.readouterr()
    code = cmd_dispatch(argv)
    out, err = capfd.readouterr()
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == "", err
    else:
        report = json.loads(out)
        assert canonical_dumps(report) == out and "provenance" in report
