"""Binary field dumps and declarative field synthesis."""

import struct

import numpy as np
import pytest

from driftsolve.errors import ConfigError
from driftsolve.fieldio import field_from_spec, read_field, write_field
from driftsolve.grid import GridSpec, ScalarField, SymTensorField, VectorField

from util import mesh, sin_s, vec_with


def test_scalar_round_trip(tmp_path):
    g = GridSpec(dim=3, n_axis=8)
    u = sin_s(g, axis=1, amp=0.3, offset=1.0)
    path = tmp_path / "u.dcf1"
    write_field(path, u)
    back = read_field(path)
    assert isinstance(back, ScalarField)
    assert back.grid == g
    assert np.array_equal(back.values, u.values)


def test_vector_round_trip(tmp_path):
    g = GridSpec(dim=3, n_axis=8)
    v = vec_with(g, 2, sin_s(g, axis=0))
    path = tmp_path / "v.dcf1"
    write_field(path, v)
    back = read_field(path)
    assert isinstance(back, VectorField)
    assert np.array_equal(back.values, v.values)


def test_tensor_round_trip_packs_upper_triangle(tmp_path):
    g = GridSpec(dim=3, n_axis=8)
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(3, 3) + g.shape)
    sym = 0.5 * (raw + raw.transpose(1, 0, 2, 3, 4))
    t = SymTensorField(g, sym)
    path = tmp_path / "t.dcf1"
    write_field(path, t)
    n_values = 8**3
    expected = 24 + 6 * n_values * 8  # header + six packed components
    assert path.stat().st_size == expected
    back = read_field(path)
    assert isinstance(back, SymTensorField)
    assert np.array_equal(back.values, t.values)


def test_header_layout(tmp_path):
    g = GridSpec(dim=3, n_axis=8, length=2.0)
    u = ScalarField(g, np.zeros(g.shape))
    path = tmp_path / "u.dcf1"
    write_field(path, u)
    blob = path.read_bytes()
    assert blob[:4] == b"DCF1"
    dim, n_axis = struct.unpack_from("<II", blob, 4)
    (length,) = struct.unpack_from("<d", blob, 12)
    (ncomp,) = struct.unpack_from("<I", blob, 20)
    assert (dim, n_axis, length, ncomp) == (3, 8, 2.0, 1)
    assert len(blob) == 24 + 8 * 8**3


def test_data_is_lexicographic_little_endian(tmp_path):
    g = GridSpec(dim=3, n_axis=8)
    vals = np.arange(8**3, dtype=float).reshape(g.shape)
    path = tmp_path / "u.dcf1"
    write_field(path, ScalarField(g, vals))
    blob = path.read_bytes()
    data = np.frombuffer(blob[24:], dtype="<f8")
    assert np.array_equal(data, vals.ravel(order="C"))


def test_read_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.dcf1"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(ConfigError):
        read_field(path)
    path.write_bytes(b"DCF1" + b"\0" * 4)  # truncated
    with pytest.raises(ConfigError):
        read_field(path)


def test_field_from_spec_constant():
    g = GridSpec(dim=3, n_axis=8)
    u = field_from_spec(g, {"constant": 2.5})
    assert np.all(u.values == 2.5)


def test_field_from_spec_fourier():
    g = GridSpec(dim=3, n_axis=16)
    spec = {
        "constant": 1.0,
        "fourier": [
            {"wavevector": [1, 0, 0], "cos_amp": 0.0, "sin_amp": 0.2},
            {"wavevector": [0, 2, 0], "cos_amp": 0.5, "sin_amp": 0.0},
        ],
    }
    u = field_from_spec(g, spec)
    x = mesh(g)
    expected = 1.0 + 0.2 * np.sin(x[0]) + 0.5 * np.cos(2 * x[1]) + np.zeros(g.shape)
    assert np.allclose(u.values, expected, atol=1e-14)


def test_field_from_spec_honours_grid_length():
    g = GridSpec(dim=3, n_axis=16, length=1.0)
    u = field_from_spec(g, {"fourier": [{"wavevector": [1, 0, 0], "sin_amp": 1.0}]})
    expected = np.sin(2.0 * np.pi * mesh(g)[0] / g.length)
    assert np.allclose(u.values, expected, atol=1e-14)


def test_field_from_spec_vector():
    g = GridSpec(dim=3, n_axis=16)
    spec = {
        "components": [
            {"fourier": [{"wavevector": [1, 0, 0], "cos_amp": 0.0, "sin_amp": 1.0}]},
            {"constant": 0.0},
            {"constant": 2.0},
        ]
    }
    v = field_from_spec(g, spec, kind="vector")
    x = mesh(g)
    assert np.allclose(v.values[0], np.sin(x[0]) + np.zeros(g.shape), atol=1e-14)
    assert np.all(v.values[2] == 2.0)
    # tensors are not built from specs: a component list of the tensor
    # kind's length is an unknown kind, not a tensor field
    with pytest.raises(ConfigError, match="unknown field kind 'tensor'"):
        field_from_spec(g, {"components": spec["components"] * 2}, kind="tensor")


def test_field_from_spec_rejects_unresolvable_modes():
    g = GridSpec(dim=3, n_axis=16)
    with pytest.raises(ConfigError):
        field_from_spec(g, {"fourier": [{"wavevector": [8, 0, 0], "cos_amp": 1.0, "sin_amp": 0.0}]})
    with pytest.raises(ConfigError):
        field_from_spec(g, {"fourier": [{"wavevector": [0, -9, 0], "cos_amp": 1.0, "sin_amp": 0.0}]})
    with pytest.raises(ConfigError):
        field_from_spec(g, {"fourier": [{"wavevector": [1, 0], "cos_amp": 1.0, "sin_amp": 0.0}]})
    with pytest.raises(ConfigError):
        field_from_spec(g, {})
