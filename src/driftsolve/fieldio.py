"""Field serialization (DCF1 container) and declarative field synthesis.

DCF1 layout, all little endian:

    offset  size  content
    0       4     magic "DCF1"
    4       4     u32 spatial dimension
    8       4     u32 points per axis
    12      8     f64 axis period
    20      4     u32 component count: 1 scalar, dim vector,
                  dim*(dim+1)/2 symmetric tensor (packed upper triangle,
                  row-major: (0,0), (0,1), ..., (1,1), (1,2), ...)
    24      -     components in order, each a C-order f64 block
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ConfigError
from .grid import GridSpec, ScalarField, SymTensorField, VectorField

_MAGIC = b"DCF1"
_HEADER = struct.Struct("<4sIIdI")


def _upper_triangle(dim):
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def write_field(path, field):
    """Serialize a scalar, vector, or symmetric tensor field."""
    g = field.grid
    if isinstance(field, ScalarField):
        comps = [field.values]
    elif isinstance(field, VectorField):
        comps = list(field.values)
    elif isinstance(field, SymTensorField):
        comps = [field.values[i, j] for i, j in _upper_triangle(g.dim)]
    else:
        raise ConfigError(f"cannot serialize object of type {type(field).__name__}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, g.dim, g.n_axis, g.length, len(comps)))
        for comp in comps:
            fh.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())


def read_field(path):
    """Read a DCF1 file back into the matching field type."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ConfigError(f"{path}: truncated header")
    magic, dim, n_axis, length, ncomp = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ConfigError(f"{path}: bad magic {magic!r}")
    try:
        grid = GridSpec(dim=dim, n_axis=n_axis, length=length)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from err
    n_values = n_axis**dim
    expected = _HEADER.size + 8 * n_values * ncomp
    if len(blob) != expected:
        raise ConfigError(f"{path}: expected {expected} bytes, got {len(blob)}")
    comps = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    comps = comps.reshape((ncomp,) + grid.shape)
    if ncomp == 1:
        return ScalarField(grid, comps[0])
    if ncomp == dim:
        return VectorField(grid, comps)
    if ncomp == dim * (dim + 1) // 2:
        vals = np.empty((dim, dim) + grid.shape)
        for idx, (i, j) in enumerate(_upper_triangle(dim)):
            vals[i, j] = comps[idx]
            vals[j, i] = comps[idx]
        return SymTensorField(grid, vals)
    raise ConfigError(f"{path}: component count {ncomp} fits no field kind in "
                      f"dimension {dim}")


def _scalar_from_spec(grid, spec):
    if not isinstance(spec, dict) or not ({"constant", "fourier"} & set(spec)):
        raise ConfigError(f"field spec needs 'constant' and/or 'fourier': {spec!r}")
    vals = np.full(grid.shape, float(spec.get("constant", 0.0)))
    for mode in spec.get("fourier", ()):
        kvec = mode.get("wavevector")
        if not isinstance(kvec, (list, tuple)) or len(kvec) != grid.dim:
            raise ConfigError(f"wavevector must have {grid.dim} integer entries: {kvec!r}")
        # resolvable modes only: the unpaired highest mode is excluded
        if any(abs(int(k)) >= grid.n_axis // 2 for k in kvec):
            raise ConfigError(
                f"wavevector {kvec} is not resolvable on {grid.n_axis} points per axis")
        phase = grid.phase(kvec)
        vals = vals + (float(mode.get("cos_amp", 0.0)) * np.cos(phase)
                       + float(mode.get("sin_amp", 0.0)) * np.sin(phase))
    return ScalarField(grid, vals)


def field_from_spec(grid, spec, kind="scalar"):
    """Build a field from a declarative JSON-style description.

    Scalar specs combine a constant offset with a list of Fourier modes,
    each ``{"wavevector": [..], "cos_amp": a, "sin_amp": b}`` with phase
    :meth:`GridSpec.phase` of the wavevector; a spec naming neither part is
    rejected.  Vector specs (``kind="vector"``) wrap dim scalar specs in a
    ``"components"`` list.
    """
    if kind == "scalar":
        return _scalar_from_spec(grid, spec)
    if kind != "vector":
        raise ConfigError(f"unknown field kind {kind!r}")
    if not isinstance(spec, dict) or "components" not in spec:
        raise ConfigError(f"vector spec needs a 'components' list: {spec!r}")
    comps = spec["components"]
    if len(comps) != grid.dim:
        raise ConfigError(f"vector spec needs {grid.dim} components")
    vals = np.array([_scalar_from_spec(grid, c).values for c in comps])
    return VectorField(grid, vals)
