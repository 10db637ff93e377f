"""Property-based fuzzing of the PFW1, PFT1 and model-spec decoders.

Each property starts from small valid files and damages them: a truncation,
a replacement of up to 32 bytes (single-byte overwrites among them), or a
splice of the head of one valid file onto the tail of another. Whatever
comes out must either decode or raise `DataFormatError`; the only other
outcome allowed is `WeightDigestError` when a PFW1 file's spec digest no
longer matches. Both binary formats are canonical, so anything they accept
re-encodes to exactly the bytes that were read.

The `@example`s pin defects that once escaped as other exceptions or were
accepted silently: a NaN payload, a zero dim, a record with fewer values,
permuted dims with the same count, and a conv line with a bad geometry.
"""

import math
import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from purefoodnet import models as M
from purefoodnet.errors import DataFormatError, WeightDigestError
from purefoodnet.tensor import Tensor4, decode_utf8, tensor_from_bytes, tensor_to_bytes

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])


def mutations(valid):
    """Damage recipes for the valid files in `valid`: ("cut", n) keeps the
    first n bytes of valid[0]; ("put", at, width, data) replaces
    valid[0][at:at + width] by data; ("splice", a, i, b, j) joins
    valid[a][:i] and valid[b][j:]."""
    size = max(len(v) for v in valid)
    files = st.integers(0, len(valid) - 1)
    return st.one_of(
        st.tuples(st.just("cut"), st.integers(0, len(valid[0]) - 1)),
        st.tuples(st.just("put"), st.integers(0, len(valid[0]) - 1), st.integers(1, 32),
                  st.binary(min_size=1, max_size=32)),
        st.tuples(st.just("splice"), files, st.integers(0, size), files, st.integers(0, size)),
    )


def damaged(valid, mutation) -> bytes:
    kind, *args = mutation
    if kind == "cut":
        return valid[0][:args[0]]
    if kind == "put":
        at, width, data = args
        return valid[0][:at] + data + valid[0][at + width:]
    a, i, b, j = args
    return valid[a][:i] + valid[b][j:]


# ---------------------------------------------------------------------------
# PFW1 weight files of one tiny spec (every parameter rank the format stores).

PFW1_SPEC = M.ModelSpec(
    input_shape=(4, 4, 1),
    layers=(M.conv_spec("c1", filters=2, kernel=3), M.batchnorm_spec("bn1"),
            M.pool_spec("p1"), M.flatten_spec(), M.dense_spec("out", 3, activation="softmax")),
    top_boundary=3,
)
PFW1_VALID = (M.weights_to_bytes(PFW1_SPEC, M.init_params(PFW1_SPEC, seed=1)),
              M.weights_to_bytes(PFW1_SPEC, M.init_params(PFW1_SPEC, seed=2, dtype=np.float64)))
C1_DIMS = PFW1_VALID[0].index(b"c1.filters") + len(b"c1.filters") + 5  # dims are (2, 3, 3, 1)


@settings(FUZZ)
@given(mutations(PFW1_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("put", C1_DIMS + 32, 4, struct.pack("<f", math.nan)))
@example(("put", C1_DIMS + 8, 8, struct.pack("<Q", 0)))
@example(("put", C1_DIMS, 8, struct.pack("<Q", 1)))  # one filter's worth of values
@example(("put", C1_DIMS, 32, struct.pack("<4Q", 1, 3, 3, 2)))
def test_pfw1_decodes_or_raises_data_format_error(mutation):
    buf = damaged(PFW1_VALID, mutation)
    try:
        params = M.weights_from_bytes(buf, PFW1_SPEC)
    except WeightDigestError:
        assert buf[4:36] != PFW1_VALID[0][4:36]
        return
    except DataFormatError:
        return
    assert M.weights_to_bytes(PFW1_SPEC, params) == buf


# ---------------------------------------------------------------------------
# PFT1 tensor files.

PFT1_VALID = (
    tensor_to_bytes(Tensor4(np.arange(12, dtype=np.float32).reshape(1, 2, 2, 3) - 5.5)),
    tensor_to_bytes(Tensor4(np.linspace(-1.0, 1.0, 6).reshape(2, 1, 3, 1))),
)


@settings(FUZZ)
@given(mutations(PFT1_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("put", 37, 4, struct.pack("<f", math.inf)))
@example(("put", 13, 72, struct.pack("<3Q", 0, 2, 3)))  # dims (1, 0, 2, 3), no payload
def test_pft1_decodes_or_raises_data_format_error(mutation):
    buf = damaged(PFT1_VALID, mutation)
    try:
        x = tensor_from_bytes(buf)
    except DataFormatError:
        return
    assert tensor_to_bytes(x) == buf


# ---------------------------------------------------------------------------
# Model-spec text.

SPEC_VALID = (
    M.model_spec_text(PFW1_SPEC).encode("utf-8"),
    b"input 8 8 3\ntop 4\n"
    b"c1 conv filters=3 kernel=3 stride=2 padding=1 activation=none\n"
    b"bn1 batchnorm trainable=false\np1 pool mode=average window=2 stride=2\n"
    b"d0 dropout rate=0.25\nflatten flatten\nout dense units=2 activation=softmax\n",
)
C1_LINE = SPEC_VALID[0].index(b"c1 conv")


@settings(FUZZ)
@given(mutations(SPEC_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("put", SPEC_VALID[0].index(b"kernel=3") + 7, 1, b"0"))
@example(("put", SPEC_VALID[0].index(b"stride=1", C1_LINE) + 7, 1, b"0"))
@example(("put", SPEC_VALID[0].index(b"padding=1") + 8, 1, b"-1"))
def test_model_spec_parses_or_raises_data_format_error(mutation):
    blob = damaged(SPEC_VALID, mutation)
    try:
        spec = M.parse_model_spec(decode_utf8(blob, "model spec"))
    except DataFormatError:
        return
    assert M.parse_model_spec(M.model_spec_text(spec)) == spec
