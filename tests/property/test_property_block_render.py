"""Property: a block rendered through the JSONL line template is byte-equal
to ``json.dumps(record, sort_keys=True)`` per line.

Blocks are drawn in the shape the engine produces (shared template
columns, varying float/int/string columns, annotation columns) and then
salted with the values a ``%``-template could get wrong: signed zero,
subnormals, floats whose shortest repr switches to exponent form, NaN and
infinities (which must take the per-row fallback), int/float mixes in one
column, and non-ASCII, ``%`` and ``"`` characters in shared strings.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.store import (
    TEMPLATE_MIN_ROWS,
    JsonlResultStore,
    RecordBlock,
    render_jsonl_block,
)

_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, 1e-7, 1.5e300, 123456789.0,
    float("nan"), float("inf"), float("-inf"),
)

_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
)
_finite_floats = st.one_of(
    st.sampled_from([f for f in _EDGE_FLOATS if f - f == 0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: Strings with the characters a template or the JSON encoder must escape.
_text = st.lists(
    st.sampled_from(list('ab%"\\ é中\n\x00😀') + ["%s", "%%", "%r", "%(x)d"]),
    max_size=8,
).map("".join)
_params_json = st.one_of(
    st.none(),
    st.dictionaries(_text, st.one_of(_text, _finite_floats, st.integers()), max_size=3).map(
        lambda params: json.dumps(params, sort_keys=True)
    ),
)
_shared_values = st.fixed_dictionaries(
    {
        "base": _text,
        "nodes": st.lists(_floats, min_size=1, max_size=4),
        "packaging": _text,
        "packaging_params": _params_json,
        "system": _text,
        "silicon_area_mm2": _floats,
        "package_area_mm2": _floats,
        "power_w": _floats,
    }
)


def _column(rows: int, values: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(values, min_size=rows, max_size=rows)


@st.composite
def blocks(draw) -> RecordBlock:
    rows = draw(st.integers(1, 2 * TEMPLATE_MIN_ROWS))
    shared = draw(_shared_values)
    varying = {
        "scenario": draw(_column(rows, st.integers(0, 10**12))),
        "fab_source": draw(_column(rows, _text)),
        "lifetime_years": draw(_column(rows, _finite_floats)),
        "system_volume": draw(
            st.one_of(
                _column(rows, _finite_floats),
                _column(rows, st.one_of(_finite_floats, st.integers(1, 10**7))),
            )
        ),
        "overrides": draw(
            st.one_of(
                st.just([None] * rows),
                _column(rows, _params_json),
            )
        ),
        "total_carbon_g": draw(st.one_of(_column(rows, _finite_floats), _column(rows, _floats))),
    }
    records = []
    for row in range(rows):
        record = copy.deepcopy(shared)
        record.update({key: column[row] for key, column in varying.items()})
        records.append(record)
    shared_keys = list(shared)
    if draw(st.booleans()):
        # Annotation columns (SweepEngine.run(annotate=...)) ride as extra
        # shared keys.
        annotations = {"search_round": draw(st.integers(0, 99)), "note": draw(_text)}
        records = [{**record, **annotations} for record in records]
        shared_keys += list(annotations)
    return RecordBlock(records, shared_keys)


def _expected(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


@settings(max_examples=150)
@given(blocks())
def test_template_render_equals_json_dumps(block):
    rendered = render_jsonl_block(block, block.shared_keys)
    if rendered is not None:
        assert rendered == _expected(block)


@settings(max_examples=60)
@given(blocks())
def test_store_extend_equals_json_dumps(block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.jsonl"
        with JsonlResultStore(path) as store:
            store.extend(block)
        assert path.read_bytes() == _expected(block).encode("utf-8")


@settings(max_examples=60)
@given(blocks())
def test_template_falls_back_only_on_non_finite_or_mixed_columns(block):
    rendered = render_jsonl_block(block, block.shared_keys)
    shared = set(block.shared_keys)
    exact = True
    for key in block[0]:
        if key in shared:
            continue
        column = [record[key] for record in block]
        if len(set(map(type, column))) != 1:
            exact = False
        elif type(column[0]) is float and not all(v - v == 0.0 for v in column):
            exact = False
    assert (rendered is not None) == exact
