import re

import pytest
from hypothesis import given, settings, strategies as st

from devscan.devicedb import (
    BUILD_FIELDS,
    DEFAULT_SOURCE_SPECS,
    DeviceDbError,
    IdentifierKind,
    IdentifierMatch,
    MatchMode,
    default_device_db,
    load_device_db,
    match_identifier,
    merge_device_dbs,
    parse_device_db,
    property_key_for,
)

TABLE = {
    "BRAND": "ro.product.brand",
    "DEVICE": "ro.product.device",
    "DISPLAY": "ro.build.display.id",
    "FINGERPRINT": "ro.build.fingerprint",
    "MANUFACTURER": "ro.product.manufacturer",
    "MODEL": "ro.product.model",
    "PRODUCT": "ro.product.name",
}


def test_property_keys_exact():
    for field, key in TABLE.items():
        assert property_key_for(field) == key


def test_property_key_map_is_bijection():
    keys = {property_key_for(f) for f in BUILD_FIELDS}
    assert len(keys) == len(BUILD_FIELDS) == 7


def test_default_specs_cover_each_field_once():
    fields = [s.build_field for s in DEFAULT_SOURCE_SPECS]
    assert sorted(fields) == sorted(BUILD_FIELDS)


def test_unknown_field_rejected():
    with pytest.raises(DeviceDbError):
        property_key_for("SERIAL")


# -- database loading ---------------------------------------------------------

def test_load_rows(tmp_path):
    path = tmp_path / "db.csv"
    path.write_text("brand,Samsung\nos,MIUI\nmodel,SM-S918B\n", encoding="utf-8")
    db = load_device_db(path)
    assert db.size() == (1, 1, 1)


def test_empty_file_is_error():
    with pytest.raises(DeviceDbError):
        parse_device_db("# nothing here\n")


def test_duplicate_rows_collapse():
    db = parse_device_db("brand,Huawei\nbrand,Huawei\n")
    assert db.size() == (1, 0, 0)


def test_unknown_kind_rejected():
    with pytest.raises(DeviceDbError):
        parse_device_db("vendor,Samsung\n")


def test_empty_value_rejected():
    with pytest.raises(DeviceDbError):
        parse_device_db("brand,\n")


def test_overlap_requires_whitelist():
    with pytest.raises(DeviceDbError):
        parse_device_db("brand,Nova\nmodel,Nova\n")
    db = parse_device_db("brand,Nova\nmodel,Nova\noverlap,Nova\n")
    assert db.size() == (1, 0, 1)


def test_merge_keeps_first_original_form():
    a = parse_device_db("brand,OPPO\n")
    b = parse_device_db("brand,oppo\nos,ColorOS\n")
    merged = merge_device_dbs([a, b])
    assert merged.brands == {"oppo": "OPPO"}
    assert merged.size() == (1, 1, 0)


def test_default_db_loads_expected_scale(device_db):
    brands, oses, models = device_db.size()
    assert brands >= 25 and oses >= 12 and models >= 45


# -- identifier matching -------------------------------------------------------

def test_exact_brand_match(device_db):
    matches = match_identifier("oppo", device_db)
    assert [(m.kind, m.db_entry, m.match_mode) for m in matches] == [
        ("brand", "OPPO", MatchMode.EXACT_TOKEN)
    ]


def test_versioned_os_matches_by_substring(device_db):
    matches = match_identifier("Funtouch OS_2.5.1", device_db)
    assert ("os", "Funtouch OS", MatchMode.SUBSTRING) in [
        (m.kind, m.db_entry, m.match_mode) for m in matches
    ]


def test_short_entry_needs_whole_token(device_db):
    assert match_identifier("flag", device_db) == []
    assert match_identifier("vulgar", device_db) == []
    lg = [m for m in match_identifier("LG", device_db) if m.db_entry == "LG"]
    assert lg and lg[0].match_mode == MatchMode.EXACT_TOKEN


def test_token_match_inside_larger_string(device_db):
    matches = match_identifier("ro.build.version.emui", device_db)
    assert ("os", "EMUI") in [(m.kind, m.db_entry) for m in matches]


def test_result_groups_brand_os_model():
    db = parse_device_db("brand,Acme\nos,AcmeOS\nmodel,Acme One\n")
    matches = match_identifier("acmeos on acme one", db)
    assert [m.kind for m in matches] == ["brand", "os", "model"]


def test_empty_candidate_rejected(device_db):
    with pytest.raises(DeviceDbError):
        match_identifier("", device_db)


def test_case_insensitive_at_result_level(device_db):
    for candidate in ("oppo", "Funtouch OS_2.5.1", "SM-S918B", "xiaomi MIUI"):
        assert match_identifier(candidate, device_db) == match_identifier(
            candidate.upper(), device_db
        )


@given(st.text(min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_case_insensitivity_property(candidate):
    db = default_device_db()
    assert match_identifier(candidate, db) == match_identifier(candidate.upper(), db)


def _naive_recheck(candidate: str, match) -> bool:
    """Independent scanner: re-verify a match under its declared mode."""
    cand = candidate.casefold()
    entry = match.db_entry.casefold()
    tokens = set(t for t in re.split(r"[^0-9a-z]+", cand) if t)
    if match.match_mode == MatchMode.EXACT_TOKEN:
        return entry == cand or entry in tokens
    return len(entry) >= 3 and entry in cand


@given(st.text(min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_every_match_survives_naive_recheck(candidate):
    db = default_device_db()
    for match in match_identifier(candidate, db):
        assert _naive_recheck(candidate, match)


def test_matches_against_corpus_guard_strings(device_db):
    # every identifier the pipeline attaches must satisfy the naive scanner
    from tests.conftest import corpus_run
    from devscan.behavior import find_device_guards

    for fid in ("oppo_perm", "multi_guard", "funtouch_os", "nullcheck"):
        run = corpus_run(fid)
        for guard in find_device_guards(run.taint, run.cfgs, device_db):
            for match in guard.identifiers:
                assert any(
                    _naive_recheck(s, match) for s in guard.guard_strings
                )


def _sorting_reference(candidate: str, db) -> list[IdentifierMatch]:
    """Brute-force matcher that sorts each group on every call."""
    cand = candidate.casefold()
    tokens = {t for t in re.split(r"[^0-9a-z]+", cand) if t}
    out = []
    for kind in IdentifierKind.ALL:
        entries = db.entries(kind)
        for canon in sorted(entries):
            original = entries[canon]
            if canon == cand:
                out.append(IdentifierMatch(cand, kind, original, MatchMode.EXACT_TOKEN))
            elif canon in tokens:
                out.append(IdentifierMatch(canon, kind, original, MatchMode.EXACT_TOKEN))
            elif len(canon) >= 3 and canon in cand:
                out.append(IdentifierMatch(canon, kind, original, MatchMode.SUBSTRING))
    return out


# short values, so many fall under the three characters a substring match needs
_VALUE = st.text(alphabet="abOoP1é -_.", min_size=1, max_size=6).map(str.strip).filter(bool)


@st.composite
def _dbs_and_candidates(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(IdentifierKind.ALL), _VALUE), min_size=1))
    kinds: dict[str, set[str]] = {}
    for kind, value in rows:
        kinds.setdefault(value.casefold(), set()).add(kind)
    # a value listed under two kinds needs an overlap row
    overlaps = [value for value, of in kinds.items() if len(of) > 1]
    overlaps += draw(st.lists(_VALUE, max_size=2))
    db = parse_device_db(
        "\n".join([f"{kind},{value}" for kind, value in rows] + [f"overlap,{v}" for v in overlaps])
    )
    entry = st.sampled_from([value for _, value in rows])
    candidates = draw(st.lists(st.one_of(
        entry,  # exact
        entry.map(lambda e: f"x {e}-y"),  # token
        entry.map(lambda e: f"q{e}z"),  # substring
        entry.map(str.swapcase),  # case
        entry.map(str.upper),
        _VALUE,
    ), min_size=1, max_size=6))
    return db, candidates


@given(_dbs_and_candidates())
@settings(max_examples=200, deadline=None)
def test_match_identifier_equals_sorting_reference(drawn):
    db, candidates = drawn
    for candidate in candidates:
        assert match_identifier(candidate, db) == _sorting_reference(candidate, db)
