"""Device-information vocabulary: Build fields, system property keys and
the brand / OS / model identifier database used to confirm guard strings."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path


class DeviceDbError(ValueError):
    pass


@dataclass(frozen=True)
class SourceSpec:
    build_field: str
    property_key: str
    description: str


# android.os.Build fields and the system properties backing them
DEFAULT_SOURCE_SPECS: tuple[SourceSpec, ...] = (
    SourceSpec("BRAND", "ro.product.brand", "Consumer-visible Brand"),
    SourceSpec("DEVICE", "ro.product.device", "Name of the Industrial Design"),
    SourceSpec("DISPLAY", "ro.build.display.id", "Build ID String for Users"),
    SourceSpec("FINGERPRINT", "ro.build.fingerprint", "String that Identifies Current Build"),
    SourceSpec("MANUFACTURER", "ro.product.manufacturer", "Manufacturer of the Product/Hardware"),
    SourceSpec("MODEL", "ro.product.model", "End-user-visible Name for the Product"),
    SourceSpec("PRODUCT", "ro.product.name", "Name of the Overall Product"),
)

BUILD_FIELDS = tuple(s.build_field for s in DEFAULT_SOURCE_SPECS)
_FIELD_TO_KEY = {s.build_field: s.property_key for s in DEFAULT_SOURCE_SPECS}


def property_key_for(build_field: str) -> str:
    """System property key backing an android.os.Build field."""
    try:
        return _FIELD_TO_KEY[build_field]
    except KeyError:
        raise DeviceDbError(f"unknown Build field {build_field!r}") from None


class IdentifierKind:
    BRAND = "brand"
    OS = "os"
    MODEL = "model"

    ALL = (BRAND, OS, MODEL)


class MatchMode:
    EXACT_TOKEN = "exact_token"
    SUBSTRING = "substring"


@dataclass(frozen=True)
class IdentifierMatch:
    matched_text: str
    kind: str
    db_entry: str
    match_mode: str


_TOKEN_RE = re.compile(r"[^0-9a-z]+")


def _canon(text: str) -> str:
    # plain Unicode case folding, no locale tailoring
    return text.casefold()


def _tokens(canon_text: str) -> set[str]:
    return {t for t in _TOKEN_RE.split(canon_text) if t}


class DeviceInfoDB:
    """Identifier sets with canonical (casefolded) keys, originals retained."""

    def __init__(
        self,
        brands: dict[str, str],
        os_names: dict[str, str],
        models: dict[str, str],
        overlap_whitelist: frozenset[str] = frozenset(),
    ):
        self.brands = brands
        self.os_names = os_names
        self.models = models
        self.overlap_whitelist = overlap_whitelist
        self._validate()

    def _validate(self) -> None:
        groups = {
            IdentifierKind.BRAND: self.brands,
            IdentifierKind.OS: self.os_names,
            IdentifierKind.MODEL: self.models,
        }
        for kind, entries in groups.items():
            for canon, original in entries.items():
                if not canon or not original:
                    raise DeviceDbError(f"empty {kind} entry")
        kinds = list(groups.items())
        for i, (kind_a, a) in enumerate(kinds):
            for kind_b, b in kinds[i + 1 :]:
                clash = (set(a) & set(b)) - self.overlap_whitelist
                if clash:
                    raise DeviceDbError(
                        f"{kind_a}/{kind_b} overlap not whitelisted: {sorted(clash)}"
                    )

    def entries(self, kind: str) -> dict[str, str]:
        return {
            IdentifierKind.BRAND: self.brands,
            IdentifierKind.OS: self.os_names,
            IdentifierKind.MODEL: self.models,
        }[kind]

    def size(self) -> tuple[int, int, int]:
        return len(self.brands), len(self.os_names), len(self.models)


def parse_device_db(text: str, origin: str = "<db>") -> DeviceInfoDB:
    """Parse `kind,value` CSV rows with `#` comments; duplicates collapse."""
    groups: dict[str, dict[str, str]] = {k: {} for k in IdentifierKind.ALL}
    whitelist: set[str] = set()
    rows = 0
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "," not in line:
            raise DeviceDbError(f"{origin} line {line_no}: expected kind,value")
        kind, value = (p.strip() for p in line.split(",", 1))
        if not value:
            raise DeviceDbError(f"{origin} line {line_no}: empty value")
        if kind == "overlap":
            whitelist.add(_canon(value))
            continue
        if kind not in IdentifierKind.ALL:
            raise DeviceDbError(f"{origin} line {line_no}: unknown kind {kind!r}")
        groups[kind].setdefault(_canon(value), value)
        rows += 1
    if rows == 0:
        raise DeviceDbError(f"{origin}: no identifier rows loaded")
    return DeviceInfoDB(
        brands=groups[IdentifierKind.BRAND],
        os_names=groups[IdentifierKind.OS],
        models=groups[IdentifierKind.MODEL],
        overlap_whitelist=frozenset(whitelist),
    )


def load_device_db(path: str | Path) -> DeviceInfoDB:
    path = Path(path)
    return parse_device_db(path.read_text(encoding="utf-8"), str(path))


def default_device_db() -> DeviceInfoDB:
    from importlib.resources import files

    text = (files("devscan") / "data" / "device_db.csv").read_text(encoding="utf-8")
    return parse_device_db(text, "device_db.csv")


def merge_device_dbs(dbs: list[DeviceInfoDB]) -> DeviceInfoDB:
    brands: dict[str, str] = {}
    os_names: dict[str, str] = {}
    models: dict[str, str] = {}
    whitelist: set[str] = set()
    for db in dbs:
        for canon, orig in db.brands.items():
            brands.setdefault(canon, orig)
        for canon, orig in db.os_names.items():
            os_names.setdefault(canon, orig)
        for canon, orig in db.models.items():
            models.setdefault(canon, orig)
        whitelist |= db.overlap_whitelist
    return DeviceInfoDB(brands, os_names, models, frozenset(whitelist))


def match_identifier(candidate: str, db: DeviceInfoDB) -> list[IdentifierMatch]:
    """All database entries the candidate string matches.

    Comparison is case-insensitive. Entries of three or more characters
    match when equal to the candidate, equal to one of its tokens, or a
    substring of it; shorter entries match only by whole-token equality.
    Results order brand before OS before model, each group sorted by entry.
    """
    if not candidate:
        raise DeviceDbError("empty candidate")
    cand = _canon(candidate)
    tokens = _tokens(cand)
    out: list[IdentifierMatch] = []
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
