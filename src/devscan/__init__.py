"""devscan: find and classify device-specific behaviors in Android smali code."""

__version__ = "0.1.0"

from .apk import (
    ApkEntryList,
    PackerSignature,
    PackingVerdict,
    detect_packing,
    list_apk_entries,
    load_packer_signatures,
)
from .behavior import (
    BehaviorSnippet,
    DeviceGuard,
    GuardSite,
    collect_guard_strings,
    confirm_device_guard,
    extract_region,
    find_device_guards,
    find_guard_sites,
)
from .devicedb import (
    DEFAULT_SOURCE_SPECS,
    DeviceInfoDB,
    IdentifierMatch,
    SourceSpec,
    default_device_db,
    load_device_db,
    match_identifier,
    property_key_for,
)
from .graphs import CFG, CallGraph, build_call_graph, build_cfg, build_cfgs
from .ir import ClassDef, Instruction, MethodIR, Opcode, Program
from .report import AppReport, Budgets, CorpusReport, aggregate, analyze_app, attribute_sources
from .rules import (
    Rule,
    RuleSet,
    classify,
    cluster_by_system_methods,
    default_rules,
    load_rules,
    suggest_keywords,
)
from .smali import load_program, parse_smali_class, print_smali_class
from .taint import DeviceInfoSource, TaintFact, TaintResult, find_sources

__all__ = [
    "ApkEntryList",
    "AppReport",
    "BehaviorSnippet",
    "Budgets",
    "CFG",
    "CallGraph",
    "ClassDef",
    "CorpusReport",
    "DEFAULT_SOURCE_SPECS",
    "DeviceGuard",
    "DeviceInfoDB",
    "DeviceInfoSource",
    "GuardSite",
    "IdentifierMatch",
    "Instruction",
    "MethodIR",
    "Opcode",
    "PackerSignature",
    "PackingVerdict",
    "Program",
    "Rule",
    "RuleSet",
    "SourceSpec",
    "TaintFact",
    "TaintResult",
    "aggregate",
    "analyze_app",
    "attribute_sources",
    "build_call_graph",
    "build_cfg",
    "build_cfgs",
    "classify",
    "cluster_by_system_methods",
    "collect_guard_strings",
    "confirm_device_guard",
    "default_device_db",
    "default_rules",
    "detect_packing",
    "extract_region",
    "find_device_guards",
    "find_guard_sites",
    "find_sources",
    "list_apk_entries",
    "load_device_db",
    "load_packer_signatures",
    "load_program",
    "load_rules",
    "match_identifier",
    "parse_smali_class",
    "print_smali_class",
    "property_key_for",
    "suggest_keywords",
]
