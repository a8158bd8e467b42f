#!/usr/bin/env python3
"""Seeded generator for the `synth_wide` workload.

Writes one wide app of CLASSES classes in PACKAGES packages. Every class
has a `Build` read that flows through a helper return and `toLowerCase`
into an `equals` guard on a vendor brand; the guarded arm calls a method
whose literals name one rule category. A quarter of the classes also hold
a second `Build` read compared with a literal that names no device, which
is a guard site the device DB must reject. The remaining instructions sit
in worker methods with loops, lowered arithmetic and sparse calls to leaf
methods of other classes.

The seed picks names, fields, vendors, actions and call targets. Counts of
classes, methods and instructions do not depend on it.

    python3 perfbench/gen_synth_wide.py --seed 7 --out synth_wide_7
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

CLASSES = 1200
PACKAGES = 40
WORKERS = 3  # worker methods per class
FIELDS = ("BRAND", "DEVICE", "DISPLAY", "FINGERPRINT", "MANUFACTURER", "MODEL", "PRODUCT")
BRANDS = {  # guard literal -> device-DB brand
    "huawei": "Huawei", "xiaomi": "Xiaomi", "oppo": "OPPO", "vivo": "vivo",
    "samsung": "Samsung", "oneplus": "OnePlus", "meizu": "Meizu", "lenovo": "Lenovo",
    "motorola": "Motorola", "nokia": "Nokia", "sony": "Sony", "zte": "ZTE",
}
NON_DEVICE_LITERALS = ("release", "userdebug", "generic", "unknown")
# (literals placed in the guarded arm, rule category they must classify as)
ACTIONS = (
    (("com.huawei.systemmanager.startupmgr.ui.StartupNormalAppListActivity",), "Permission Management"),
    (("com.miui.permcenter.autostart.AutoStartManagementActivity",), "Permission Management"),
    (("com.huawei.hwid",), "OAID"),
    (("com.samsung.android.deviceidservice.DeviceIdService",), "OAID"),
    (("cn.jpush.android.service.PushService",), "Push Service"),
    (("ro.ril.miui.imei",), "SystemProperties Containing Hardware Identifiers"),
)

APK_ENTRIES = ("AndroidManifest.xml", "classes.dex", "resources.arsc")


def _package(p: int, tag: str) -> str:
    """Packages rotate between a known SDK, developer code and obfuscated code."""
    if p % 3 == 0:
        return f"com/umeng/{tag}/p{p:02d}"
    if p % 3 == 1:
        return f"com/synth{tag}/app/p{p:02d}"
    return f"a/b/{chr(97 + p // 26)}{chr(97 + p % 26)}"


def _worker(j: int, rng: random.Random, leaves: list[str]) -> list[str]:
    return [
        f".method public static work{j}(Landroid/content/Context;)V",
        "    .registers 6",
        f'    const-string v0, "w{j}"',
        "    const/4 v3, 0x0",
        "    :loop",
        "    invoke-virtual {p0, v0}, Landroid/content/Context;->getSystemService"
        "(Ljava/lang/String;)Ljava/lang/Object;",
        "    move-result-object v1",
        "    if-eqz v1, :done",
        "    move-object v2, v1",
        "    add-int/lit8 v3, v3, 0x1",
        "    const/16 v4, 0x8",
        "    if-ne v3, v4, :loop",
        f"    invoke-static {{p0}}, {rng.choice(leaves)}",
        "    :done",
        "    return-void",
        ".end method",
        "",
    ]


def generate(seed: int, out: Path) -> dict:
    """Write `smali/` and `expected.json` under `out`; return the expectation."""
    rng = random.Random(seed)
    tag = f"{rng.randrange(16**4):04x}"
    packages = [_package(p, tag) for p in range(PACKAGES)]
    classes = [f"L{packages[i % PACKAGES]}/K{i:04d};" for i in range(CLASSES)]
    leaves = [f"{c}->leaf(Landroid/content/Context;)V" for c in classes]
    smali = out / "smali"
    guards = []
    sources = 0
    for i, cls in enumerate(classes):
        literal = rng.choice(sorted(BRANDS))
        action_literals, category = rng.choice(ACTIONS)
        probe = f"{cls}->probe(Landroid/content/Context;)V"
        vendor = f"{cls}->vendor(Landroid/content/Context;)V"
        text = [
            f".class public {cls}",
            ".super Ljava/lang/Object;",
            "",
            ".method public static field()Ljava/lang/String;",
            "    .registers 1",
            f"    sget-object v0, Landroid/os/Build;->{rng.choice(FIELDS)}:Ljava/lang/String;",
            "    return-object v0",
            ".end method",
            "",
            ".method public static probe(Landroid/content/Context;)V",
            "    .registers 4",
            f"    invoke-static {{}}, {cls}->field()Ljava/lang/String;",
            "    move-result-object v0",
            "    invoke-virtual {v0}, Ljava/lang/String;->toLowerCase()Ljava/lang/String;",
            "    move-result-object v0",
            f'    const-string v1, "{literal}"',
            "    invoke-virtual {v0, v1}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z",
            "    move-result v2",
            "    if-eqz v2, :skip",
            f"    invoke-static {{p0}}, {vendor}",
            "    :skip",
            f"    invoke-static {{p0}}, {cls}->work0(Landroid/content/Context;)V",
            "    return-void",
            ".end method",
            "",
            ".method public static vendor(Landroid/content/Context;)V",
            f"    .registers {len(action_literals) + 1}",
        ]
        for k, lit in enumerate(action_literals):
            text += [
                f'    const-string v{k}, "{lit}"',
                f"    invoke-static {{p0, v{k}}}, Lcom/vendor/Bridge;->open"
                "(Landroid/content/Context;Ljava/lang/String;)V",
            ]
        text += ["    return-void", ".end method", ""]
        text += [
            ".method public static leaf(Landroid/content/Context;)V",
            "    .registers 2",
            "    const/4 v0, 0x1",
            "    return-void",
            ".end method",
            "",
        ]
        sources += 1
        guards.append({
            "method": probe,
            "index": 7,
            "comparison": "string_equals",
            "guard_strings": [literal],
            "identifiers": {"brand": [BRANDS[literal]]},
            "categories": [category],
            "matched_arm": "fallthrough",
            "reachable_methods": [vendor],
        })
        if i % 4 == 0:
            text += [
                ".method public static flavor()Z",
                "    .registers 3",
                f"    sget-object v0, Landroid/os/Build;->{rng.choice(FIELDS)}:Ljava/lang/String;",
                f'    const-string v1, "{rng.choice(NON_DEVICE_LITERALS)}"',
                "    invoke-virtual {v0, v1}, Ljava/lang/String;->contains(Ljava/lang/CharSequence;)Z",
                "    move-result v2",
                "    if-eqz v2, :no",
                "    nop",
                "    :no",
                "    return v2",
                ".end method",
                "",
            ]
            sources += 1
        for j in range(WORKERS):
            text += _worker(j, rng, leaves)
        path = smali / (cls[1:-1] + ".smali")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(text), encoding="utf-8")

    expected = {
        "app_id": f"synth_wide_{seed}",
        "apk_entries": list(APK_ENTRIES),
        "expect_status": "ok",
        "taint_converged": True,
        "source_counts": {"build_field_read": sources},
        "guards": guards,
    }
    (out / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return expected


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.seed, args.out)


if __name__ == "__main__":
    main()
