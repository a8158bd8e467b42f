#!/usr/bin/env python3
"""Seeded generator for the `call_web` workload.

Writes one app: a ring of N static methods in the shape of
`tools/gen_budget_bomb.py` (each reads a `Build` field and unions it with
its parameter and the returns of eight callees), plus an entry class whose
one `equals` guard compares the ring's result with a vendor brand and, on a
match, opens that vendor's auto-start settings page.

The seed picks the package, the field each ring method reads, the ring
method the entry calls and the vendor. It never changes the ring's size or
wiring, so every seed costs the taint fixpoint the same work.

    python3 perfbench/gen_call_web.py --seed 7 --out call_web_7
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

N = 40  # methods in the ring
OFFSETS = (1, 2, 3, 5, 8, 13, 21, 34)  # call targets per ring method
FIELDS = ("BRAND", "DEVICE", "DISPLAY", "FINGERPRINT", "MANUFACTURER", "MODEL", "PRODUCT")

# guard literal -> (device-DB brand, settings activity package, activity, rule category)
VENDORS = {
    "huawei": ("Huawei", "com.huawei.systemmanager",
               "com.huawei.systemmanager.startupmgr.ui.StartupNormalAppListActivity",
               "Permission Management"),
    "xiaomi": ("Xiaomi", "com.miui.securitycenter",
               "com.miui.permcenter.autostart.AutoStartManagementActivity",
               "Permission Management"),
    "oppo": ("OPPO", "com.coloros.safecenter",
             "com.coloros.safecenter.permission.startup.StartupAppListActivity",
             "Permission Management"),
    "vivo": ("vivo", "com.vivo.permissionmanager",
             "com.vivo.permissionmanager.activity.BgStartUpManagerActivity",
             "Permission Management"),
    "oneplus": ("OnePlus", "com.oneplus.security",
                "com.oneplus.security.chainlaunch.view.ChainLaunchAppListActivity",
                "Permission Management"),
    "asus": ("ASUS", "com.asus.mobilemanager",
             "com.asus.mobilemanager.powersaver.PowerSaverSettings",
             "Permission Management"),
}

APK_ENTRIES = ("AndroidManifest.xml", "classes.dex", "resources.arsc")


def ring_method(cls: str, i: int, field: str) -> list[str]:
    # v1 accumulates the union of the field read, the parameter and every
    # callee return; unions need join points, hence the diamonds
    lines = [
        f".method public static m{i:02d}(Ljava/lang/String;)Ljava/lang/String;",
        "    .registers 8",
        f"    sget-object v0, Landroid/os/Build;->{field}:Ljava/lang/String;",
        "    if-nez v0, :param",
        "    move-object v1, v0",
        "    goto :seeded",
        "    :param",
        "    move-object v1, p0",
        "    :seeded",
        "    nop",
    ]
    for k in OFFSETS:
        lines += [
            f"    invoke-static {{v1}}, {cls}->m{(i + k) % N:02d}(Ljava/lang/String;)Ljava/lang/String;",
            "    move-result-object v2",
            f"    if-nez v2, :ret{k}",
            "    move-object v3, v1",
            f"    goto :acc{k}",
            f"    :ret{k}",
            "    move-object v3, v2",
            f"    :acc{k}",
            "    move-object v4, v3",
            "    move-object v5, v4",
            "    move-object v1, v5",
        ]
    return lines + ["    return-object v1", ".end method", ""]


def generate(seed: int, out: Path) -> dict:
    """Write `smali/` and `expected.json` under `out`; return the expectation."""
    rng = random.Random(seed)
    package = f"com/bench/web{rng.randrange(16**6):06x}"
    ring = f"L{package}/CallWeb;"
    entry = f"L{package}/Entry;"
    fields = [rng.choice(FIELDS) for _ in range(N)]
    start = rng.randrange(N)
    literal = rng.choice(sorted(VENDORS))
    brand, settings_pkg, activity, category = VENDORS[literal]

    ring_text = [f".class public {ring}", ".super Ljava/lang/Object;", ""]
    for i, field in enumerate(fields):
        ring_text += ring_method(ring, i, field)
    check = f"{entry}->check(Ljava/lang/String;Landroid/content/Context;)V"
    vendor = f"{entry}->vendor(Landroid/content/Context;)V"
    entry_text = [
        f".class public {entry}",
        ".super Ljava/lang/Object;",
        "",
        ".method public static check(Ljava/lang/String;Landroid/content/Context;)V",
        "    .registers 5",
        f"    invoke-static {{p0}}, {ring}->m{start:02d}(Ljava/lang/String;)Ljava/lang/String;",
        "    move-result-object v0",
        f'    const-string v1, "{literal}"',
        "    invoke-virtual {v0, v1}, Ljava/lang/String;->equals(Ljava/lang/Object;)Z",
        "    move-result v2",
        "    if-eqz v2, :skip",
        f"    invoke-static {{p1}}, {vendor}",
        "    :skip",
        "    return-void",
        ".end method",
        "",
        ".method public static vendor(Landroid/content/Context;)V",
        "    .registers 4",
        "    new-instance v0, Landroid/content/Intent;",
        "    invoke-direct {v0}, Landroid/content/Intent;-><init>()V",
        f'    const-string v1, "{settings_pkg}"',
        f'    const-string v2, "{activity}"',
        "    invoke-virtual {v0, v1, v2}, Landroid/content/Intent;->setClassName"
        "(Ljava/lang/String;Ljava/lang/String;)Landroid/content/Intent;",
        "    invoke-virtual {p0, v0}, Landroid/content/Context;->startActivity(Landroid/content/Intent;)V",
        "    return-void",
        ".end method",
        "",
    ]
    smali = out / "smali" / package
    smali.mkdir(parents=True, exist_ok=True)
    (smali / "CallWeb.smali").write_text("\n".join(ring_text), encoding="utf-8")
    (smali / "Entry.smali").write_text("\n".join(entry_text), encoding="utf-8")

    expected = {
        "app_id": f"call_web_{seed}",
        "apk_entries": list(APK_ENTRIES),
        "expect_status": "ok",
        "taint_converged": True,
        "source_counts": {"build_field_read": N},
        "guards": [
            {
                "method": check,
                "index": 5,
                "comparison": "string_equals",
                "guard_strings": [literal],
                "identifiers": {"brand": [brand]},
                "categories": [category],
                "matched_arm": "fallthrough",
                "reachable_methods": [vendor],
            }
        ],
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
