#!/usr/bin/env python3
"""Deterministic generator for the `budget_bomb` app.

Writes one class: a dense ring of methods shuttling device-information
values around so the taint fixpoint outlives a small wall-clock budget.
The budget tests write it once per session (see `tests/conftest.py`).

    python3 tools/gen_budget_bomb.py --out budget_bomb
"""

from __future__ import annotations

import argparse
from pathlib import Path

# methods in the ring and registers in each method's loop chain; the
# analysis cost grows with both, and these sizes take 7.3-7.8 s with no
# deadline on a 2-vCPU x86 VM, over 3x the tests' 2 s budget, so the
# budget cuts the taint fixpoint
N = 900
CHAIN = 120
OFFSETS = (1, 2, 3, 5, 8, 13, 21, 34)  # call targets per method
FIELDS = ["BRAND", "DEVICE", "DISPLAY", "FINGERPRINT", "MANUFACTURER", "MODEL", "PRODUCT"]
CLASS = "Lcom/fixtures/bomb/CallWeb;"


def method_body(i: int) -> str:
    # v1 accumulates the union of the field read, the parameter and every
    # callee return; unions need join points, hence the diamonds
    lines = [
        f".method public static m{i:02d}(Ljava/lang/String;)Ljava/lang/String;",
        f"    .registers {7 + CHAIN}",
        f"    sget-object v0, Landroid/os/Build;->{FIELDS[i % len(FIELDS)]}:Ljava/lang/String;",
        "    if-nez v0, :param",
        "    move-object v1, v0",
        "    goto :seeded",
        "    :param",
        "    move-object v1, p0",
        "    :seeded",
        "    nop",
    ]
    for k in OFFSETS:
        callee = (i + k) % N
        lines += [
            f"    invoke-static {{v1}}, {CLASS}->m{callee:02d}(Ljava/lang/String;)Ljava/lang/String;",
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
    # the body loops back to :seeded, and each trip hands v1 one register
    # further down the chain, so each method's value flow holds a path of
    # CHAIN moves that every origin reaching the method travels
    chain = [f"v{6 + j}" for j in range(CHAIN)]
    lines += [f"    move-object {dst}, {src}" for src, dst in reversed(list(zip(chain, chain[1:])))]
    lines += [
        f"    move-object {chain[0]}, v1",
        f"    if-nez {chain[-1]}, :seeded",
        "    return-object v1",
        ".end method",
        "",
    ]
    return "\n".join(lines)


def generate(out: Path) -> Path:
    """Write `smali/CallWeb.smali` under `out`; return the smali root."""
    smali_dir = out / "smali"
    smali_dir.mkdir(parents=True, exist_ok=True)
    parts = [f".class public {CLASS}", ".super Ljava/lang/Object;", ""]
    parts += [method_body(i) for i in range(N)]
    (smali_dir / "CallWeb.smali").write_text("\n".join(parts), encoding="utf-8")
    return smali_dir


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.out)


if __name__ == "__main__":
    main()
