"""Output checks for benchmark ops, one per op kind.

Kept apart from the input generator so that the set-up child, whose
whole lifetime is measured, imports nothing but ``json`` for them.
"""

from __future__ import annotations

import json


def check_output(check: dict, rc, stdout: str) -> str | None:
    """None when the op's exit code and stdout are right, else the reason."""
    try:
        data = json.loads(stdout)
    except ValueError:
        data = None
    if not isinstance(data, dict):
        return f"exit {rc}, stdout is not a JSON object"
    kind = check["kind"]
    if kind == "suite":
        if rc != 0 or data.get("failed") != 0:
            return f"exit {rc}, {data.get('failed')} failed checks"
        if data.get("checks") != check["checks"]:
            return f"{data.get('checks')} checks, expected {check['checks']}"
        return None
    smooth = data.get("smooth")
    if data.get("n") != check["n"] or data.get("component_dim") != check["component_dim"]:
        return (f"n {data.get('n')}, component dim {data.get('component_dim')}; "
                f"expected {check['n']}, {check['component_dim']}")
    if smooth != (data.get("tangent_dim") == data.get("component_dim")):
        return f"smooth {smooth} but tangent dim {data.get('tangent_dim')}"
    if rc != (0 if smooth else 1):
        return f"exit {rc} for smooth={smooth}"
    ver = data.get("verification") or {}
    if not (ver.get("matches_formula") and ver.get("matches_smooth_criterion")):
        return f"numeric verification disagrees: {ver}"
    return None
