"""Manifest post-processing: human summaries and run-to-run diffs.

This is the seed of the perf-trajectory tooling: ``repro stats a.json``
renders one run; ``repro stats a.json b.json`` diffs two runs of the
same experiment so a perf PR can show exactly which counters moved and
by how much.
"""

from __future__ import annotations


def _fmt_count(n) -> str:
    return f"{n:,}" if isinstance(n, int) else f"{n:,.3f}"


def _fmt_delta(before, after) -> str:
    delta = after - before
    sign = "+" if delta >= 0 else ""
    if before:
        return f"{sign}{_fmt_count(delta)} ({sign}{delta / before * 100:.1f}%)"
    return f"{sign}{_fmt_count(delta)}"


def summarize_manifest(doc: dict) -> list[str]:
    """Render one manifest as a text summary (list of lines)."""
    config = doc.get("config", {})
    outcome = doc.get("outcome", {})
    totals = doc.get("totals", {})
    lines = [f"run: {doc.get('command', '?')}  "
             f"[{doc.get('created_at', '?')}]",
             f"status: {outcome.get('status', '?')}"]
    for key, value in sorted(outcome.items()):
        if key != "status":
            lines.append(f"  {key}: {value}")
    if config:
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(config.items())
                        if not isinstance(v, dict))
        lines.append(f"config: {cfg}")
        mitigations = config.get("mitigations")
        if mitigations:
            on = [k for k, v in sorted(mitigations.items()) if v]
            lines.append(f"mitigations on: {', '.join(on) if on else 'none'}")
    lines.append(f"totals: {_fmt_count(totals.get('cycles', 0))} cycles, "
                 f"{totals.get('simulated_seconds', 0.0) * 1000:.3f} ms "
                 f"simulated, {totals.get('wall_time_s', 0.0):.3f} s wall")
    phases = doc.get("phases", [])
    if phases:
        lines.append("phases:")
        width = max(len(p["name"]) for p in phases)
        for p in phases:
            lines.append(f"  {p['name']:<{width}s}  "
                         f"{_fmt_count(p['cycles']):>14s} cycles  "
                         f"{p['wall_time_s']:8.3f} s wall")
    pmc = doc.get("pmc", {})
    nonzero = {k: v for k, v in pmc.items() if v}
    if nonzero:
        lines.append("pmc:")
        width = max(len(k) for k in nonzero)
        for name, value in sorted(nonzero.items()):
            lines.append(f"  {name:<{width}s}  {_fmt_count(value):>14s}")
    counters = doc.get("metrics", {}).get("counters", {})
    if counters:
        lines.append("metrics:")
        width = max(len(k) for k in counters)
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<{width}s}  {_fmt_count(value):>14s}")
    return lines


def _diff_section(title: str, before: dict, after: dict,
                  lines: list[str]) -> None:
    keys = sorted(set(before) | set(after))
    changed = [(k, before.get(k, 0), after.get(k, 0)) for k in keys
               if before.get(k, 0) != after.get(k, 0)]
    if not changed:
        return
    lines.append(f"{title}:")
    width = max(len(k) for k, _, _ in changed)
    for key, b, a in changed:
        lines.append(f"  {key:<{width}s}  {_fmt_count(b):>14s} -> "
                     f"{_fmt_count(a):>14s}  {_fmt_delta(b, a)}")


def diff_manifests(before: dict, after: dict) -> list[str]:
    """Render the differences between two manifests (list of lines)."""
    lines = [f"diff: {before.get('command', '?')} "
             f"[{before.get('created_at', '?')}] -> "
             f"{after.get('command', '?')} "
             f"[{after.get('created_at', '?')}]"]
    status = (before.get("outcome", {}).get("status", "?"),
              after.get("outcome", {}).get("status", "?"))
    if status[0] != status[1]:
        lines.append(f"status: {status[0]} -> {status[1]}")
    else:
        lines.append(f"status: {status[0]} (both)")

    totals_b = before.get("totals", {})
    totals_a = after.get("totals", {})
    for key in ("cycles", "simulated_seconds", "wall_time_s"):
        b, a = totals_b.get(key, 0), totals_a.get(key, 0)
        if b != a:
            lines.append(f"totals.{key}: {_fmt_count(b)} -> "
                         f"{_fmt_count(a)}  {_fmt_delta(b, a)}")

    phases_b = {p["name"]: p["cycles"] for p in before.get("phases", [])}
    phases_a = {p["name"]: p["cycles"] for p in after.get("phases", [])}
    _diff_section("phase cycles", phases_b, phases_a, lines)
    _diff_section("pmc", before.get("pmc", {}), after.get("pmc", {}), lines)
    _diff_section("metric counters",
                  before.get("metrics", {}).get("counters", {}),
                  after.get("metrics", {}).get("counters", {}), lines)
    if len(lines) == 2:
        lines.append("no differences in phases, pmc or counters")
    return lines
