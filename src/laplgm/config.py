"""Run configuration files.

A small indentation-based key/value grammar with nesting:

    # comment
    seed: 7
    mesh:
      kind: structured
      nx: 12
    components:
      - name: intercept
        kind: fixed_effect
        covariate: const

Mappings are `key: value` lines; a bare `key:` opens a nested block
(mapping or list) at deeper indentation; list items start with `- `.
Scalars are parsed as int, float, true/false, null/NA, or strings
(quotes optional).  Tabs are rejected.  Unknown keys are rejected when
the configuration is interpreted, not at parse time.
"""
from __future__ import annotations

import sys

from .errors import ParseError


def _parse_scalar(text):
    s = text.strip()
    if s.startswith('"') and s.endswith('"') and len(s) >= 2:
        return s[1:-1]
    if s.startswith("'") and s.endswith("'") and len(s) >= 2:
        return s[1:-1]
    low = s.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    if low in ("null", "none", "na", "nan", ""):
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


class _Line:
    __slots__ = ("no", "indent", "text")

    def __init__(self, no, indent, text):
        self.no = no
        self.indent = indent
        self.text = text


def _logical_lines(text):
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw:
            raise ParseError(f"line {no}: tabs are not allowed, use spaces")
        stripped = raw.split(" #", 1)[0] if " #" in raw else raw
        if stripped.strip() == "" or stripped.lstrip().startswith("#"):
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append(_Line(no, indent, stripped.strip()))
    return lines


def _parse_block(lines, pos, indent):
    """Parse one block (mapping or list) at a fixed indentation level."""
    if pos >= len(lines):
        raise ParseError("empty block")
    is_list = lines[pos].text.startswith("- ") or lines[pos].text == "-"
    return (_parse_list if is_list else _parse_mapping)(lines, pos, indent)


def _parse_mapping(lines, pos, indent):
    out = {}
    while pos < len(lines) and lines[pos].indent == indent:
        ln = lines[pos]
        if ln.text.startswith("- "):
            raise ParseError(f"line {ln.no}: list item inside a mapping")
        if ":" not in ln.text:
            raise ParseError(f"line {ln.no}: expected 'key: value'")
        key, _, rest = ln.text.partition(":")
        key = key.strip()
        if not key:
            raise ParseError(f"line {ln.no}: empty key")
        if key in out:
            raise ParseError(f"line {ln.no}: duplicate key {key!r}")
        rest = rest.strip()
        pos += 1
        if rest:
            out[key] = _parse_scalar(rest)
        else:
            if pos >= len(lines) or lines[pos].indent <= indent:
                out[key] = None
            else:
                out[key], pos = _parse_block(lines, pos, lines[pos].indent)
        if pos < len(lines) and lines[pos].indent > indent:
            raise ParseError(f"line {lines[pos].no}: unexpected indentation")
    return out, pos


def _parse_list(lines, pos, indent):
    out = []
    while pos < len(lines) and lines[pos].indent == indent:
        ln = lines[pos]
        if not (ln.text.startswith("- ") or ln.text == "-"):
            raise ParseError(f"line {ln.no}: expected a '- ' list item")
        body = ln.text[2:].strip() if ln.text != "-" else ""
        if body and ":" not in body:
            out.append(_parse_scalar(body))
            pos += 1
            continue
        # mapping item: first pair is inline, the rest indented deeper
        item = {}
        if body:
            key, _, rest = body.partition(":")
            item[key.strip()] = _parse_scalar(rest) if rest.strip() else None
        pos += 1
        if pos < len(lines) and lines[pos].indent > indent:
            sub, pos = _parse_mapping(lines, pos, lines[pos].indent)
            dup = set(sub) & set(item)
            if dup:
                raise ParseError(f"line {ln.no}: duplicate keys {sorted(dup)} in list item")
            item.update(sub)
        out.append(item if item else _parse_scalar(body))
    return out, pos


def parse_config_text(text):
    lines = _logical_lines(text)
    if not lines:
        return {}
    if lines[0].indent != 0:
        raise ParseError(f"line {lines[0].no}: top level must not be indented")
    out, pos = _parse_mapping(lines, 0, 0)
    if pos != len(lines):
        raise ParseError(f"line {lines[pos].no}: inconsistent indentation")
    return out


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        return parse_config_text(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def check_keys(section, allowed, context):
    """Reject unknown keys with their context."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise ParseError(
            f"{context}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


REQUIRED = object()

_EXPECTED = {"float": "a finite number", "positive": "a finite number above 0",
             "bool": "true or false", "str": "a string", "dict": "a mapping", "list": "a list"}


def setting(section, key, context, kind, default=REQUIRED, lo=1, hi=None, choices=None):
    """`key` of a config section (a mapping, or a list by position), checked.

    Kinds: "float" (finite; an int counts, a bool does not), "positive" (a
    float above 0), "int" (not a bool, from `lo` to `hi` inclusive), "bool",
    "str" (one of `choices` when given), "dict" and "list" (sections).  An
    absent or null key gives `default`, and is an error without one.
    """
    value = section[key] if isinstance(section, list) else section.get(key)
    if value is None:
        if default is REQUIRED:
            raise ParseError(f"{context}: missing required key {key!r}")
        return default
    if kind in ("float", "positive"):
        # the bound keeps out nan, inf and an int too large for a float
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max \
            and (kind == "float" or value > 0)
    elif kind == "int":
        ok = type(value) is int and lo <= value and (hi is None or value <= hi)
    else:  # the other kinds are named after their types
        ok = type(value).__name__ == kind and (choices is None or value in choices)
    if not ok:
        if kind == "int":
            expected = f"an integer from {lo}" + (" up" if hi is None else f" to {hi}")
        else:
            expected = _EXPECTED[kind] if choices is None else f"one of {', '.join(choices)}"
        raise ParseError(f"{context}: {key} must be {expected}, got {value!r}")
    return float(value) if kind in ("float", "positive") else value
