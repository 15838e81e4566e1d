"""The one text grammar of papuf's files, and its one reader and writer.

Device, helper, attack-model, config, metrics, key and CRP files share it::

    # papuf-<kind> v1      kind line (metrics and key files have none)
    # key=value            header comments: provenance such as the config hash
    key=value              fields, one per line
    <marker>               optional: a table in the caller's format follows

Blank lines and comments without ``=`` are skipped.  Malformed input raises
``ValueError`` naming the file and the missing or bad key, or the file and
line number of a line that is not ``key=value``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping


def write(path, kind: str | None, fields: Mapping, header: Mapping | None = None,
          marker: str | None = None, table: Iterable[str] = ()) -> None:
    lines = [f"# papuf-{kind} v1"] if kind else []
    lines += [f"# {key}={value}" for key, value in (header or {}).items()]
    lines += [f"{key}={value}" for key, value in fields.items()]
    if marker is not None:
        lines.append(marker)
        lines.extend(table)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def split(text: str, where: str) -> tuple[str, str]:
    """``key=value`` into its stripped halves; ``where`` names the source in errors."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"{where}: expected key=value, got {text!r}")
    return key.strip(), value.strip()


def _convert(values: Mapping[str, str], schema: Mapping[str, Any], where: str) -> dict[str, Any]:
    """Every key of ``values``, with the schema's keys converted and checked.

    The schema maps a required key to its converter and an optional key to
    a (converter, default) pair.  Header keys keep their comment mark:
    ``"# netlist"`` is the ``# netlist=...`` line.
    """
    out: dict[str, Any] = dict(values)
    missing = []
    for key, spec in schema.items():
        parse, default = spec if isinstance(spec, tuple) else (spec, ...)
        if key in values:
            try:
                out[key] = parse(values[key])
            except ValueError as exc:
                raise ValueError(f"{where}: bad {key!r}: {exc}") from None
        elif default is ...:
            missing.append(key)
        else:
            out[key] = default
    if missing:
        raise ValueError(f"{where}: missing {', '.join(map(repr, missing))}")
    return out


def parse(items: Iterable[str], schema: Mapping[str, Any], where: str) -> dict[str, Any]:
    """A value that is itself a list of ``key=value`` items, e.g. ``a=1;b=2``."""
    return _convert(dict(split(item, where) for item in items), schema, where)


def read(handle, schema: Mapping[str, Any], marker: str | None = None) -> dict[str, Any]:
    """Header and fields of an open file, checked against ``schema``.

    Reading stops after ``marker``, so the caller streams the table from the
    same handle.  Keys outside the schema come back as text.
    """
    values: dict[str, str] = {}
    found = marker is None
    for number, raw in enumerate(handle, 1):
        line = raw.strip()
        if line == marker:
            found = True
            break
        if line.startswith("#"):
            if "=" in line:
                key, value = split(line[1:], handle.name)
                values["# " + key] = value
        elif line:
            key, value = split(line, f"{handle.name}, line {number}")
            values[key] = value
    out = _convert(values, schema, handle.name)
    if not found:
        raise ValueError(f"{handle.name}: no {marker!r} line")
    return out
