"""The one text grammar of papuf's files, and its one reader and writer.

Device, helper, attack-model, config, metrics, key and CRP files share it::

    # papuf-<kind> v1      kind line (metrics and key files have none)
    # key=value            header comments: provenance such as the config hash
    key=value              fields, one per line
    <marker>               optional: a table in the caller's format follows

Blank lines and comments without ``=`` are skipped.  Malformed input raises
``ValueError`` naming the file and the missing or bad key, or the file and
line number of a line that is not ``key=value``.  Every reader of these
files opens them through ``open_text``, except that the CRP loader reads
an ASCII file with LF line ends as bytes, its header through ``read``.
``write`` is the one writer, and it creates the file's directory, so a
caller that fails before it writes leaves nothing behind.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Any, Iterable, Mapping


@contextlib.contextmanager
def open_text(path):
    """``path`` opened for reading as UTF-8 text, for a ``with`` block.

    Bytes that are not UTF-8, met anywhere in the block, are a
    ``ValueError`` naming the path and the line of the first bad byte, as
    text mode counts lines (LF, CR LF or CR ends one).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[: exc.start]
            line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
            raise ValueError(f"{path}, line {line}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None
        raise


def write(path, kind: str | None, fields: Mapping, header: Mapping | None = None,
          marker: str | None = None, table: Iterable[str] = ()) -> None:
    """Kind line, header comments and fields, then ``marker`` and the table.

    The directory of ``path`` is created, parents included, just before the
    file is opened.  Each item of ``table`` is written, with a line break
    after it, as it comes, so a caller may pass a generator of line blocks
    and hold one at a time.
    """
    lines = [f"# papuf-{kind} v1"] if kind else []
    lines += [f"# {key}={value}" for key, value in (header or {}).items()]
    lines += [f"{key}={value}" for key, value in fields.items()]
    if marker is not None:
        lines.append(marker)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
        if marker is not None:
            for block in table:
                handle.write(block + "\n")


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


def read(handle, schema: Mapping[str, Any], marker: str | None = None, lines=None) -> dict[str, Any]:
    """Header and fields of an open file, checked against ``schema``.

    Reading stops after ``marker``, so the caller streams the table from the
    same handle.  A caller that numbers the table's lines passes its own
    ``enumerate(handle, 1)`` as ``lines`` and goes on from where it stops;
    one that does not know a file's marker passes an iterator that ends
    where the table starts.  Keys outside the schema come back as text.
    """
    values: dict[str, str] = {}
    found = marker is None
    for number, raw in lines or enumerate(handle, 1):
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
