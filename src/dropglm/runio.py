"""File formats shared by the CLI: CSV tables, run manifests, JSON configs.

Every output CSV starts with the comment line ``# manifest: manifest.json``
pointing at the run manifest beside it, followed by a mandatory header row;
comma separated, ``.`` decimal, UTF-8.  Readers preserve comment lines so a
parse -> serialize round trip is byte-identical.  Manifests record command,
resolved config, digest, seed and the list (with digests) of outputs, which
is enough to rerun a command and reproduce its outputs byte for byte
(timestamps live only in the manifest, never in outputs).
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import functools
import hashlib
import io
import json
import typing
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataError
from .simlab import ScenarioConfig

MANIFEST_NAME = "manifest.json"
_MANIFEST_COMMENT = f"# manifest: {MANIFEST_NAME}"


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int,)) or (hasattr(value, "dtype") and getattr(value, "dtype", None) is not None and value.dtype.kind in "iu"):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows, comments=None) -> None:
    buf = io.StringIO()
    for line in comments if comments is not None else [_MANIFEST_COMMENT]:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


def read_csv(path):
    """(comment lines, header, rows-of-strings); comments keep their text."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    comments = []
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        comments.append(lines[i])
        i += 1
    body = lines[i:]
    if not body:
        raise DataError(f"{path}: missing header row")
    try:
        parsed = list(csv.reader(body))
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    return comments, parsed[0], parsed[1:]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def config_digest(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_manifest(out_dir, command: str, config: dict, seed, output_names) -> Path:
    out_dir = Path(out_dir)
    outputs = [
        {"path": name, "sha256": sha256_file(out_dir / name)}
        for name in output_names
    ]
    manifest = {
        "command": command,
        "config": config,
        "config_digest": config_digest(config),
        "seed": seed,
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0).isoformat(),
        "outputs": outputs,
    }
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_json_config(path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # past the parser's digit or depth limit
        raise ConfigError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


# The JSON types each field annotation takes: no bool or 1.5 for an int, no
# "false" for a bool, no number for a string.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,),
               list: (list,)}

# Field name -> resolved annotation of a config dataclass, once per class.
field_types = functools.cache(typing.get_type_hints)


def config_from_dict(cls, data, context: str):
    """Build the config dataclass ``cls`` from a JSON object.  Each value must
    have its field's JSON type (a dataclass field is built from its nested
    object), unknown keys are rejected, and every rejection is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: expected an object, got {type(data).__name__}")
    types = field_types(cls)
    kwargs = {}
    for key, value in data.items():
        kind = types.get(key)
        if dataclasses.is_dataclass(kind):
            value = config_from_dict(kind, value, f"{context}: {key}")
        elif kind in _JSON_TYPES and type(value) not in _JSON_TYPES[kind]:
            raise ConfigError(f"{context}: {key!r} must be a JSON {kind.__name__}, got {value!r}")
        kwargs[key] = value
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}; allowed: {sorted(types)}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def scenario_config_from_dict(data: dict) -> ScenarioConfig:
    return config_from_dict(ScenarioConfig, data, "scenario config")
