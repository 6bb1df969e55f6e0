"""File formats shared by the CLI: CSV tables, run manifests, JSON configs.

Every output CSV starts with the comment line ``# manifest: manifest.json``
pointing at the run manifest beside it, followed by a mandatory header row;
comma separated, ``.`` decimal, UTF-8.  ``read_rows`` is the one reader of
CSV inputs.  Manifests record command, resolved config, digest, seed and the
list (with digests) of outputs, which is enough to rerun a command and
reproduce its outputs byte for byte on the same builds of Python, numpy and
scipy, whose versions it records too (timestamps and versions live only in
the manifest, never in outputs).
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import functools
import hashlib
import io
import json
import platform
import typing
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, DataError
from .simlab import ScenarioConfig

MANIFEST_NAME = "manifest.json"
_MANIFEST_COMMENT = f"# manifest: {MANIFEST_NAME}"


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):  # True -> "1"
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    buf.write(_MANIFEST_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


def read_rows(path):
    """Yield the rows of a CSV input as lists of strings, header first.

    UTF-8 text, past a leading byte-order mark; lines starting with ``#`` and
    blank lines are left out.  A file that cannot be opened, decoded or parsed,
    or that has no header row, raises DataError naming the path."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = filter(None, csv.reader(ln for ln in handle if not ln.startswith("#")))
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path}: missing header row")
            yield header
            yield from rows
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc


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
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__},
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0).isoformat(),
        "outputs": outputs,
    }
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a repeated key is refused, not
    silently taken from its last occurrence."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate key {key!r}")
        data[key] = value
    return data


def load_json_config(path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=_unique_keys)
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
