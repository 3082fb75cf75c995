"""Plain-text experiment configuration: ``key = value`` lines grouped under
``[section]`` headers.  Unknown sections or keys, and a key set twice in one
section, are errors."""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError
from .pipeline import TrainConfig

__all__ = ["parse_config", "KNOWN_KEYS"]

_SECTION_RE = re.compile(r"^\[([a-z]+)\]$")
_LAYER_KEY_RE = re.compile(r"^layer(0|[1-9]\d*)$")  # one spelling per stage: no layer01

KNOWN_KEYS = {
    "data": {
        "kind", "num", "test_num", "dims", "clusters", "separation",
        "noise_std", "seed", "path", "test_path", "cov_diag",
    },
    "model": {"init_seed"},  # plus layer1, layer2, ...
    "train": {f.name for f in fields(TrainConfig)},
}


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Parse config text into {section: {key: value}}; validates keys."""
    sections: dict[str, dict[str, str]] = {}
    name = None  # the current section
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _SECTION_RE.match(line)
        if match:
            name = match.group(1)
            if name not in KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            sections.setdefault(name, {})
            continue
        if name is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS[name] and not (name == "model" and _LAYER_KEY_RE.match(key)):
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]")
        if key in sections[name]:
            raise ConfigError(f"line {lineno}: key {key!r} is set twice in [{name}]")
        sections[name][key] = value
    return sections


def load_config(path) -> tuple[str, dict[str, dict[str, str]]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    return text, parse_config(text)
