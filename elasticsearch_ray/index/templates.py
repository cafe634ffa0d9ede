"""Composable index templates (``cluster/metadata/
MetadataIndexTemplateService.java``, ``ComposableIndexTemplate.java``,
``ComponentTemplate.java`` and the ``_index_template`` /
``_component_template`` / ``_index_template/_simulate_index`` APIs).

A registry directory holds component templates (named fragments of
IndexSpec settings) and index templates (index patterns + priority +
``composed_of`` + an inline overlay). Resolution for an index name
follows the reference exactly:

- the matching index template with the HIGHEST priority wins
  (``findV2Template``); puts that would create two templates with the
  same priority and overlapping patterns are rejected
  (``v2TemplateOverlaps``);
- settings merge in ``composed_of`` order, each later component
  overriding earlier ones, and the index template's own overlay wins
  last (``resolveSettings``);
- ``simulate_index`` returns the merged spec without building
  (TransportSimulateIndexTemplateAction).

``spec_for_index`` returns a ready ``IndexSpec`` so
``build_index(corpus, dir, spec_for_index(reg, name))`` applies the
template the way index creation does in the reference.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import fields as dc_fields

from elasticsearch_ray.index.segments import atomic_write_json, read_json
from elasticsearch_ray.index.spec import IndexSpec


class TemplateError(ValueError):
    pass


def _save(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    atomic_write_json(path, dict(sorted(data.items())))  # templates by name


def _comp_path(registry: str) -> str:
    return os.path.join(registry, "component_templates.json")


def _index_path(registry: str) -> str:
    return os.path.join(registry, "index_templates.json")


_SPEC_KEYS = {f.name for f in dc_fields(IndexSpec)}


def _check_settings(settings: dict, what: str) -> None:
    unknown = set(settings) - _SPEC_KEYS
    if unknown:
        raise TemplateError(f"{what} has unknown settings {sorted(unknown)}"
                            f" (valid: IndexSpec fields)")


def put_component_template(registry: str, name: str,
                           settings: dict) -> None:
    _check_settings(settings, f"component template {name!r}")
    comps = read_json(_comp_path(registry), {})
    comps[name] = {"settings": settings}
    _save(_comp_path(registry), comps)


def put_index_template(registry: str, name: str, index_patterns: list,
                       priority: int = 0, composed_of: list | None = None,
                       settings: dict | None = None) -> None:
    settings = settings or {}
    composed_of = list(composed_of or [])
    _check_settings(settings, f"index template {name!r}")
    comps = read_json(_comp_path(registry), {})
    missing = [c for c in composed_of if c not in comps]
    if missing:
        raise TemplateError(f"index template {name!r} composed_of missing "
                            f"component templates {missing}")
    tmpls = read_json(_index_path(registry), {})
    for other_name, other in tmpls.items():
        if other_name == name or other["priority"] != priority:
            continue
        for p1 in index_patterns:
            for p2 in other["index_patterns"]:
                # overlap check like v2TemplateOverlaps: either pattern
                # matching the other as a literal is an overlap signal
                if fnmatch.fnmatch(p1.replace("*", "x"), p2) or \
                        fnmatch.fnmatch(p2.replace("*", "x"), p1):
                    raise TemplateError(
                        f"index template {name!r} (priority {priority}) "
                        f"pattern {p1!r} overlaps {other_name!r} pattern "
                        f"{p2!r} at the same priority")
    tmpls[name] = {"index_patterns": index_patterns, "priority": priority,
                   "composed_of": composed_of, "settings": settings}
    _save(_index_path(registry), tmpls)


def delete_index_template(registry: str, name: str) -> None:
    tmpls = read_json(_index_path(registry), {})
    if name not in tmpls:
        raise TemplateError(f"no index template {name!r}")
    del tmpls[name]
    _save(_index_path(registry), tmpls)


def get_index_templates(registry: str) -> dict:
    return read_json(_index_path(registry), {})


def find_template(registry: str, index_name: str) -> str | None:
    """Highest-priority matching template name (findV2Template); ties
    broken by name for determinism."""
    tmpls = read_json(_index_path(registry), {})
    best = None
    for name, t in sorted(tmpls.items()):
        if any(fnmatch.fnmatch(index_name, p)
               for p in t["index_patterns"]):
            if best is None or t["priority"] > tmpls[best]["priority"]:
                best = name
    return best


def simulate_index(registry: str, index_name: str) -> dict:
    """Merged settings an index with this name would get
    (_index_template/_simulate_index)."""
    name = find_template(registry, index_name)
    if name is None:
        return {"template": None, "settings": {}}
    tmpls = read_json(_index_path(registry), {})
    comps = read_json(_comp_path(registry), {})
    t = tmpls[name]
    merged: dict = {}
    for c in t["composed_of"]:
        merged.update(comps[c]["settings"])
    merged.update(t["settings"])
    return {"template": name, "settings": merged}


def spec_for_index(registry: str, index_name: str, **overrides) -> IndexSpec:
    """IndexSpec for a new index of this name: template settings with
    request-level overrides on top (the reference's create-index
    request settings win over templates)."""
    sim = simulate_index(registry, index_name)
    settings = dict(sim["settings"])
    settings.update(overrides)
    for k, v in settings.items():
        if isinstance(v, list) and k in ("doc_columns", "escaped_tags",
                                         "index_synonyms", "char_filters",
                                         "token_filters", "fields"):
            settings[k] = tuple(v)
    return IndexSpec(**settings)
