# -*- coding: utf-8 -*-
"""Pipeline configuration: the (group × map) Cartesian product of map-checks.

Mirrors the reference's config.json groups (config.json:1-39; Cartesian
expansion src/main.py:172-182) plus one engine-added group, "Serbia checks
extended", that exercises the checks the shipped config never schedules
(NameMissing/NameCyrillic/WikidataValid/Sync/IsInCountry/RemoveLatinName).
The group name deliberately CONTAINS the substring 'Serbia checks' so the
reference's map-profile branch (F9, e.g. src/checks.py:218) selects the
Serbia profile for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rules

SERBIA_SLUG = "serbia_pbf"
SERBIA_MAP = "Serbia checks (PBF)"
#: neighbouring-country maps, display name -> bbox (minlat, maxlat,
#: minlon, maxlon)
NEIGHBORS = {
    "Bosnia-Herzegovina": (42.5, 45.3, 15.7, 19.6),
    "Croatia": (42.4, 46.5, 13.5, 19.4),
    "Kosovo": (41.8, 43.3, 20.0, 21.8),
    "Macedonia": (40.8, 42.4, 20.5, 23.0),
    "Montenegro": (41.8, 43.6, 18.4, 20.4),
    "Slovenia": (45.4, 46.9, 13.4, 16.6),
}

GROUP_CHECKS: dict[str, list[str]] = {
    # config.json:11-15
    "Checks outside of Serbia": [
        "checks.LatinNameExistsCheck",
        "checks.LatinNameSameAsCyrillicCheck",
        "checks.LatinNameNotInCyrillicCheck",
    ],
    # config.json:31-38
    "Serbia checks": [
        "checks.WikipediaEntryExistsCheck",
        "checks.WikipediaEntryIsInSerbianCheck",
        "checks.WikipediaEntryValidCheck",
        "checks.WikidataEntryExistsCheck",
        "checks.GenericSophoxCheck",
    ],
    # engine-added coverage suite (ordering matters: WikidataEntryValidCheck
    # precedes the sync check — the reference's implicit C10→C11 dependency)
    "Serbia checks extended": [
        "checks.NameMissingCheck",
        "checks.NameCyrillicCheck",
        "checks.WikidataEntryValidCheck",
        "checks.WikipediaAndWikidataInSyncCheck",
        "checks.IsInCountryCheck",
        "checks_extended.RemoveLatinName",
    ],
}


@dataclass(frozen=True)
class MapCheck:
    map_name: str          # "<group> (<map>)", reference src/main.py:176-181
    slug: str              # docs partition the map reads
    group: str
    checks: tuple[str, ...]

    @property
    def serbia_mode(self) -> bool:
        return "Serbia checks" in self.map_name


def default_map_checks() -> list[MapCheck]:
    mcs: list[MapCheck] = []
    mcs.append(MapCheck(SERBIA_MAP, SERBIA_SLUG, "Serbia checks",
                        tuple(GROUP_CHECKS["Serbia checks"])))
    for r in rules.RULES:
        mcs.append(MapCheck(r.map_name, r.slug, "Serbia checks",
                            tuple(GROUP_CHECKS["Serbia checks"])))
    for c in NEIGHBORS:
        slug = f"outside_{c.lower().replace('-', '_')}"
        mcs.append(MapCheck(f"Checks outside of Serbia ({c})", slug,
                            "Checks outside of Serbia",
                            tuple(GROUP_CHECKS["Checks outside of Serbia"])))
    mcs.append(MapCheck("Serbia checks extended (PBF)", SERBIA_SLUG,
                        "Serbia checks extended",
                        tuple(GROUP_CHECKS["Serbia checks extended"])))
    return mcs


def from_json(cfg) -> list[MapCheck]:
    """The reference's config.json contract (config.json:1-39): named groups
    × ``{maps: {name -> location}, checks: [FQN strings]}``, Cartesian-
    expanded to map-checks named ``"<group> (<map>)"`` (src/main.py:172-182).
    Here a map's location is its docs partition slug.  FQNs are resolved
    against the check REGISTRY — never ``eval``'d like the reference
    (src/main.py:165-170); an unknown FQN fails fast at load."""
    import json

    from . import checks as checks_mod
    if isinstance(cfg, str):
        with open(cfg) as f:
            cfg = json.load(f)
    mcs: list[MapCheck] = []
    for group, spec in cfg.items():
        fqns = tuple(spec["checks"])
        unknown = [f for f in fqns if f not in checks_mod.CHECKS]
        if unknown:
            raise KeyError(f"unknown check FQNs in group {group!r}: {unknown}")
        for map_name, slug in spec["maps"].items():
            mcs.append(MapCheck(f"{group} ({map_name})", slug, group, fqns))
    return mcs
