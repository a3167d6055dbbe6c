"""Campaign specifications: a fingerprinted population of wearer designs.

A campaign is a *population* of per-wearer design problems built from the
same scenario machinery the single-run CLI uses
(:mod:`repro.experiments.scenario`): every wearer gets their own root seed
(distinct channel/fading realizations — the population stand-in until the
anthropometric body-model axis opens), a reliability bound, and either the
nominal (``solve``) or chance-constrained (``robust``) accept test with
its fault-ensemble knobs.

The spec is the campaign's *identity*: :meth:`CampaignSpec.fingerprint`
hashes every result-relevant field (and nothing execution-related), and
that fingerprint pins the campaign directory's manifests, the shard
assignment (:mod:`repro.campaign.shard`), and the resume check — a
campaign directory can only ever be continued by the spec that created it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.journal import canonical_json

#: Bumped when the spec schema changes incompatibly.
SPEC_VERSION = 1

#: Wearer accept-test modes.
MODES = ("solve", "robust")


@dataclass(frozen=True)
class WearerSpec:
    """One wearer's design problem within a campaign.

    ``seed`` feeds :func:`repro.experiments.scenario.make_problem` exactly
    like the single-run CLI's ``--seed``; the robustness knobs mirror the
    ``robust`` subcommand and are ignored in ``solve`` mode.
    """

    wearer_id: str
    seed: int
    pdr_min: float
    cohort: str = "default"
    mode: str = "solve"
    # -- robust-mode knobs (mirror `hi-explore robust`) ------------------------
    quantile: float = 0.0
    ensemble_size: int = 2
    hub_stress: bool = True
    outage_fraction: float = 0.2
    fault_seed: Optional[int] = None
    correlated_links: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"wearer {self.wearer_id!r}: mode must be one of {MODES}, "
                f"got {self.mode!r}"
            )
        if not 0.0 < self.pdr_min <= 1.0:
            raise ValueError(
                f"wearer {self.wearer_id!r}: pdr_min must be a fraction in "
                f"(0, 1], got {self.pdr_min}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "WearerSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown wearer fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class CampaignSpec:
    """A named population of wearers under one measurement preset.

    Everything here is result-relevant and enters the fingerprint;
    execution knobs (worker count, shard count, cache directory, batch
    mode) live on the runner call instead, so the same campaign can be
    re-executed under any parallelism and still resume/aggregate
    byte-identically.
    """

    name: str
    preset: str
    wearers: Tuple[WearerSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wearers", tuple(self.wearers))
        if not self.wearers:
            raise ValueError("a campaign needs at least one wearer")
        ids = [w.wearer_id for w in self.wearers]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate wearer ids: {dupes}")

    def to_dict(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "preset": self.preset,
            "wearers": [w.to_dict() for w in self.wearers],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        if not isinstance(payload, dict):
            raise ValueError("campaign spec must be a JSON object")
        version = payload.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"campaign spec version {version} is not {SPEC_VERSION}"
            )
        wearers = payload.get("wearers")
        if not isinstance(wearers, list) or not wearers:
            raise ValueError("campaign spec needs a non-empty wearers list")
        return cls(
            name=str(payload.get("name", "fleet")),
            preset=str(payload.get("preset", "ci")),
            wearers=tuple(WearerSpec.from_dict(w) for w in wearers),
        )

    @classmethod
    def load(cls, path) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    def fingerprint(self) -> str:
        """Stable hex digest of every result-relevant campaign field."""
        blob = canonical_json(self.to_dict())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def wearer(self, wearer_id: str) -> WearerSpec:
        for w in self.wearers:
            if w.wearer_id == wearer_id:
                return w
        raise KeyError(f"no wearer {wearer_id!r} in campaign {self.name!r}")

    @property
    def cohorts(self) -> List[str]:
        """Distinct cohort labels, in first-appearance order."""
        seen: Dict[str, None] = {}
        for w in self.wearers:
            seen.setdefault(w.cohort, None)
        return list(seen)


def _cohort_label(pdr_min: float) -> str:
    return f"pdr{100 * pdr_min:g}"


def make_population(
    size: int,
    preset: str = "ci",
    base_seed: int = 0,
    pdr_bounds: Sequence[float] = (0.90,),
    mode: str = "solve",
    name: str = "fleet",
    quantile: float = 0.0,
    ensemble_size: int = 2,
    hub_stress: bool = True,
    outage_fraction: float = 0.2,
    correlated_links: bool = False,
) -> CampaignSpec:
    """Build a synthetic wearer population.

    Wearer ``i`` gets seed ``base_seed + i`` (disjoint channel
    realizations) and cycles through ``pdr_bounds``; each bound forms one
    cohort (``pdr90``, ``pdr95``, …) so the aggregator can report a
    Pareto atlas per reliability class.  Bounds given in percent
    (``90``) are normalized to fractions like the CLI's ``--pdr-min``.
    """
    if size < 1:
        raise ValueError("population size must be >= 1")
    bounds = [p / 100.0 if p > 1 else float(p) for p in pdr_bounds]
    if not bounds:
        raise ValueError("need at least one PDR bound")
    wearers = []
    for i in range(size):
        pdr_min = bounds[i % len(bounds)]
        wearers.append(
            WearerSpec(
                wearer_id=f"w{i:03d}",
                seed=base_seed + i,
                pdr_min=pdr_min,
                cohort=_cohort_label(pdr_min),
                mode=mode,
                quantile=quantile,
                ensemble_size=ensemble_size,
                hub_stress=hub_stress,
                outage_fraction=outage_fraction,
                correlated_links=correlated_links,
            )
        )
    return CampaignSpec(name=name, preset=preset, wearers=tuple(wearers))
