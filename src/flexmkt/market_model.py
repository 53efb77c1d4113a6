"""Instance data model, ingestion, and validation for market cases.

A case bundles one transmission network (system 0), any number of attached
distribution systems (systems 1..N, each radial or meshed, each with a
single coupling bus on the transmission side), base injections, and a flat
list of single-step flexibility bids. Base injections carry the
flexibility need directly: a positive entry is a deficit the market must
cover, so there is no separate "need" field. Interface flows are positive
toward the distribution network and bounded per DSO.

Case files are UTF-8 JSON with top-level keys ``transmission``, ``dsos``
and ``bids``; see :func:`parse_case`. MATPOWER ingestion reads only the
``mpc.bus`` / ``mpc.branch`` tables and ``mpc.baseMVA`` for topology.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass

from .errors import ParseError, TopologyError, ValidationError
from .netmodel import Line, Network, is_radial

__all__ = [
    "UNLIMITED", "DIR_UP", "DIR_DOWN",
    "Bid", "DistributionSystem", "MarketCase", "ValidationReport",
    "parse_case", "serialize_case", "parse_matpower", "validate_case",
]

UNLIMITED = 1e9
DIR_UP = "up"
DIR_DOWN = "down"


def _finite(owner: str, **fields) -> None:
    """Reject a NaN or infinite field, or field entry, as parse_case does."""
    for name, value in fields.items():
        if not all(map(math.isfinite, value if isinstance(value, (tuple, list)) else [value])):
            raise ValidationError(f"{owner}: {name} must be finite")


@dataclass(frozen=True)
class Bid:
    """Single-step flexibility offer: a price and a maximum volume.

    ``system`` 0 is the transmission grid; positive values name a DSO.
    Multi-step offers are expressed as several bids at one bus.
    """

    id: str
    system: int
    bus: int
    direction: str
    price: float
    quantity_max: float

    def __post_init__(self):
        if self.direction not in (DIR_UP, DIR_DOWN):
            raise ValidationError(f"bid {self.id}: direction must be 'up' or 'down'")
        _finite(f"bid {self.id}", price=self.price, quantity_max=self.quantity_max)
        if self.price < 0.0:
            raise ValidationError(f"bid {self.id}: negative price")
        if self.quantity_max < 0.0:
            raise ValidationError(f"bid {self.id}: negative quantity")


@dataclass(frozen=True)
class DistributionSystem:
    index: int
    network: Network
    coupling_bus: int
    z_min: float
    z_max: float
    base_injections: tuple[float, ...]

    def __post_init__(self):
        if self.index <= 0:
            raise ValidationError(f"DSO index must be positive, got {self.index}")
        _finite(f"DSO {self.index}", z_min=self.z_min, z_max=self.z_max,
                base_injections=self.base_injections)
        if self.z_min > self.z_max:
            raise ValidationError(f"DSO {self.index}: z_min exceeds z_max")
        if len(self.base_injections) != self.network.n_buses:
            raise ValidationError(
                f"DSO {self.index}: base injection vector length "
                f"{len(self.base_injections)} != bus count {self.network.n_buses}"
            )


@dataclass(frozen=True)
class MarketCase:
    transmission: Network
    base_injections: tuple[float, ...]
    dsos: tuple[DistributionSystem, ...]
    bids: tuple[Bid, ...]
    name: str = "case"

    def __post_init__(self):
        _finite("transmission", base_injections=self.base_injections)
        if len(self.base_injections) != self.transmission.n_buses:
            raise ValidationError("transmission base injection vector length mismatch")
        seen_idx: set[int] = set()
        seen_coupling: set[int] = set()
        for dso in self.dsos:
            if dso.index in seen_idx:
                raise ValidationError(f"duplicate DSO index {dso.index}")
            seen_idx.add(dso.index)
            if dso.coupling_bus not in self.transmission.buses:
                raise ValidationError(
                    f"DSO {dso.index}: coupling bus {dso.coupling_bus} "
                    "is not a transmission bus"
                )
            if dso.coupling_bus in seen_coupling:
                raise ValidationError(f"duplicate coupling bus {dso.coupling_bus}")
            seen_coupling.add(dso.coupling_bus)
        seen_bids: set[str] = set()
        for bid in self.bids:
            if bid.id in seen_bids:
                raise ValidationError(f"duplicate bid id {bid.id}")
            seen_bids.add(bid.id)
            net = self.system_network(bid.system)
            if bid.bus not in net.buses:
                raise ValidationError(
                    f"bid {bid.id}: bus {bid.bus} does not exist in system {bid.system}"
                )

    def dso(self, m: int) -> DistributionSystem:
        for dso in self.dsos:
            if dso.index == m:
                return dso
        raise ValidationError(f"no DSO with index {m}")

    def system_network(self, system: int) -> Network:
        if system == 0:
            return self.transmission
        return self.dso(system).network

    def system_injections(self, system: int) -> tuple[float, ...]:
        if system == 0:
            return self.base_injections
        return self.dso(system).base_injections

    def bids_of(self, system: int, direction: str | None = None) -> list[Bid]:
        return [b for b in self.bids
                if b.system == system and (direction is None or b.direction == direction)]

    @property
    def dso_indices(self) -> list[int]:
        return [d.index for d in self.dsos]


@dataclass(frozen=True)
class ValidationReport:
    radial: dict[int, bool]
    assumption1: dict[int, bool]
    layer1_feasible: dict[int, bool]
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (all(self.radial.values()) and all(self.assumption1.values())
                and all(self.layer1_feasible.values()))


# ---------------------------------------------------------------------------
# JSON case files
# ---------------------------------------------------------------------------

def _want(obj, key, path, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{path}: missing key '{key}'")
    return _typed(obj[key], f"{path}.{key}", kind)


def _typed(val, path, kind):
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ParseError(f"{path}: expected a number")
        try:
            num = float(val)
        except OverflowError as exc:  # an integer beyond the float range
            raise ParseError(f"{path}: number out of range") from exc
        if not math.isfinite(num):  # JSON NaN / Infinity; use +/-1e9 for unlimited
            raise ParseError(f"{path}: expected a finite number")
        return num
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ParseError(f"{path}: expected an integer")
        return val
    if not isinstance(val, kind):
        raise ParseError(f"{path}: expected {kind.__name__}")
    return val


def _parse_network(obj, path) -> Network:
    buses = _want(obj, "buses", path, list)
    raw_lines = _want(obj, "lines", path, list)
    root = _want(obj, "root", path, int)
    lines = []
    for i, row in enumerate(raw_lines):
        where = f"{path}.lines[{i}]"
        if not isinstance(row, list) or len(row) != 5:
            raise ParseError(f"{where}: expected [from, to, x, f_min, f_max]")
        frm, to = (_typed(row[k], f"{where}[{k}]", int) for k in (0, 1))
        x, f_min, f_max = (_typed(row[k], f"{where}[{k}]", float) for k in (2, 3, 4))
        lines.append(Line(frm, to, x, f_min, f_max))
    try:
        return Network(buses=tuple(_typed(b, f"{path}.buses[{k}]", int)
                                   for k, b in enumerate(buses)),
                       lines=tuple(lines), root=root)
    except TopologyError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_injections(obj, path, net: Network) -> tuple[float, ...]:
    e = _want(obj, "e", path, list)
    if len(e) != net.n_buses:
        raise ParseError(f"{path}.e: expected {net.n_buses} entries")
    return tuple(_typed(v, f"{path}.e[{k}]", float) for k, v in enumerate(e))


def parse_case(text: str, name: str = "case") -> MarketCase:
    """Parse the documented JSON case schema into a validated MarketCase."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")

    tobj = _want(doc, "transmission", "$", dict)
    tnet = _parse_network(tobj, "$.transmission")
    e0 = _parse_injections(tobj, "$.transmission", tnet)
    dsos = []
    for i, d in enumerate(_want(doc, "dsos", "$", list)):
        path = f"$.dsos[{i}]"
        net = _parse_network(_want(d, "network", path, dict), path + ".network")
        dsos.append(DistributionSystem(
            index=_want(d, "index", path, int),
            network=net,
            coupling_bus=_want(d, "coupling_bus", path, int),
            z_min=_want(d, "z_min", path, float),
            z_max=_want(d, "z_max", path, float),
            base_injections=_parse_injections(d, path, net),
        ))
    bids = []
    for i, b in enumerate(_want(doc, "bids", "$", list)):
        path = f"$.bids[{i}]"
        raw_id = b.get("id") if isinstance(b, dict) else None
        if raw_id is None:
            raise ParseError(f"{path}: missing key 'id'")
        bids.append(Bid(
            id=str(raw_id),
            system=_want(b, "system", path, int),
            bus=_want(b, "bus", path, int),
            direction=_want(b, "dir", path, str),
            price=_want(b, "price", path, float),
            quantity_max=_want(b, "qmax", path, float),
        ))
    return MarketCase(transmission=tnet, base_injections=e0, dsos=tuple(dsos),
                      bids=tuple(bids), name=str(doc.get("name", name)))


def serialize_case(case: MarketCase) -> str:
    """Inverse of parse_case; numeric fields survive the round trip exactly."""

    def net_obj(net: Network) -> dict:
        return {
            "buses": list(net.buses),
            "lines": [[ln.from_bus, ln.to_bus, ln.reactance, ln.f_min, ln.f_max]
                      for ln in net.lines],
            "root": net.root,
        }

    doc = {
        "name": case.name,
        "transmission": {**net_obj(case.transmission),
                         "e": list(case.base_injections)},
        "dsos": [
            {
                "index": d.index,
                "network": net_obj(d.network),
                "coupling_bus": d.coupling_bus,
                "z_min": d.z_min,
                "z_max": d.z_max,
                "e": list(d.base_injections),
            }
            for d in case.dsos
        ],
        "bids": [
            {"id": b.id, "system": b.system, "bus": b.bus, "dir": b.direction,
             "price": b.price, "qmax": b.quantity_max}
            for b in case.bids
        ],
    }
    return json.dumps(doc, indent=1)


# ---------------------------------------------------------------------------
# MATPOWER ingestion (topology only)
# ---------------------------------------------------------------------------

_TABLE_RE = r"mpc\.%s\s*=\s*\[(.*?)\]\s*;"


def _matpower_table(text: str, name: str) -> list[list[float]]:
    match = re.search(_TABLE_RE % name, text, re.DOTALL)
    if match is None:
        raise ParseError(f"MATPOWER case: missing mpc.{name} table")
    rows = []
    for raw in re.split(r"[;\n]", match.group(1)):
        raw = raw.split("%")[0].strip()
        if not raw:
            continue
        try:
            rows.append([float(tok) for tok in raw.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"MATPOWER case: bad number in mpc.{name}: {raw!r}") from exc
    return rows


def _bus_number(value: float, where: str) -> int:
    if not math.isfinite(value) or value != int(value):
        raise ParseError(f"MATPOWER case: {where}: bus number {value} is not an integer")
    return int(value)


def parse_matpower(text: str) -> Network:
    """Network topology from MATPOWER case text (bus/branch/baseMVA only).

    Reactances come from the branch table, limits from rateA (0 means
    unlimited and maps to the +/-1e9 MW sentinel with a warning). The root
    is the declared slack bus (type 3) or bus 1. Generator and cost tables
    are ignored. Malformed text raises ParseError; a topology that is
    unusable (self-loop, unknown bus, disconnected) raises ValidationError.
    """
    if re.search(r"mpc\.baseMVA\s*=", text) is None:
        raise ParseError("MATPOWER case: missing mpc.baseMVA")
    bus_rows = _matpower_table(text, "bus")
    branch_rows = _matpower_table(text, "branch")
    if not bus_rows:
        raise ParseError("MATPOWER case: empty bus table")

    buses = tuple(_bus_number(r[0], f"bus row {i}") for i, r in enumerate(bus_rows))
    root = buses[0]
    for bus, r in zip(buses, bus_rows):
        if len(r) > 1 and r[1] == 3:
            root = bus
            break

    lines = []
    for i, r in enumerate(branch_rows):
        if len(r) < 6:
            raise ParseError(f"MATPOWER case: branch row {i} has fewer than 6 columns")
        x = float(r[3])
        if x <= 0.0:
            raise ValidationError(f"MATPOWER case: branch row {i} has reactance {x} <= 0")
        rate = float(r[5])
        if rate == 0.0:
            warnings.warn(f"branch row {i}: rateA = 0, treating the line as unlimited")
            lo, hi = -UNLIMITED, UNLIMITED
        else:
            lo, hi = -rate, rate
        lines.append(Line(_bus_number(r[0], f"branch row {i}"),
                          _bus_number(r[1], f"branch row {i}"), x, lo, hi))
    try:
        return Network(buses=buses, lines=tuple(lines), root=root)
    except TopologyError as exc:
        raise ValidationError(f"MATPOWER case: {exc}") from exc


# ---------------------------------------------------------------------------
# Case validation
# ---------------------------------------------------------------------------

def validate_case(case: MarketCase) -> ValidationReport:
    """Radiality, bid-price ordering, and Layer-1 feasibility per DSO.

    Findings are report entries, never exceptions; the case is not touched.
    """
    # deferred: clearing imports this module
    from .clearing import clear_dso_layer1, interface_price

    radial: dict[int, bool] = {}
    a1: dict[int, bool] = {}
    feas: dict[int, bool] = {}
    notes: list[str] = []
    no_price = interface_price(case, "none")
    for dso in case.dsos:
        m = dso.index
        radial[m] = is_radial(dso.network)
        ups = [b.price for b in case.bids_of(m, DIR_UP)]
        downs = [b.price for b in case.bids_of(m, DIR_DOWN)]
        a1[m] = (not ups or not downs) or max(downs) < min(ups)
        if not a1[m]:
            notes.append(f"DSO {m}: most expensive downward bid is not cheaper "
                         "than the cheapest upward bid")
        feas[m] = clear_dso_layer1(case, m, no_price).status == "optimal"
        if not feas[m]:
            notes.append(f"DSO {m}: local bids plus interface capacity cannot "
                         "cover the base imbalance")
    for ln in case.transmission.lines:
        if ln.f_max >= UNLIMITED:
            notes.append(f"transmission line {ln.from_bus}-{ln.to_bus} is unlimited")
    return ValidationReport(radial=radial, assumption1=a1, layer1_feasible=feas,
                            warnings=tuple(notes))
