"""Feature extraction: turning observations into predictor tuples.

GPS models four interactions between feature categories (Section 5.2):

* Expression 4 -- ``P(Port_a | Port_b)``: the bare transport-layer predictor;
* Expression 5 -- ``P(Port_a | (Port_b, App_b))``: the port plus one
  application-layer feature value of the service on that port;
* Expression 6 -- ``P(Port_a | (Port_b, Net))``: the port plus a network-layer
  feature of the host (its ASN or /N subnetwork);
* Expression 7 -- ``P(Port_a | (Port_b, App_b, Net))``: all three.

A *predictor tuple* is the hashable encoding of one conditioning event:

* ``("P",  port_b)``
* ``("PA", port_b, app_key, app_value)``
* ``("PN", port_b, net_kind, net_value)``
* ``("PAN", port_b, app_key, app_value, net_kind, net_value)``

Tuples embed the port, so a tuple observed on a host identifies exactly one of
the host's services; the co-occurrence model counts, for each tuple, how often
each *other* port is open on the same host.

Over observation columns the tuples derive in one place,
:func:`derive_predictor_codes`: each family runs once over all rows and
hands out ``(row, code)`` entries in the reference order, with a
:class:`PredictorCodebook` turning each family's parts into codes.  The
seed's :func:`extract_host_features_columns` numbers every distinct
predictor with it (building each tuple once), and a prediction index joins
the priors scan's columns against the predictors it holds
(:meth:`repro.core.predictions.PredictiveFeatureIndex.predict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.config import FeatureConfig
from repro.engine.columns import IntColumn, as_numpy
from repro.engine.encoding import DictionaryEncoder
from repro.engine.fused import expand_ranges, segment_starts
from repro.net.asn import AsnDatabase
from repro.net.ipv4 import prefix_mask, subnet_key
from repro.scanner.records import (
    ObservationBatch,
    ScanObservation,
    observations_by_host,
)

#: Type alias for predictor tuples (kept as plain tuples for hashability and
#: cheap serialization; the first element is the family tag).
PredictorTuple = Tuple


def network_feature_values(ip: int, asn_db: Optional[AsnDatabase],
                           kinds: Sequence[str]) -> List[Tuple[str, int]]:
    """Network-layer feature values of an address.

    Returns ``(kind, value)`` pairs, e.g. ``("asn", 64512)`` or
    ``("subnet16", <subnet key>)``.  An unknown ASN (value 0) is skipped: it
    would otherwise act as a gigantic catch-all "network" shared by every
    unannounced host.
    """
    values: List[Tuple[str, int]] = []
    for kind in kinds:
        if kind == "asn":
            if asn_db is None:
                continue
            asn = asn_db.asn_of(ip)
            if asn:
                values.append(("asn", asn))
        elif kind.startswith("subnet"):
            prefix_len = int(kind[len("subnet"):])
            values.append((kind, subnet_key(ip, prefix_len)))
        else:
            raise ValueError(f"unknown network feature kind: {kind}")
    return values


def _app_items(features, config: FeatureConfig) -> List[Tuple[str, str]]:
    """The (key, value) application-feature pairs present on one service."""
    items: List[Tuple[str, str]] = []
    if config.include_app or config.include_app_network:
        get = features.get
        for key in config.app_feature_keys:
            value = get(key)
            if value:
                items.append((key, value))
    return items


def predictor_tuples(port: int, app_items: Sequence[Tuple[str, str]],
                      net_values: Sequence[Tuple[str, int]],
                      config: FeatureConfig) -> List[PredictorTuple]:
    """Assemble predictor tuples from pre-extracted parts.

    Shared by the object extraction and the row route of
    :meth:`~repro.core.predictions.PredictiveFeatureIndex.predict` so the
    tuples (and their order) cannot drift between them: P, then PA, then
    PN, then PAN.
    """
    tuples: List[PredictorTuple] = []
    if config.include_transport_only:
        tuples.append(("P", port))
    if config.include_app:
        for key, value in app_items:
            tuples.append(("PA", port, key, value))
    if config.include_network:
        for kind, value in net_values:
            tuples.append(("PN", port, kind, value))
    if config.include_app_network:
        for key, app_value in app_items:
            for kind, net_value in net_values:
                tuples.append(("PAN", port, key, app_value, kind, net_value))
    return tuples


def predictor_tuples_for_observation(
    observation: ScanObservation,
    net_values: Sequence[Tuple[str, int]],
    config: FeatureConfig,
) -> List[PredictorTuple]:
    """All predictor tuples derivable from one observed service."""
    return predictor_tuples(observation.port,
                             _app_items(observation.app_features, config),
                             net_values, config)


@dataclass
class HostFeatures:
    """Everything GPS knows about one host from a set of observations.

    Attributes:
        ip: host address.
        ports: mapping of open port to the predictor tuples derived from the
            service observed on that port.
        net_values: the host's network-layer feature values.
    """

    ip: int
    ports: Dict[int, List[PredictorTuple]] = field(default_factory=dict)
    net_values: List[Tuple[str, int]] = field(default_factory=list)

    def open_ports(self) -> List[int]:
        """The host's observed open ports, ascending."""
        return sorted(self.ports)


def extract_host_features(
    observations: Iterable[ScanObservation],
    asn_db: Optional[AsnDatabase],
    config: FeatureConfig,
) -> Dict[int, HostFeatures]:
    """Group observations by host and compute predictor tuples for each service.

    This is the feature-extraction step that, in the paper's implementation,
    happens inside BigQuery by selecting banner fields, deriving the subnet
    from the address and joining against an ASN table.
    """
    hosts: Dict[int, HostFeatures] = {}
    for ip, host_observations in observations_by_host(observations).items():
        net_values = network_feature_values(ip, asn_db, config.network_feature_kinds)
        host = HostFeatures(ip=ip, net_values=net_values)
        for observation in host_observations:
            host.ports[observation.port] = predictor_tuples_for_observation(
                observation, net_values, config
            )
        hosts[ip] = host
    return hosts


# -- columnar extraction (the fused engine's ingest path) --------------------------------


@dataclass
class HostFeatureColumns:
    """The host/service/predictor relation as flat, pre-encoded columns.

    The columnar twin of the ``Dict[int, HostFeatures]`` mapping: hosts are
    groups in first-seen order, each owning a contiguous run of services
    (ports ascending), each service owning a contiguous run of
    dictionary-encoded predictor-tuple ids.  This is exactly the group
    structure every fused engine consumer flattens host features into --
    producing it directly from :class:`~repro.scanner.records.ObservationBatch`
    columns removes the object pre-pass from the model, priors and
    prediction-index builds (and from the
    :class:`~repro.core.runtime_plans.ResidentHostGroups` resident load).

    Attributes:
        ips: one address per host, in first-seen observation order (the
            order the object extraction iterates hosts in).
        member_starts: host ``g`` owns services
            ``member_starts[g]:member_starts[g + 1]``; length is
            ``len(ips) + 1``.
        ports: per-service port, ascending within each host.
        value_starts: service ``m`` owns predictor ids
            ``value_starts[m]:value_starts[m + 1]``; length is
            ``len(ports) + 1``.
        value_ids: dictionary-encoded predictor-tuple ids.
        encoder: the encoder that decodes ``value_ids`` back to tuples (and
            whose ``values()`` view side tables are built from).

    All five columns are :class:`~repro.engine.columns.IntColumn` buffers:
    the fused kernels and the resident load read them through the buffer
    protocol (memoryview / numpy view) instead of boxing one Python int per
    element, and ``==`` against the object-path oracle lists still compares
    element-wise.
    """

    ips: IntColumn
    member_starts: IntColumn
    ports: IntColumn
    value_starts: IntColumn
    value_ids: IntColumn
    encoder: DictionaryEncoder

    def __len__(self) -> int:
        return len(self.ips)

    def service_count(self) -> int:
        """Number of (host, port) services in the relation."""
        return len(self.ports)

    def predictors_for(self, group: int) -> Dict[int, List[PredictorTuple]]:
        """Decoded ``port -> predictor tuples`` of one host (oracle view).

        Materializes objects, so it belongs in tests and debugging, not on
        the hot path.
        """
        decode = self.encoder.decode
        out: Dict[int, List[PredictorTuple]] = {}
        for m in range(self.member_starts[group], self.member_starts[group + 1]):
            out[self.ports[m]] = [
                decode(self.value_ids[v])
                for v in range(self.value_starts[m], self.value_starts[m + 1])
            ]
        return out


def extract_host_features_columns(
    batch: ObservationBatch,
    asn_db: Optional[AsnDatabase],
    config: FeatureConfig,
    encoder: Optional[DictionaryEncoder] = None,
) -> HostFeatureColumns:
    """Columnar feature extraction: observation columns in, encoded columns out.

    Produces the relation :func:`extract_host_features` produces -- same
    hosts in the same order, same ports, and per service the same predictor
    tuples in the same order (decoded) -- but folds it straight from the
    batch's flat columns into :class:`HostFeatureColumns` through the
    family-wise derivation (:func:`derive_predictor_codes`), which gives
    each distinct predictor one code and builds its tuple once.  The tuples
    reach ``encoder`` in the order their codes first appear (hosts in
    order, ports ascending, tuples in derivation order), so the ids are the
    ones a service-by-service encode would hand out.

    Duplicate (host, port) rows resolve exactly as the object path resolves
    them: the last observation in batch order wins.
    """
    encoder = encoder if encoder is not None else DictionaryEncoder()
    ports = as_numpy(batch.ports)
    rows, host_of_service, host_ips, member_starts = _host_services(
        as_numpy(batch.ips), ports)
    ports = ports[rows]
    book = _SeedCodebook(config)
    service_of, codes = derive_predictor_codes(
        batch, ports, as_numpy(batch.banner_ids)[rows], host_ips,
        host_of_service, asn_db, config, book)
    # The tuples reach the encoder in the order their codes first appear.
    first_entry = np.full(len(book.tuples), codes.size, dtype=np.int64)
    np.minimum.at(first_entry, codes, np.arange(codes.size))
    order = np.argsort(first_entry)[:np.count_nonzero(first_entry < codes.size)]
    id_of_code = np.empty(len(book.tuples), dtype=np.int64)
    id_of_code[order] = encoder.encode_column(
        list(map(book.tuples.__getitem__, order.tolist())))
    value_starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(service_of, minlength=len(rows)), out=value_starts[1:])
    return HostFeatureColumns(ips=IntColumn.from_numpy(host_ips),
                              member_starts=IntColumn.from_numpy(member_starts),
                              ports=IntColumn.from_numpy(ports),
                              value_starts=IntColumn.from_numpy(value_starts),
                              value_ids=IntColumn.from_numpy(id_of_code[codes]),
                              encoder=encoder)


def _host_services(ips: np.ndarray, ports: np.ndarray):
    """The rows that become services, grouped as :class:`HostFeatureColumns`.

    Hosts come in first-seen order and ports ascend within a host; of rows
    repeating a (host, port), the last wins.  Returns the kept rows, each
    one's host number, the hosts' addresses and the member starts.
    """
    hosts, first, host_of_row = np.unique(ips, return_index=True,
                                          return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    keys = rank[host_of_row.reshape(-1)] << 16 | ports
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    last = np.ones(order.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=last[:-1])
    host_of_service = ordered[last] >> 16
    member_starts = np.searchsorted(host_of_service,
                                    np.arange(by_first.size + 1))
    return order[last], host_of_service, hosts[by_first], member_starts


# -- the family-wise derivation ----------------------------------------------------------


def network_columns(ips: np.ndarray, asn_db: Optional[AsnDatabase],
                    kinds: Sequence[str]) -> List[Tuple[str, np.ndarray, np.ndarray]]:
    """Each network feature kind's value per address, and where it is present.

    The array twin of :func:`network_feature_values`: ``(kind, values,
    present)`` per kind in order, subnet keys by arithmetic, ASNs through
    :meth:`~repro.net.asn.AsnDatabase.asn_of_many` (absent where 0) and no
    ASN column without a database.
    """
    columns: List[Tuple[str, np.ndarray, np.ndarray]] = []
    for kind in kinds:
        if kind == "asn":
            if asn_db is not None:
                asns = asn_db.asn_of_many(ips)
                columns.append((kind, asns, asns != 0))
        elif kind.startswith("subnet"):
            prefix_len = int(kind[len("subnet"):])
            columns.append((kind, (ips & prefix_mask(prefix_len)) << 6 | prefix_len,
                            np.ones(ips.size, dtype=bool)))
        else:
            raise ValueError(f"unknown network feature kind: {kind}")
    return columns


class AppValueCodes(dict):
    """Application feature values numbered in first-read order.

    A truthy value missing from the table gets the next code (``values``
    records it); a falsy one -- an empty field, or ``None`` for a key the
    banner lacks -- codes -1, absent, as :func:`_app_items` skips it.
    """

    def __init__(self) -> None:
        super().__init__({None: -1, "": -1})
        self.values: List[str] = []

    def __missing__(self, value) -> int:
        code = -1
        if value:
            code = len(self.values)
            self.values.append(value)
        self[value] = code
        return code


class PredictorCodebook:
    """How :func:`derive_predictor_codes` turns predictor parts into codes.

    The derivation computes each family's parts as integers and asks the
    codebook for codes, -1 meaning no predictor.  App values code through
    ``value_codes(values)`` and network values through ``net_codes(kind,
    values, present)``; each is packed with the port into an *item*, which
    ``app_items(keys)`` and ``network_items(keys)`` number.  The families
    then code as ``transport(ports)``, ``app(app items)``,
    ``network(network items)`` and ``app_network(app items, network
    items)``, the last only for the app items ``crossed(app items)``
    marks.  ``keys_on(port)`` names the app keys read on a port, unless
    ``every_key`` says every key is read everywhere, as the seed's are: a
    banner holds a few of the config's keys, so walking its items reads
    less than asking for each key.  Two codebooks exist:
    the seed extraction's numbers every distinct predictor it meets and
    builds its tuple once; an index's joins against the predictors it
    holds.

    Attributes:
        key_code: app key -> code for the keys the codebook files.
        key_count: the number of key codes.
        kinds: the network kinds the codebook files.
        net_item_count: the number of network item codes, once
            ``network_items`` ran.
    """

    key_code: Mapping[str, int]
    key_count: int
    kinds: Sequence[str]
    net_item_count: int = 0
    every_key: bool = False

    def app_item_keys(self, values, keys, ports):
        """Packed (value code, key code, port) app items."""
        return (values * self.key_count + keys) << 16 | ports


def derive_predictor_codes(batch: ObservationBatch, ports: np.ndarray,
                           banner_ids: np.ndarray, hosts: np.ndarray,
                           host_of_row: Optional[np.ndarray],
                           asn_db: Optional[AsnDatabase], config: FeatureConfig,
                           book: PredictorCodebook,
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Every predictor the rows derive, as ``(row, code)`` entries.

    Row ``i`` is the service on ``ports[i]`` with banner ``banner_ids[i]``
    (resolved through ``batch``) of address ``hosts[host_of_row[i]]``
    (``hosts[i]`` without ``host_of_row``).  Each family runs once over
    all rows: P by port; PA by app item, from one read of each distinct
    (banner, port) pair's keys (:func:`read_app_items`); PN by network
    item, from network columns over the addresses
    (:func:`network_columns`); PAN by (app item, network item).  App keys
    and kinds go in config order, an ASN of 0 and a falsy app value count
    as absent, and ``book`` codes each family (-1 drops an entry).  The
    entries come in (row, derivation rank) order -- P, PA, PN, PAN,
    app-key-major -- the order :func:`predictor_tuples_for_observation`
    lists a row's tuples in.
    """
    runs: List[Tuple[np.ndarray, np.ndarray]] = []
    if config.include_transport_only:
        runs.append((np.arange(ports.size), book.transport(ports)))
    app_rows = app_items = None
    positions = [key for key in config.app_feature_keys if key in book.key_code]
    if (config.include_app or config.include_app_network) and positions:
        pair_of_row, cell_starts, cell_items = read_app_items(
            batch, banner_ids, ports, positions, book)
        # Each row takes its pair's cells, in key order.
        counts = np.diff(cell_starts)[pair_of_row]
        app_rows = np.repeat(np.arange(ports.size), counts)
        app_items = cell_items[expand_ranges(cell_starts[pair_of_row], counts)]
        if config.include_app:
            runs.append((app_rows, book.app(app_items)))
    net_items = None
    if config.include_network or config.include_app_network:
        columns = network_columns(hosts, asn_db, [
            kind for kind in config.network_feature_kinds if kind in book.kinds])
        if columns:
            codes = np.stack([book.net_codes(kind, values, present)
                              for kind, values, present in columns], axis=1)
            if host_of_row is not None:
                codes = codes[host_of_row]
            net_rows, column = np.nonzero(codes >= 0)
            items = book.network_items(codes[net_rows, column] << 16
                                       | ports[net_rows])
            net_items = np.full(codes.shape, -1, dtype=np.int64)
            net_items[net_rows, column] = items
            if config.include_network:
                filed = items >= 0
                runs.append((net_rows[filed], book.network(items[filed])))
    if config.include_app_network and app_items is not None and net_items is not None:
        crossed = np.flatnonzero(book.crossed(app_items))
        per_kind = net_items[app_rows[crossed]]
        cell, column = np.nonzero(per_kind >= 0)
        cells = crossed[cell]
        runs.append((app_rows[cells], book.app_network(app_items[cells],
                                                       per_kind[cell, column])))
    if not runs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rows = np.concatenate([rows for rows, _ in runs])
    codes = np.concatenate([codes for _, codes in runs])
    derived = codes >= 0
    rows, codes = rows[derived], codes[derived]
    # Each family's run is in (row, rank) order already: a stable sort by
    # row merges the runs.
    order = np.argsort(rows, kind="stable")
    return rows[order], codes[order]


def read_app_items(batch: ObservationBatch, banner_ids: np.ndarray,
                   ports: np.ndarray, positions: Sequence[str],
                   book: PredictorCodebook):
    """The app items of the distinct (banner id, port) pairs, as a CSR.

    Each pair's banner mapping is read once for each distinct key of
    ``positions`` that its port files (``book.keys_on``), so each (banner
    id, port, key) is read at most once: the pairs are grouped by port and
    one pass per port group reads its keys (with ``book.every_key``, one
    walk over each banner's own items).  ``book`` codes the values in
    one more pass, then the (value, key, port) items.  Returns each row's
    pair and, per pair, the items ``book`` files --
    ``cell_items[cell_starts[p]:cell_starts[p + 1]]`` -- in position order.
    """
    # Pairs packed port-major (ports are 16-bit, banner ids within 2**47
    # either side of 0), so the distinct pairs come out grouped by port.
    pairs, pair_of_row = np.unique((ports - _PORT_MIDDLE) << 48
                                   | (banner_ids + _BANNER_MIDDLE),
                                   return_inverse=True)
    pair_ports = (pairs >> 48) + _PORT_MIDDLE
    interned, local = batch.banners.features, batch.local_banners
    mappings = [interned(banner) if banner >= 0 else local[-banner - 1]
                for banner in ((pairs & _BANNER_MASK) - _BANNER_MIDDLE).tolist()]
    starts = segment_starts(pair_ports)
    keys = list(dict.fromkeys(positions))
    read: List[object] = []
    if book.every_key:
        # Walk each banner's own items, which are fewer than the keys, and
        # put the cells back in key order.
        column_of = {key: column for column, key in enumerate(keys)}
        found = [(pair * len(keys) + column_of[key], value)
                 for pair, mapping in enumerate(mappings)
                 for key, value in mapping.items() if key in column_of]
        cell = np.fromiter((at for at, _ in found), dtype=np.int64,
                           count=len(found))
        order = np.argsort(cell)
        cell = cell[order]
        read = [found[at][1] for at in order.tolist()]
    else:
        cells: List[np.ndarray] = []
        for start, end, port in zip(starts.tolist(),
                                    np.append(starts[1:], pairs.size).tolist(),
                                    pair_ports[starts].tolist()):
            filed = book.keys_on(port)
            columns = [column for column, key in enumerate(keys) if key in filed]
            if not columns:
                continue
            wanted = [keys[column] for column in columns]
            read.extend([mapping.get(key) for mapping in mappings[start:end]
                         for key in wanted])
            cells.append((np.arange(start, end)[:, None] * len(keys)
                          + np.array(columns)).reshape(-1))
        cell = np.concatenate(cells) if cells else np.zeros(0, dtype=np.int64)
    codes = np.fromiter(book.value_codes(read), dtype=np.int64, count=len(read))
    present = codes >= 0
    cell_pairs, cell_columns = np.divmod(cell[present], len(keys))
    key_codes = np.array([book.key_code[key] for key in keys], dtype=np.int64)
    items = book.app_items(book.app_item_keys(
        codes[present], key_codes[cell_columns], pair_ports[cell_pairs]))
    filed = items >= 0
    cell_pairs, cell_columns, items = (cell_pairs[filed], cell_columns[filed],
                                       items[filed])
    if len(keys) < len(positions):
        # A key the config names twice derives its tuples twice: one cell
        # per position, each pair's cells in position order.
        taken = [np.flatnonzero(cell_columns == keys.index(key))
                 for key in positions]
        position = np.repeat(np.arange(len(positions)), [t.size for t in taken])
        taken = np.concatenate(taken)
        order = np.lexsort((position, cell_pairs[taken]))
        cell_pairs, items = cell_pairs[taken][order], items[taken][order]
    cell_starts = np.searchsorted(cell_pairs, np.arange(pairs.size + 1))
    return pair_of_row.reshape(-1), cell_starts, items


_PORT_MIDDLE = 1 << 15
_BANNER_MIDDLE = 1 << 47
_BANNER_MASK = (1 << 48) - 1


class _SeedCodebook(PredictorCodebook):
    """The seed extraction's codebook: every distinct predictor gets a code.

    Each family's codes number its distinct keys (``np.unique``), offset
    into one code space, and ``tuples[code]`` is the code's predictor
    tuple, built once from the key's parts.
    """

    def __init__(self, config: FeatureConfig) -> None:
        self.key_code = {}
        for key in config.app_feature_keys:
            self.key_code.setdefault(key, len(self.key_code))
        self.key_count = len(self.key_code)
        self.every_key = True
        self._keys = list(self.key_code)
        self.kinds = config.network_feature_kinds
        self.values = AppValueCodes()
        self.tuples: List[PredictorTuple] = []
        self._net_kinds: List[str] = []
        self._net_values: List[int] = []
        self._app_items = self._net_items = np.zeros(0, dtype=np.int64)

    def _codes(self, keys: np.ndarray, tuples) -> np.ndarray:
        """Dense codes of ``keys``; ``tuples(distinct keys)`` builds theirs."""
        distinct, inverse = np.unique(keys, return_inverse=True)
        offset = len(self.tuples)
        self.tuples.extend(tuples(distinct))
        return inverse.reshape(-1) + offset

    def _app_parts(self, items=slice(None)):
        """(ports, keys, values) of app items: all of them by default."""
        keys = self._app_items[items]
        codes = keys >> 16
        return ((keys & 0xFFFF).tolist(),
                map(self._keys.__getitem__, (codes % self.key_count).tolist()),
                map(self.values.values.__getitem__,
                    (codes // self.key_count).tolist()))

    def _net_parts(self, items=slice(None)):
        """(kinds, values) of network items: all of them by default."""
        codes = (self._net_items[items] >> 16).tolist()
        return (map(self._net_kinds.__getitem__, codes),
                map(self._net_values.__getitem__, codes))

    def value_codes(self, values: Iterable) -> Iterable[int]:
        return map(self.values.__getitem__, values)

    def net_codes(self, kind: str, values: np.ndarray,
                  present: np.ndarray) -> np.ndarray:
        distinct, inverse = np.unique(values, return_inverse=True)
        offset = len(self._net_values)
        self._net_kinds.extend(repeat(kind, distinct.size))
        self._net_values.extend(distinct.tolist())
        return np.where(present, inverse.reshape(-1) + offset, -1)

    def transport(self, ports: np.ndarray) -> np.ndarray:
        return self._codes(ports, lambda distinct: zip(repeat("P"),
                                                       distinct.tolist()))

    def app_items(self, keys: np.ndarray) -> np.ndarray:
        self._app_items, inverse = np.unique(keys, return_inverse=True)
        return inverse.reshape(-1)

    def app(self, items: np.ndarray) -> np.ndarray:
        # An app item is a PA predictor: the items number them already.
        offset = len(self.tuples)
        self.tuples.extend(zip(repeat("PA"), *self._app_parts()))
        return items + offset

    def crossed(self, items: np.ndarray) -> np.ndarray:
        return np.ones(items.size, dtype=bool)

    def network_items(self, keys: np.ndarray) -> np.ndarray:
        self._net_items, inverse = np.unique(keys, return_inverse=True)
        self.net_item_count = self._net_items.size
        return inverse.reshape(-1)

    def network(self, items: np.ndarray) -> np.ndarray:
        # A network item is a PN predictor: the items number them already.
        offset = len(self.tuples)
        self.tuples.extend(zip(repeat("PN"), (self._net_items & 0xFFFF).tolist(),
                               *self._net_parts()))
        return items + offset

    def app_network(self, app_items: np.ndarray,
                    net_items: np.ndarray) -> np.ndarray:
        width = self.net_item_count

        def tuples(distinct):
            ports, keys, values = self._app_parts(distinct // width)
            kinds, nets = self._net_parts(distinct % width)
            return zip(repeat("PAN"), ports, keys, values, kinds, nets)

        return self._codes(app_items * width + net_items, tuples)


def describe_predictor(predictor: PredictorTuple) -> str:
    """Human-readable rendering of a predictor tuple (used in reports).

    >>> describe_predictor(("PA", 22, "ssh_banner", "SSH-2.0-x"))
    "(Port 22, ssh_banner='SSH-2.0-x')"
    """
    tag = predictor[0]
    if tag == "P":
        return f"(Port {predictor[1]})"
    if tag == "PA":
        return f"(Port {predictor[1]}, {predictor[2]}={predictor[3]!r})"
    if tag == "PN":
        return f"(Port {predictor[1]}, {predictor[2]}={predictor[3]})"
    if tag == "PAN":
        return (f"(Port {predictor[1]}, {predictor[2]}={predictor[3]!r}, "
                f"{predictor[4]}={predictor[5]})")
    return repr(predictor)


def predictor_family(predictor: PredictorTuple) -> str:
    """The family tag of a predictor tuple ("P", "PA", "PN" or "PAN")."""
    return predictor[0]
