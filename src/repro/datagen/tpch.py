"""Deterministic dbgen-free TPC-H synthesis at paper-bench scale (Sec. 7.1).

Benchmarks need a workload whose hot paths dominate — hundreds of
thousands of tuples across many relations — and the TPC-H schema is the
standard shape for that.  This module synthesises all eight tables at a
chosen scale factor without the C ``dbgen`` tool: every table is generated
column-wise from its own :class:`random.Random` stream seeded as
``tpch:{seed}:{table}``, so

* the same ``(sf, seed)`` always produces the byte-identical instance
  (fingerprint-stable across runs and processes),
* generating a subset of tables yields exactly the rows the full run
  would (no cross-table RNG coupling), and
* foreign keys are consistent by construction — child keys are drawn from
  the parent's key range, which depends only on the scale factor.

Cardinalities follow the TPC-H specification (region 5, nation 25,
supplier 10 000·SF, part 200 000·SF, partsupp 4/part, customer
150 000·SF, orders 1 500 000·SF, lineitem 1–7 per order).  Values are
plausible rather than spec-exact: the similarity measures only care about
value equality, null placement, and key structure.

Incompleteness and dirtiness are injected on top, seeded separately:
``null_rate`` replaces non-key cells with fresh labeled nulls (via the
``nulls=`` masks of :meth:`Instance.from_columns`), and ``violation_rate``
plants primary-key duplicates and dangling foreign keys — the
constraint-violating instances the paper's similarity measures are
designed to compare.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Mapping

from ..core.errors import FormatError, SchemaError
from ..core.instance import Instance
from ..core.schema import RelationSchema, Schema
from ..core.values import Value, is_null

TPCH_TABLES = (
    "region",
    "nation",
    "supplier",
    "part",
    "partsupp",
    "customer",
    "orders",
    "lineitem",
)
"""All eight TPC-H tables, in dependency (and generation) order."""

TPCH_SCHEMAS: dict[str, RelationSchema] = {
    "region": RelationSchema(
        "region", ("r_regionkey", "r_name", "r_comment")
    ),
    "nation": RelationSchema(
        "nation", ("n_nationkey", "n_name", "n_regionkey", "n_comment")
    ),
    "supplier": RelationSchema(
        "supplier",
        (
            "s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone",
            "s_acctbal", "s_comment",
        ),
    ),
    "part": RelationSchema(
        "part",
        (
            "p_partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size",
            "p_container", "p_retailprice", "p_comment",
        ),
    ),
    "partsupp": RelationSchema(
        "partsupp",
        (
            "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost",
            "ps_comment",
        ),
    ),
    "customer": RelationSchema(
        "customer",
        (
            "c_custkey", "c_name", "c_address", "c_nationkey", "c_phone",
            "c_acctbal", "c_mktsegment", "c_comment",
        ),
    ),
    "orders": RelationSchema(
        "orders",
        (
            "o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
            "o_orderdate", "o_orderpriority", "o_clerk", "o_shippriority",
            "o_comment",
        ),
    ),
    "lineitem": RelationSchema(
        "lineitem",
        (
            "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
            "l_quantity", "l_extendedprice", "l_discount", "l_tax",
            "l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
            "l_receiptdate", "l_shipinstruct", "l_shipmode", "l_comment",
        ),
    ),
}
"""Relation schema of each table (standard TPC-H column lists)."""

TPCH_KEYS: dict[str, tuple[str, ...]] = {
    "region": ("r_regionkey",),
    "nation": ("n_nationkey",),
    "supplier": ("s_suppkey",),
    "part": ("p_partkey",),
    "partsupp": ("ps_partkey", "ps_suppkey"),
    "customer": ("c_custkey",),
    "orders": ("o_orderkey",),
    "lineitem": ("l_orderkey", "l_linenumber"),
}
"""Primary key attributes per table."""

TPCH_FKS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "nation": (("n_regionkey", "region", "r_regionkey"),),
    "supplier": (("s_nationkey", "nation", "n_nationkey"),),
    "partsupp": (
        ("ps_partkey", "part", "p_partkey"),
        ("ps_suppkey", "supplier", "s_suppkey"),
    ),
    "customer": (("c_nationkey", "nation", "n_nationkey"),),
    "orders": (("o_custkey", "customer", "c_custkey"),),
    "lineitem": (
        ("l_orderkey", "orders", "o_orderkey"),
        ("l_partkey", "part", "p_partkey"),
        ("l_suppkey", "supplier", "s_suppkey"),
    ),
}
"""Foreign keys: ``(attribute, parent_table, parent_attribute)`` per table."""

_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
_NATIONS = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
)
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_CONTAINERS = ("SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX")
_TYPES = (
    "ECONOMY ANODIZED STEEL", "ECONOMY BRUSHED COPPER",
    "STANDARD POLISHED TIN", "STANDARD PLATED BRASS",
    "PROMO BURNISHED NICKEL", "PROMO ANODIZED TIN",
    "LARGE BRUSHED STEEL", "SMALL PLATED COPPER",
)
_NOUNS = (
    "almond", "aquamarine", "azure", "beige", "bisque", "black", "blue",
    "blush", "brown", "burlywood", "chartreuse", "chiffon", "chocolate",
    "coral", "cornflower", "cream", "cyan", "dark", "dim", "dodger",
)
_INSTRUCTIONS = (
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN",
)
_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")

_SUPPLIERS_PER_PART = 4
_LINES_PER_ORDER = (1, 7)  # uniform; mean 4 lines per order as in dbgen


def tpch_cardinality(table: str, sf: float) -> int:
    """Planned row count of ``table`` at scale factor ``sf``.

    For ``lineitem`` this is the *expected* count (the per-order line count
    is drawn uniformly from 1–7); every other table is exact.
    """
    if table not in TPCH_SCHEMAS:
        raise SchemaError(f"unknown TPC-H table {table!r}")
    if sf <= 0:
        raise ValueError(f"scale factor must be positive, got {sf}")
    if table == "region":
        return len(_REGIONS)
    if table == "nation":
        return len(_NATIONS)
    if table == "supplier":
        return max(1, round(10_000 * sf))
    if table == "part":
        return max(1, round(200_000 * sf))
    if table == "partsupp":
        return tpch_cardinality("part", sf) * _SUPPLIERS_PER_PART
    if table == "customer":
        return max(1, round(150_000 * sf))
    if table == "orders":
        return max(1, round(1_500_000 * sf))
    # lineitem: expectation of uniform 1..7 lines per order
    lo, hi = _LINES_PER_ORDER
    return tpch_cardinality("orders", sf) * (lo + hi) // 2


def _table_rng(seed: int, table: str, stage: str = "gen") -> random.Random:
    return random.Random(f"tpch:{seed}:{stage}:{table}")


def _money(rng: random.Random, lo_cents: int, hi_cents: int) -> float:
    """A price with non-zero cents, so no float ever equals an integer key.

    An integral float (``904.0``) compares ``==`` to the int ``904``, so it
    would fold into that key's constant wherever constants are collected
    by equality (the active domain, the columnar view's decode table).
    Seeded instances, and their fingerprints, depend on the values this
    rule produces.
    """
    cents = rng.randrange(lo_cents, hi_cents)
    if cents % 100 == 0:
        cents += 1
    return cents / 100


def _date(rng: random.Random) -> str:
    year = 1992 + rng.randrange(7)
    month = 1 + rng.randrange(12)
    day = 1 + rng.randrange(28)
    return f"{year:04d}-{month:02d}-{day:02d}"


def _comment(rng: random.Random) -> str:
    return (
        f"{rng.choice(_NOUNS)} {rng.choice(_NOUNS)} {rng.randrange(10_000)}"
    )


def _phone(rng: random.Random, nation_key: int) -> str:
    return (
        f"{10 + nation_key}-{rng.randrange(100, 1000)}-"
        f"{rng.randrange(100, 1000)}-{rng.randrange(1000, 10_000)}"
    )


def _part_suppliers(part_key: int, n_suppliers: int) -> list[int]:
    """The (deterministic) supplier keys stocking a part, dbgen-style."""
    step = n_suppliers // _SUPPLIERS_PER_PART + 1
    return [
        ((part_key + offset * step) % n_suppliers) + 1
        for offset in range(min(_SUPPLIERS_PER_PART, n_suppliers))
    ]


def _generate_table(
    table: str, sf: float, seed: int
) -> dict[str, list[Value]]:
    """Column map of one table; independent of every other table's stream."""
    rng = _table_rng(seed, table)
    schema = TPCH_SCHEMAS[table]
    columns: dict[str, list[Value]] = {a: [] for a in schema.attributes}

    def emit(row: Mapping[str, Value]) -> None:
        for attribute in schema.attributes:
            columns[attribute].append(row[attribute])

    if table == "region":
        for key, region in enumerate(_REGIONS):
            emit({
                "r_regionkey": key,
                "r_name": region,
                "r_comment": _comment(rng),
            })
    elif table == "nation":
        for key, nation in enumerate(_NATIONS):
            emit({
                "n_nationkey": key,
                "n_name": nation,
                "n_regionkey": key % len(_REGIONS),
                "n_comment": _comment(rng),
            })
    elif table == "supplier":
        for key in range(1, tpch_cardinality("supplier", sf) + 1):
            nation = rng.randrange(len(_NATIONS))
            emit({
                "s_suppkey": key,
                "s_name": f"Supplier#{key:09d}",
                "s_address": f"addr {rng.randrange(1_000_000)}",
                "s_nationkey": nation,
                "s_phone": _phone(rng, nation),
                "s_acctbal": _money(rng, -99_999, 999_999),
                "s_comment": _comment(rng),
            })
    elif table == "part":
        for key in range(1, tpch_cardinality("part", sf) + 1):
            mfgr = 1 + rng.randrange(5)
            emit({
                "p_partkey": key,
                "p_name": f"{rng.choice(_NOUNS)} {rng.choice(_NOUNS)}",
                "p_mfgr": f"Manufacturer#{mfgr}",
                "p_brand": f"Brand#{mfgr}{1 + rng.randrange(5)}",
                "p_type": rng.choice(_TYPES),
                "p_size": 1 + rng.randrange(50),
                "p_container": rng.choice(_CONTAINERS),
                "p_retailprice": _money(rng, 90_000, 200_000),
                "p_comment": _comment(rng),
            })
    elif table == "partsupp":
        n_suppliers = tpch_cardinality("supplier", sf)
        for part_key in range(1, tpch_cardinality("part", sf) + 1):
            for supp_key in _part_suppliers(part_key, n_suppliers):
                emit({
                    "ps_partkey": part_key,
                    "ps_suppkey": supp_key,
                    "ps_availqty": 1 + rng.randrange(9999),
                    "ps_supplycost": _money(rng, 100, 100_000),
                    "ps_comment": _comment(rng),
                })
    elif table == "customer":
        for key in range(1, tpch_cardinality("customer", sf) + 1):
            nation = rng.randrange(len(_NATIONS))
            emit({
                "c_custkey": key,
                "c_name": f"Customer#{key:09d}",
                "c_address": f"addr {rng.randrange(1_000_000)}",
                "c_nationkey": nation,
                "c_phone": _phone(rng, nation),
                "c_acctbal": _money(rng, -99_999, 999_999),
                "c_mktsegment": rng.choice(_SEGMENTS),
                "c_comment": _comment(rng),
            })
    elif table == "orders":
        n_customers = tpch_cardinality("customer", sf)
        for key in range(1, tpch_cardinality("orders", sf) + 1):
            emit({
                "o_orderkey": key,
                "o_custkey": 1 + rng.randrange(n_customers),
                "o_orderstatus": rng.choice(("O", "F", "P")),
                "o_totalprice": _money(rng, 100_000, 50_000_000),
                "o_orderdate": _date(rng),
                "o_orderpriority": rng.choice(_PRIORITIES),
                "o_clerk": f"Clerk#{1 + rng.randrange(1000):09d}",
                "o_shippriority": 0,
                "o_comment": _comment(rng),
            })
    elif table == "lineitem":
        n_orders = tpch_cardinality("orders", sf)
        n_parts = tpch_cardinality("part", sf)
        n_suppliers = tpch_cardinality("supplier", sf)
        lo, hi = _LINES_PER_ORDER
        for order_key in range(1, n_orders + 1):
            for line_number in range(1, rng.randrange(lo, hi + 1) + 1):
                part_key = 1 + rng.randrange(n_parts)
                stocked = _part_suppliers(part_key, n_suppliers)
                quantity = 1 + rng.randrange(50)
                emit({
                    "l_orderkey": order_key,
                    "l_partkey": part_key,
                    "l_suppkey": rng.choice(stocked),
                    "l_linenumber": line_number,
                    "l_quantity": quantity,
                    "l_extendedprice": _money(
                        rng, 90_000 * quantity, 90_000 * quantity + 10_000
                    ),
                    "l_discount": rng.randrange(11) / 100 + 0.001,
                    "l_tax": rng.randrange(9) / 100 + 0.001,
                    "l_returnflag": rng.choice(("R", "A", "N")),
                    "l_linestatus": rng.choice(("O", "F")),
                    "l_shipdate": _date(rng),
                    "l_commitdate": _date(rng),
                    "l_receiptdate": _date(rng),
                    "l_shipinstruct": rng.choice(_INSTRUCTIONS),
                    "l_shipmode": rng.choice(_MODES),
                    "l_comment": _comment(rng),
                })
    else:  # pragma: no cover - table names are validated upstream
        raise SchemaError(f"unknown TPC-H table {table!r}")
    return columns


def _inject_violations(
    tables: Mapping[str, dict[str, list[Value]]],
    rate: float,
    seed: int,
) -> None:
    """Plant PK duplicates and dangling FKs in-place, alternating kinds.

    ``rate`` is the fraction of each table's rows turned into (or appended
    as) a violation.  PK duplicates copy an existing row's key columns and
    perturb one non-key cell; dangling FKs point a child key past the
    parent's key range.  Both kinds are deterministic per ``seed``.
    """
    for table in TPCH_TABLES:
        columns = tables.get(table)
        if columns is None:
            continue
        schema = TPCH_SCHEMAS[table]
        n_rows = len(columns[schema.attributes[0]])
        count = int(round(rate * n_rows))
        if count <= 0 or n_rows == 0:
            continue
        rng = _table_rng(seed, table, stage="violations")
        key_attrs = set(TPCH_KEYS[table])
        non_key = [a for a in schema.attributes if a not in key_attrs]
        fks = TPCH_FKS.get(table, ())
        for index in range(count):
            if fks and (index % 2 == 1 or not non_key):
                # Dangling FK: point past the parent key range.
                attribute, parent, _ = fks[rng.randrange(len(fks))]
                row = rng.randrange(n_rows)
                columns[attribute][row] = (
                    10 ** 9 + rng.randrange(10 ** 6)
                )
            else:
                # PK duplicate: clone a row, perturb one non-key cell.
                source = rng.randrange(n_rows)
                for attribute in schema.attributes:
                    columns[attribute].append(columns[attribute][source])
                victim = rng.choice(non_key)
                columns[victim][-1] = f"dup {rng.randrange(10 ** 6)}"


def _null_masks(
    tables: Mapping[str, dict[str, list[Value]]],
    rate: float,
    seed: int,
) -> dict[str, dict[str, list[int]]]:
    """Row indices to null out per table/attribute (non-key cells only)."""
    masks: dict[str, dict[str, list[int]]] = {}
    for table in TPCH_TABLES:
        columns = tables.get(table)
        if columns is None:
            continue
        rng = _table_rng(seed, table, stage="nulls")
        key_attrs = set(TPCH_KEYS[table])
        schema = TPCH_SCHEMAS[table]
        per_attr: dict[str, list[int]] = {}
        for attribute in schema.attributes:
            if attribute in key_attrs:
                continue
            column = columns[attribute]
            rows = [
                row for row in range(len(column)) if rng.random() < rate
            ]
            if rows:
                per_attr[attribute] = rows
        if per_attr:
            masks[table] = per_attr
    return masks


def generate_tpch(
    sf: float,
    seed: int = 0,
    *,
    tables: Iterable[str] | None = None,
    null_rate: float = 0.0,
    violation_rate: float = 0.0,
    name: str | None = None,
) -> Instance:
    """A multi-relation TPC-H instance at scale factor ``sf``.

    Parameters
    ----------
    sf:
        Scale factor; ``0.01`` is roughly 60 k tuples, ``0.1`` roughly
        600 k.  Cardinalities follow :func:`tpch_cardinality`.
    seed:
        Master seed.  Each table draws from its own derived stream, so
        ``tables=("orders",)`` produces the identical orders rows the
        full eight-table run would.
    tables:
        Subset of :data:`TPCH_TABLES` to generate (default: all eight).
    null_rate:
        Per-cell probability of replacing a non-key cell with a fresh
        labeled null (incompleteness injection).
    violation_rate:
        Per-row rate of planted constraint violations (PK duplicates and
        dangling FKs, alternating).
    name:
        Instance name; defaults to ``tpch-sf{sf}-s{seed}``.

    Examples
    --------
    >>> inst = generate_tpch(0.001, seed=7, tables=("region", "nation"))
    >>> len(inst.relation("region")), len(inst.relation("nation"))
    (5, 25)
    """
    if tables is None:
        selected = TPCH_TABLES
    else:
        selected = tuple(tables)
        unknown = [t for t in selected if t not in TPCH_SCHEMAS]
        if unknown:
            raise SchemaError(f"unknown TPC-H tables {unknown!r}")
    if not 0.0 <= null_rate < 1.0:
        raise ValueError(f"null_rate must be in [0, 1), got {null_rate}")
    if not 0.0 <= violation_rate < 1.0:
        raise ValueError(
            f"violation_rate must be in [0, 1), got {violation_rate}"
        )
    generated = {
        table: _generate_table(table, sf, seed)
        for table in TPCH_TABLES
        if table in selected
    }
    if violation_rate:
        _inject_violations(generated, violation_rate, seed)
    masks = _null_masks(generated, null_rate, seed) if null_rate else None
    schema = Schema([TPCH_SCHEMAS[t] for t in TPCH_TABLES if t in generated])
    return Instance.from_columns(
        schema,
        generated,
        nulls=masks,
        name=f"tpch-sf{sf}-s{seed}" if name is None else name,
    )


def fk_violations(instance: Instance) -> dict[str, int]:
    """Dangling-FK count per ``child.attribute -> parent`` edge.

    Null child cells are not counted — a labeled null is an unknown value,
    not a known-bad reference.  Only edges whose parent relation is present
    in the instance are checked.
    """
    counts: dict[str, int] = {}
    present = set(instance.schema.relation_names())
    for table, edges in TPCH_FKS.items():
        if table not in present:
            continue
        child = instance.relation(table)
        for attribute, parent, parent_attribute in edges:
            if parent not in present:
                continue
            parent_keys = {
                t[parent_attribute]
                for t in instance.relation(parent)
                if not is_null(t[parent_attribute])
            }
            dangling = 0
            for t in child:
                value = t[attribute]
                if not is_null(value) and value not in parent_keys:
                    dangling += 1
            if dangling:
                counts[f"{table}.{attribute} -> {parent}"] = dangling
    return counts


def pk_duplicates(instance: Instance) -> dict[str, int]:
    """Duplicated primary-key count per table present in the instance."""
    counts: dict[str, int] = {}
    for table, key in TPCH_KEYS.items():
        if table not in instance.schema.relation_names():
            continue
        seen: dict[tuple, int] = {}
        for t in instance.relation(table):
            values = tuple(t[a] for a in key)
            if any(is_null(v) for v in values):
                continue
            seen[values] = seen.get(values, 0) + 1
        duplicated = sum(n - 1 for n in seen.values() if n > 1)
        if duplicated:
            counts[table] = duplicated
    return counts


# -- .tbl interchange --------------------------------------------------------

_INT_COLUMNS = frozenset(
    a
    for schema in TPCH_SCHEMAS.values()
    for a in schema.attributes
    if a.endswith("key")
    or a in (
        "l_linenumber", "l_quantity", "p_size", "ps_availqty",
        "o_shippriority",
    )
)
_FLOAT_COLUMNS = frozenset((
    "s_acctbal", "c_acctbal", "p_retailprice", "ps_supplycost",
    "o_totalprice", "l_extendedprice", "l_discount", "l_tax",
))
_TBL_NULL = "_N"
"""Cell marker for labeled nulls in ``.tbl`` files (``_N:<label>``)."""


def _cast_cell(attribute: str, text: str) -> Value:
    if text.startswith(f"{_TBL_NULL}:"):
        from ..core.values import LabeledNull

        label = text[len(_TBL_NULL) + 1:]
        if not label:
            raise FormatError(f"empty null label in column {attribute!r}")
        return LabeledNull(label)
    if attribute in _INT_COLUMNS:
        return int(text)
    if attribute in _FLOAT_COLUMNS:
        return float(text)
    return text


def write_tbl(instance: Instance, directory: str | Path) -> list[Path]:
    """Write each relation as a dbgen-style ``<table>.tbl`` file.

    Pipe-separated with a trailing pipe, no header, labeled nulls as
    ``_N:<label>`` cells.  Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for relation in instance.relations():
        path = directory / f"{relation.schema.name}.tbl"
        with open(path, "w") as handle:
            for t in relation:
                cells = [
                    f"{_TBL_NULL}:{v.label}" if is_null(v) else str(v)
                    for v in t.values
                ]
                handle.write("|".join(cells) + "|\n")
        written.append(path)
    return written


def read_tbl(
    directory: str | Path,
    tables: Iterable[str] | None = None,
    name: str = "tpch",
) -> Instance:
    """Read ``<table>.tbl`` files back into a multi-relation instance.

    Numeric columns are cast back per the TPC-H schema (key and measure
    columns), so ``write_tbl`` → ``read_tbl`` round-trips the instance
    content exactly (tuple ids are regenerated).
    """
    directory = Path(directory)
    if tables is None:
        selected = tuple(
            t for t in TPCH_TABLES if (directory / f"{t}.tbl").exists()
        )
        if not selected:
            raise FormatError(f"no .tbl files found in {directory}")
    else:
        selected = tuple(tables)
        unknown = [t for t in selected if t not in TPCH_SCHEMAS]
        if unknown:
            raise SchemaError(f"unknown TPC-H tables {unknown!r}")
    columns: dict[str, dict[str, list[Value]]] = {}
    for table in selected:
        schema = TPCH_SCHEMAS[table]
        per_attr: dict[str, list[Value]] = {a: [] for a in schema.attributes}
        path = directory / f"{table}.tbl"
        with open(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cells = line.split("|")
                if cells and cells[-1] == "":
                    cells.pop()  # trailing pipe
                if len(cells) != schema.arity:
                    raise FormatError(
                        f"{path.name}:{line_number}: expected "
                        f"{schema.arity} cells, got {len(cells)}"
                    )
                for attribute, text in zip(schema.attributes, cells):
                    try:
                        per_attr[attribute].append(
                            _cast_cell(attribute, text)
                        )
                    except ValueError as error:
                        raise FormatError(
                            f"{path.name}:{line_number}: bad value "
                            f"{text!r} for {attribute!r}: {error}"
                        ) from None
        columns[table] = per_attr
    schema = Schema([TPCH_SCHEMAS[t] for t in TPCH_TABLES if t in columns])
    return Instance.from_columns(schema, columns, name=name)


__all__ = [
    "TPCH_FKS",
    "TPCH_KEYS",
    "TPCH_SCHEMAS",
    "TPCH_TABLES",
    "fk_violations",
    "generate_tpch",
    "pk_duplicates",
    "read_tbl",
    "tpch_cardinality",
    "write_tbl",
]
