//! TPC-C benchmark substrate over generic persistent indexes.
//!
//! Reproduces the workload of Fig. 6 of the FAST+FAIR paper: the five
//! TPC-C transaction types (New-Order, Payment, Order-Status, Delivery,
//! Stock-Level) run against ten tables, each indexed by one [`PmIndex`]
//! instance (the customer-by-last-name secondary index through a
//! byte-keyed adapter over one). The measured quantity is *index*
//! throughput: every table access is a point get, insert, delete or
//! range scan on the index under test; row payloads live in a volatile arena (the paper's storage engine
//! is likewise not the object of measurement).
//!
//! The four mixes W1–W4 shift weight from New-Order (insert-heavy, many
//! order-line inserts) toward Order-Status (search + range) — the axis
//! along which Fig. 6 compares the indexes. Stock-Level and Delivery issue
//! genuine range scans — driven through streaming [`Cursor`]s, so no
//! transaction materializes an unbounded result set — which is what sinks
//! WORT in this figure.
//!
//! Beyond the paper, the substrate carries the spec's *string-keyed*
//! access path: Payment and Order-Status select the customer **by last
//! name** 60 % of the time (TPC-C §2.5.2/§2.6.2), served by a real
//! byte-keyed secondary index — a [`varkey::VarKeyStore`] over the same
//! index type as every other table ([`Table::CustomerName`]), keyed by
//! [`k_customer_name`] and scanned with a streaming [`varkey::ByteCursor`]
//! prefix walk instead of any synthetic integer packing.
//!
//! With a [`txn::TxnEngine`] attached ([`TpccDb::with_txn_engine`]),
//! Payment and New-Order become real multi-key transactions: every index
//! write of one transaction is staged in the engine's pmem redo journal
//! and committed with a single failure-atomic 8-byte store, so a crash
//! anywhere leaves zero or all of the transaction's writes (Payment's
//! three History rows — [`payment_history_writes`] — are the canonical
//! 3-key all-or-nothing unit, landing on different shards of a
//! hash-partitioned History table). Without an engine the same writes go
//! to the indexes directly, in the same order, consuming the same
//! randomness — the two modes are deterministically identical when no
//! crash intervenes.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmindex::{Cursor, IndexError, Key, PmIndex, Value};
use rand::prelude::*;
use rand::rngs::StdRng;
use varkey::{ByteCursor, VarKeyIndex, VarKeyStore};

/// Sizing parameters (scaled-down defaults; [`TpccConfig::paper`] restores
/// the spec sizes).
#[derive(Debug, Clone, Copy)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (spec: 10).
    pub districts_per_warehouse: u64,
    /// Customers per district (spec: 3000).
    pub customers_per_district: u64,
    /// Catalogue size (spec: 100 000).
    pub items: u64,
    /// Initial orders per district (spec: 3000).
    pub initial_orders_per_district: u64,
}

impl TpccConfig {
    /// Small configuration for tests and smoke benchmarks.
    pub fn small() -> Self {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 60,
            items: 1_000,
            initial_orders_per_district: 30,
        }
    }

    /// The TPC-C spec sizes (per warehouse).
    pub fn paper() -> Self {
        TpccConfig {
            warehouses: 4,
            districts_per_warehouse: 10,
            customers_per_district: 3_000,
            items: 100_000,
            initial_orders_per_district: 3_000,
        }
    }
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig::small()
    }
}

/// Transaction mix in percent; the four workloads of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// New-Order percentage.
    pub new_order: u32,
    /// Payment percentage.
    pub payment: u32,
    /// Order-Status percentage.
    pub order_status: u32,
    /// Delivery percentage.
    pub delivery: u32,
    /// Stock-Level percentage.
    pub stock_level: u32,
}

impl Mix {
    /// W1: NewOrder 34 %, Payment 43 %, Status 5 %, Delivery 4 %, StockLevel 14 %.
    pub const W1: Mix = Mix {
        new_order: 34,
        payment: 43,
        order_status: 5,
        delivery: 4,
        stock_level: 14,
    };
    /// W2: 27/43/15/4/11.
    pub const W2: Mix = Mix {
        new_order: 27,
        payment: 43,
        order_status: 15,
        delivery: 4,
        stock_level: 11,
    };
    /// W3: 20/43/25/4/8.
    pub const W3: Mix = Mix {
        new_order: 20,
        payment: 43,
        order_status: 25,
        delivery: 4,
        stock_level: 8,
    };
    /// W4: 13/43/35/4/5.
    pub const W4: Mix = Mix {
        new_order: 13,
        payment: 43,
        order_status: 35,
        delivery: 4,
        stock_level: 5,
    };

    /// All four paper mixes with their names.
    pub fn paper_mixes() -> [(&'static str, Mix); 4] {
        [
            ("W1", Mix::W1),
            ("W2", Mix::W2),
            ("W3", Mix::W3),
            ("W4", Mix::W4),
        ]
    }

    fn pick(&self, r: u32) -> Txn {
        let mut acc = self.new_order;
        if r < acc {
            return Txn::NewOrder;
        }
        acc += self.payment;
        if r < acc {
            return Txn::Payment;
        }
        acc += self.order_status;
        if r < acc {
            return Txn::OrderStatus;
        }
        acc += self.delivery;
        if r < acc {
            return Txn::Delivery;
        }
        Txn::StockLevel
    }
}

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Txn {
    /// Order entry (insert-heavy).
    NewOrder,
    /// Payment (updates + one insert).
    Payment,
    /// Order status (reads + range).
    OrderStatus,
    /// Delivery (delete + range + updates).
    Delivery,
    /// Stock level (large range scan + reads).
    StockLevel,
}

/// The ten tables of the TPC-C substrate, in the order
/// [`TpccDb::build_with`] creates their indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Warehouse master rows.
    Warehouse,
    /// District rows.
    District,
    /// Customer rows.
    Customer,
    /// Customer-by-last-name secondary index (string-keyed: served
    /// through a [`varkey::VarKeyStore`] over the same index type).
    CustomerName,
    /// Order rows.
    Order,
    /// Undelivered-order queue (secondary index on orders).
    NewOrder,
    /// Order-line rows.
    OrderLine,
    /// Stock rows.
    Stock,
    /// Item catalogue (not warehouse-keyed).
    Item,
    /// Payment history (append-only sequence, not warehouse-keyed).
    History,
}

impl Table {
    /// All ten tables in build order.
    pub const ALL: [Table; 10] = [
        Table::Warehouse,
        Table::District,
        Table::Customer,
        Table::CustomerName,
        Table::Order,
        Table::NewOrder,
        Table::OrderLine,
        Table::Stock,
        Table::Item,
        Table::History,
    ];

    /// This table's id in the transaction journal — its position in
    /// [`TpccDb::txn_tables`] — or `None` for the byte-keyed
    /// CustomerName index, which is not journaled (its writes happen
    /// only at populate time).
    ///
    /// The mapping is part of the journal format: recovery must pass
    /// `TxnEngine::recover` the same tables in the same order the
    /// commits used.
    pub fn txn_id(self) -> Option<usize> {
        match self {
            Table::Warehouse => Some(0),
            Table::District => Some(1),
            Table::Customer => Some(2),
            Table::CustomerName => None,
            Table::Order => Some(3),
            Table::NewOrder => Some(4),
            Table::OrderLine => Some(5),
            Table::Stock => Some(6),
            Table::Item => Some(7),
            Table::History => Some(8),
        }
    }
}

/// The three History-table writes of one Payment transaction — TPC-C
/// §2.5's history record split across three adjacent keys (`h*4+1` →
/// customer row id, `h*4+2` → district YTD after the payment, `h*4+3` →
/// customer balance after, biased positive), so a torn Payment is
/// *observable* as a partial key set. This is the canonical 3-key
/// all-or-nothing batch of the crash sweep; History is hash-partitioned
/// in sharded builds, so the trio routinely spans shards.
pub fn payment_history_writes(
    h: u64,
    cid: u64,
    ytd_after: u64,
    balance_after: i64,
) -> [(Key, u64); 3] {
    [
        (h * 4 + 1, cid),
        (h * 4 + 2, ytd_after + 1),
        // Balance can go negative; bias keeps the value off the reserved
        // 0 / u64::MAX endpoints.
        (h * 4 + 3, (balance_after + (1 << 40)) as u64),
    ]
}

/// The cross-table writes of one New-Order transaction — TPC-C §2.4
/// inserts one Order row, one NewOrder queue row and `ol_cnt` OrderLine
/// rows, all of which must land together or not at all. Each element is
/// `(txn_table_id, key, value)` with the table ids of
/// [`Table::txn_id`] (Order 3, NewOrder 4, OrderLine 5), ready to stage
/// into one `txn::WriteBatch`; values are derived from the row identity
/// so a torn or mis-applied New-Order is *observable*, and biased off
/// the reserved 0 / `u64::MAX` endpoints.
///
/// `ol_cnt` is clamped to TPC-C's 5..=15 line-count range.
pub fn new_order_writes(w: u64, d: u64, o: u64, ol_cnt: u64) -> Vec<(usize, Key, u64)> {
    let ol_cnt = ol_cnt.clamp(5, 15);
    let mut writes = Vec::with_capacity(2 + ol_cnt as usize);
    // Order row carries the line count; NewOrder queue row the order id.
    writes.push((3, k_order(w, d, o), ol_cnt + 1));
    writes.push((4, k_order(w, d, o), o + 1));
    for ol in 0..ol_cnt {
        // Order line value: a fake item id derived from the row identity.
        writes.push((5, k_orderline(w, d, o, ol), (o << 8) + ol + 1));
    }
    writes
}

/// Range-partition split points that place each contiguous group of
/// warehouses in its own shard of `table`'s index, or `None` for the two
/// tables whose keys carry no warehouse id (Item, History) — shard those
/// by hash instead.
///
/// Every warehouse-keyed table packs the warehouse id into its high bits
/// (see the `k_*` functions), so the smallest key of a warehouse is a
/// clean split point: all of one warehouse's rows land in one shard, and
/// the cross-warehouse scans TPC-C never issues are the only ones that
/// would touch two.
pub fn warehouse_bounds(table: Table, warehouses: u64, shards: usize) -> Option<Vec<Key>> {
    let pack: fn(u64) -> Key = match table {
        Table::Warehouse => k_warehouse,
        Table::District => |w| k_district(w, 0),
        Table::Customer => |w| k_customer(w, 0, 0),
        // The name index is byte-keyed; its inner index sees encoded
        // chunks, so the split points are chunk-space prefix bounds of
        // the warehouse-id key prefix (exact: the prefix is 2 bytes).
        Table::CustomerName => |w| varkey::codec::prefix_bound(&((w + 1) as u16).to_be_bytes()),
        Table::Order | Table::NewOrder => |w| k_order(w, 0, 0),
        Table::OrderLine => |w| k_orderline(w, 0, 0, 0),
        Table::Stock => |w| k_stock(w, 0),
        Table::Item | Table::History => return None,
    };
    Some(
        (1..shards)
            .map(|s| pack(s as u64 * warehouses / shards as u64))
            .collect(),
    )
}

/// Builds a TPC-C database in which every table is a
/// [`shard::ShardedStore`]: warehouse-keyed tables are **range-partitioned
/// by warehouse id** (shard `s` serves a contiguous group of warehouses,
/// so every transaction's index traffic stays on one shard — TPC-C's
/// natural scale-out axis), while Item and History, whose keys carry no
/// warehouse id, are hash-partitioned. `mk_shard(table, s)` creates shard
/// `s` of `table`'s index (10 × `shards` calls).
///
/// # Errors
///
/// Propagates index-construction and population failures.
pub fn build_warehouse_sharded<I: PmIndex>(
    cfg: TpccConfig,
    shards: usize,
    mut mk_shard: impl FnMut(Table, usize) -> Result<I, IndexError>,
) -> Result<TpccDb<shard::ShardedStore<I>>, IndexError> {
    TpccDb::build_with(cfg, |table| {
        let indexes = (0..shards)
            .map(|s| mk_shard(table, s))
            .collect::<Result<Vec<_>, _>>()?;
        let partitioning = match warehouse_bounds(table, cfg.warehouses, shards) {
            Some(bounds) => shard::Partitioning::Range { bounds },
            None => shard::Partitioning::Hash { shards },
        };
        Ok(shard::ShardedStore::from_indexes(indexes, partitioning))
    })
}

// ---- key packing -----------------------------------------------------------

/// Key of a warehouse row.
pub fn k_warehouse(w: u64) -> Key {
    w + 1
}
/// Key of a district row.
pub fn k_district(w: u64, d: u64) -> Key {
    ((w + 1) << 8) | d
}
/// Key of a customer row.
pub fn k_customer(w: u64, d: u64, c: u64) -> Key {
    ((w + 1) << 40) | (d << 32) | c
}
/// Key of an order row.
pub fn k_order(w: u64, d: u64, o: u64) -> Key {
    ((w + 1) << 40) | (d << 32) | o
}
/// Key of an order line row (`ol` < 16).
pub fn k_orderline(w: u64, d: u64, o: u64, ol: u64) -> Key {
    ((w + 1) << 44) | (d << 36) | (o << 4) | ol
}
/// Key of a stock row.
pub fn k_stock(w: u64, i: u64) -> Key {
    ((w + 1) << 32) | i
}
/// Key of an item row.
pub fn k_item(i: u64) -> Key {
    i + 1
}

/// TPC-C last names: the spec's ten syllables indexed by the digits of
/// `num % 1000` (§4.3.2.3). Customer `c` carries `last_name(c % 1000)`.
pub fn last_name(num: u64) -> String {
    const SYL: [&str; 10] = [
        "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
    ];
    let n = num % 1000;
    format!(
        "{}{}{}",
        SYL[(n / 100) as usize],
        SYL[(n / 10 % 10) as usize],
        SYL[(n % 10) as usize]
    )
}

/// Byte key of the customer-by-last-name secondary index:
/// `[w+1 (u16 BE)][d (u8)][last name][0x00][c (u32 BE)]`.
///
/// Within one `(w, d)` the keys sort by name then customer id; the NUL
/// separator (names are NUL-free ASCII) keeps a name that is a prefix of
/// another sorting first, and makes [`customer_name_prefix`] scans exact.
pub fn k_customer_name(w: u64, d: u64, name: &str, c: u64) -> Vec<u8> {
    let mut k = customer_name_prefix(w, d, name);
    k.extend_from_slice(&(c as u32).to_be_bytes());
    k
}

/// The shared prefix of every [`k_customer_name`] key with this
/// `(w, d, name)` — what the by-name lookup seeks to and matches on.
pub fn customer_name_prefix(w: u64, d: u64, name: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(name.len() + 8);
    k.extend_from_slice(&((w + 1) as u16).to_be_bytes());
    k.push(d as u8);
    k.extend_from_slice(name.as_bytes());
    k.push(0);
    k
}

// ---- volatile row arena -----------------------------------------------------

/// Append-only, thread-safe row table; row ids are 1-based and double as
/// index values.
struct Rows<T> {
    rows: Mutex<Vec<T>>,
}

impl<T: Clone> Rows<T> {
    fn new() -> Self {
        Rows {
            rows: Mutex::new(Vec::new()),
        }
    }
    fn push(&self, t: T) -> u64 {
        let mut v = self.rows.lock();
        v.push(t);
        v.len() as u64
    }
    fn get(&self, id: u64) -> T {
        self.rows.lock()[(id - 1) as usize].clone()
    }
    fn update(&self, id: u64, f: impl FnOnce(&mut T)) {
        f(&mut self.rows.lock()[(id - 1) as usize]);
    }
}

#[derive(Clone, Debug)]
struct DistrictRow {
    next_o_id: u64,
    ytd: u64,
}

#[derive(Clone, Debug)]
struct CustomerRow {
    balance: i64,
    payments: u64,
}

#[derive(Clone, Debug)]
struct OrderRow {
    ol_cnt: u64,
    carrier: u64,
}

#[derive(Clone, Debug)]
struct StockRow {
    quantity: i64,
}

#[derive(Clone, Debug)]
struct OrderLineRow {
    item: u64,
    qty: u64,
}

/// Per-transaction-type counts and the grand total, as returned by
/// [`TpccDb::run`].
#[derive(Debug, Default, Clone, Copy)]
pub struct TpccStats {
    /// Executed transactions by type.
    pub new_order: u64,
    /// Payment count.
    pub payment: u64,
    /// Order-status count.
    pub order_status: u64,
    /// Delivery count.
    pub delivery: u64,
    /// Stock-level count.
    pub stock_level: u64,
}

impl TpccStats {
    /// Total transactions executed.
    pub fn total(&self) -> u64 {
        self.new_order + self.payment + self.order_status + self.delivery + self.stock_level
    }
}

/// A TPC-C database whose ten tables are indexed by caller-provided
/// [`PmIndex`] instances.
pub struct TpccDb<I: PmIndex> {
    cfg: TpccConfig,
    /// Table indexes.
    warehouse: I,
    district: I,
    customer: I,
    /// String-keyed secondary index: customer by (warehouse, district,
    /// last name). Same index type underneath, adapted by `VarKeyStore`;
    /// overflow records live in a dedicated pool sized at build time.
    customer_name: VarKeyStore<I>,
    order: I,
    new_order_idx: I,
    order_line: I,
    stock: I,
    item: I,
    history: I,
    // Row arenas.
    districts: Rows<DistrictRow>,
    customers: Rows<CustomerRow>,
    orders: Rows<OrderRow>,
    order_lines: Rows<OrderLineRow>,
    stocks: Rows<StockRow>,
    history_seq: AtomicU64,
    /// When attached, Payment and New-Order route their index writes
    /// through this journal as atomic multi-key batches.
    txn: Option<txn::TxnEngine>,
}

impl<I: PmIndex> TpccDb<I> {
    /// Builds and populates a database; `mk` creates one fresh index per
    /// table (ten calls; the CustomerName index is wrapped in a
    /// byte-keyed [`VarKeyStore`]).
    ///
    /// # Errors
    ///
    /// Propagates index-construction and insertion failures.
    pub fn build(
        cfg: TpccConfig,
        mut mk: impl FnMut() -> Result<I, IndexError>,
    ) -> Result<Self, IndexError> {
        Self::build_with(cfg, |_| mk())
    }

    /// Like [`TpccDb::build`], but tells the factory *which* table it is
    /// creating an index for — the hook a sharded deployment needs to pick
    /// a per-table partitioning (warehouse-range for warehouse-keyed
    /// tables, hash for Item/History; see [`warehouse_bounds`]).
    ///
    /// # Errors
    ///
    /// Propagates index-construction and insertion failures.
    pub fn build_with(
        cfg: TpccConfig,
        mut mk: impl FnMut(Table) -> Result<I, IndexError>,
    ) -> Result<Self, IndexError> {
        // Overflow pool for the name index's byte keys: every customer
        // costs one ~48-byte record; size generously and round up.
        let customers = cfg.warehouses * cfg.districts_per_warehouse * cfg.customers_per_district;
        let name_pool = Arc::new(
            pmem::Pool::new(
                pmem::PoolConfig::new().size(((customers as usize) * 128).max(1 << 20)),
            )
            .map_err(IndexError::from)?,
        );
        let db = TpccDb {
            cfg,
            warehouse: mk(Table::Warehouse)?,
            district: mk(Table::District)?,
            customer: mk(Table::Customer)?,
            customer_name: VarKeyStore::new(mk(Table::CustomerName)?, name_pool),
            order: mk(Table::Order)?,
            new_order_idx: mk(Table::NewOrder)?,
            order_line: mk(Table::OrderLine)?,
            stock: mk(Table::Stock)?,
            item: mk(Table::Item)?,
            history: mk(Table::History)?,
            districts: Rows::new(),
            customers: Rows::new(),
            orders: Rows::new(),
            order_lines: Rows::new(),
            stocks: Rows::new(),
            history_seq: AtomicU64::new(1),
            txn: None,
        };
        db.populate()?;
        Ok(db)
    }

    /// Attaches a transaction journal: from here on, Payment and
    /// New-Order commit their index writes as atomic multi-key
    /// [`txn::WriteBatch`]es instead of one direct insert at a time. The
    /// engine's journal may live in any pool; the caller keeps enough
    /// handles to re-open it and [`txn::TxnEngine::recover`] against
    /// [`TpccDb::txn_tables`] after a crash.
    pub fn with_txn_engine(mut self, engine: txn::TxnEngine) -> Self {
        self.txn = Some(engine);
        self
    }

    /// The nine `u64`-keyed table indexes in journal table-id order
    /// ([`Table::txn_id`]). Pass exactly this slice to
    /// [`txn::TxnEngine::commit`] and [`txn::TxnEngine::recover`]; the
    /// order is part of the journal format.
    pub fn txn_tables(&self) -> [&I; 9] {
        [
            &self.warehouse,
            &self.district,
            &self.customer,
            &self.order,
            &self.new_order_idx,
            &self.order_line,
            &self.stock,
            &self.item,
            &self.history,
        ]
    }

    /// Applies one transaction's index writes: as a single atomic batch
    /// through the attached journal, or directly (in the same order)
    /// when no engine is attached. Both paths are deterministic and
    /// crash-equivalent in the success case; only the crash behavior
    /// differs (all-or-nothing vs. prefix).
    fn commit_writes(&self, writes: &[(usize, Key, Value)]) -> Result<(), IndexError> {
        match &self.txn {
            Some(engine) => {
                let mut batch = txn::WriteBatch::new();
                for &(t, k, v) in writes {
                    batch.put(t, k, v);
                }
                engine.commit(batch, &self.txn_tables())?;
            }
            None => {
                let tables = self.txn_tables();
                for &(t, k, v) in writes {
                    tables[t].insert(k, v)?;
                }
            }
        }
        Ok(())
    }

    fn populate(&self) -> Result<(), IndexError> {
        let cfg = &self.cfg;
        // The catalogue and stock tables have ascending keys: load them
        // bottom-up through the bulk path (packed leaves, one flush per
        // line on indexes that support it).
        self.item
            .bulk_load(&mut (0..cfg.items).map(|i| (k_item(i), i + 1)))?;
        self.stock.bulk_load(
            &mut (0..cfg.warehouses)
                .flat_map(|w| (0..cfg.items).map(move |i| (w, i)))
                .map(|(w, i)| {
                    let id = self.stocks.push(StockRow { quantity: 100 });
                    (k_stock(w, i), id)
                }),
        )?;
        for w in 0..cfg.warehouses {
            self.warehouse.insert(k_warehouse(w), w + 1)?;
            for d in 0..cfg.districts_per_warehouse {
                let did = self.districts.push(DistrictRow {
                    next_o_id: cfg.initial_orders_per_district,
                    ytd: 0,
                });
                self.district.insert(k_district(w, d), did)?;
                for c in 0..cfg.customers_per_district {
                    let cid = self.customers.push(CustomerRow {
                        balance: -10,
                        payments: 1,
                    });
                    self.customer.insert(k_customer(w, d, c), cid)?;
                    self.customer_name
                        .insert(&k_customer_name(w, d, &last_name(c), c), cid)?;
                }
                for o in 0..cfg.initial_orders_per_district {
                    self.create_order(w, d, o, (o % 5) + 1, o % cfg.items, o % 3 != 0)?;
                }
            }
        }
        Ok(())
    }

    fn create_order(
        &self,
        w: u64,
        d: u64,
        o: u64,
        ol_cnt: u64,
        first_item: u64,
        delivered: bool,
    ) -> Result<(), IndexError> {
        let oid = self.orders.push(OrderRow {
            ol_cnt,
            carrier: u64::from(delivered),
        });
        self.order.insert(k_order(w, d, o), oid)?;
        if !delivered {
            self.new_order_idx.insert(k_order(w, d, o), oid)?;
        }
        for ol in 0..ol_cnt {
            let item = (first_item + ol) % self.cfg.items;
            let lid = self.order_lines.push(OrderLineRow { item, qty: 5 });
            self.order_line.insert(k_orderline(w, d, o, ol), lid)?;
        }
        Ok(())
    }

    /// The string-keyed secondary index itself — for harnesses that want
    /// to scan or audit the by-name keyspace directly.
    pub fn customer_name_index(&self) -> &VarKeyStore<I> {
        &self.customer_name
    }

    /// TPC-C's customer-by-last-name selection (§2.5.2.2): streams the
    /// name index over the `(w, d, name)` prefix and returns the
    /// middle matching customer's row id, or `None` for an unused name.
    pub fn customer_by_name(&self, w: u64, d: u64, name: &str) -> Option<u64> {
        let prefix = customer_name_prefix(w, d, name);
        let mut ids = Vec::new();
        let mut cur = self.customer_name.cursor();
        cur.seek(&prefix);
        while let Some((k, cid)) = cur.next() {
            if !k.starts_with(&prefix) {
                break;
            }
            ids.push(cid);
        }
        // "the row at position ceil(n/2)" — 1-based, so index (n-1)/2.
        (!ids.is_empty()).then(|| ids[(ids.len() - 1) / 2])
    }

    /// Draws the spec's 60 % by-last-name / 40 % by-id customer
    /// selection for `(w, d)` and resolves it to a row id.
    fn select_customer(&self, rng: &mut StdRng, w: u64, d: u64) -> u64 {
        let cfg = &self.cfg;
        if rng.gen_range(0..100u32) < 60 {
            // Names are derived from customer numbers, so drawing a
            // customer number first guarantees the name exists.
            let name = last_name(rng.gen_range(0..cfg.customers_per_district));
            self.customer_by_name(w, d, &name)
                .expect("customer by name")
        } else {
            let c = rng.gen_range(0..cfg.customers_per_district);
            self.customer.get(k_customer(w, d, c)).expect("customer")
        }
    }

    // ---- the five transactions -------------------------------------------

    fn tx_new_order(&self, rng: &mut StdRng) -> Result<(), IndexError> {
        let cfg = &self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        let d = rng.gen_range(0..cfg.districts_per_warehouse);
        let c = rng.gen_range(0..cfg.customers_per_district);
        // Reads.
        self.warehouse.get(k_warehouse(w));
        let did = self.district.get(k_district(w, d)).expect("district");
        self.customer.get(k_customer(w, d, c));
        // Take the next order id.
        let mut o = 0;
        self.districts.update(did, |row| {
            o = row.next_o_id;
            row.next_o_id += 1;
        });
        let ol_cnt = rng.gen_range(5..=15u64);
        let oid = self.orders.push(OrderRow { ol_cnt, carrier: 0 });
        // Collect the order row, its undelivered-queue entry and every
        // order line into ONE write set: with a journal attached the
        // whole order becomes durable atomically — no crash can leave an
        // order without its lines.
        let mut writes: Vec<(usize, Key, Value)> = Vec::with_capacity(2 + ol_cnt as usize);
        writes.push((Table::Order.txn_id().unwrap(), k_order(w, d, o), oid));
        writes.push((Table::NewOrder.txn_id().unwrap(), k_order(w, d, o), oid));
        for ol in 0..ol_cnt {
            let item = rng.gen_range(0..cfg.items);
            self.item.get(k_item(item));
            if let Some(sid) = self.stock.get(k_stock(w, item)) {
                self.stocks.update(sid, |s| {
                    s.quantity -= rng.gen_range(1..=10) as i64;
                    if s.quantity < 10 {
                        s.quantity += 91;
                    }
                });
            }
            let lid = self.order_lines.push(OrderLineRow {
                item,
                qty: rng.gen_range(1..=10),
            });
            writes.push((
                Table::OrderLine.txn_id().unwrap(),
                k_orderline(w, d, o, ol),
                lid,
            ));
        }
        self.commit_writes(&writes)
    }

    fn tx_payment(&self, rng: &mut StdRng) -> Result<(), IndexError> {
        let cfg = &self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        let d = rng.gen_range(0..cfg.districts_per_warehouse);
        let amount = rng.gen_range(1..5000) as i64;
        self.warehouse.get(k_warehouse(w));
        let did = self.district.get(k_district(w, d)).expect("district");
        let mut ytd_after = 0;
        self.districts.update(did, |row| {
            row.ytd += amount as u64;
            ytd_after = row.ytd;
        });
        let cid = self.select_customer(rng, w, d);
        let mut balance_after = 0;
        self.customers.update(cid, |row| {
            row.balance -= amount;
            row.payments += 1;
            balance_after = row.balance;
        });
        let h = self.history_seq.fetch_add(1, Ordering::Relaxed);
        // Three History rows, one all-or-nothing unit (see
        // `payment_history_writes`): with a journal attached a crash can
        // never record a payment's customer without its YTD and balance.
        let history = Table::History.txn_id().unwrap();
        let writes: Vec<(usize, Key, Value)> =
            payment_history_writes(h, cid, ytd_after, balance_after)
                .into_iter()
                .map(|(k, v)| (history, k, v))
                .collect();
        self.commit_writes(&writes)
    }

    fn tx_order_status(&self, rng: &mut StdRng) {
        let cfg = &self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        let d = rng.gen_range(0..cfg.districts_per_warehouse);
        let _cid = self.select_customer(rng, w, d);
        // Most recent order of the district: one reverse seek lands on
        // the predecessor of the district's key-range ceiling directly,
        // instead of streaming every order forward to find the last.
        let mut cur = self.order.cursor();
        cur.seek_for_prev(k_order(w, d, u32::MAX as u64) - 1);
        let newest = cur.prev().filter(|&(k, _)| k >= k_order(w, d, 0));
        if let Some((okey, oid)) = newest {
            let o = okey & 0xffff_ffff;
            let row = self.orders.get(oid);
            let mut lines = self.order_line.cursor();
            lines.seek(k_orderline(w, d, o, 0));
            let line_hi = k_orderline(w, d, o, 15) + 1;
            let mut n = 0usize;
            while let Some((k, lid)) = lines.next() {
                if k >= line_hi {
                    break;
                }
                let _ = self.order_lines.get(lid);
                n += 1;
            }
            debug_assert!(n <= row.ol_cnt as usize);
        }
    }

    fn tx_delivery(&self, rng: &mut StdRng) {
        let cfg = &self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        for d in 0..cfg.districts_per_warehouse {
            // Oldest undelivered order: one seek, first hit — the cursor
            // stops after a single entry instead of materializing the
            // whole pending set.
            let mut pending = self.new_order_idx.cursor();
            pending.seek(k_order(w, d, 0));
            let first = pending
                .next()
                .filter(|&(k, _)| k < k_order(w, d, u32::MAX as u64));
            let Some((okey, oid)) = first else {
                continue;
            };
            let o = okey & 0xffff_ffff;
            self.new_order_idx.remove(okey);
            self.orders.update(oid, |row| row.carrier = 1);
            let mut lines = self.order_line.cursor();
            lines.seek(k_orderline(w, d, o, 0));
            let line_hi = k_orderline(w, d, o, 15) + 1;
            let mut total = 0u64;
            while let Some((k, lid)) = lines.next() {
                if k >= line_hi {
                    break;
                }
                total += self.order_lines.get(lid).qty;
            }
            let c = rng.gen_range(0..cfg.customers_per_district);
            if let Some(cid) = self.customer.get(k_customer(w, d, c)) {
                self.customers
                    .update(cid, |row| row.balance += total as i64);
            }
        }
    }

    fn tx_stock_level(&self, rng: &mut StdRng) {
        let cfg = &self.cfg;
        let w = rng.gen_range(0..cfg.warehouses);
        let d = rng.gen_range(0..cfg.districts_per_warehouse);
        let did = self.district.get(k_district(w, d)).expect("district");
        let next_o = {
            let row = self.districts.get(did);
            row.next_o_id
        };
        let from = next_o.saturating_sub(20);
        // Stream the last 20 orders' lines (the big scan of TPC-C) through
        // a cursor — no intermediate Vec even at spec scale.
        let mut lines = self.order_line.cursor();
        lines.seek(k_orderline(w, d, from, 0));
        let hi = k_orderline(w, d, next_o, 0);
        let mut low = 0usize;
        while let Some((k, lid)) = lines.next() {
            if k >= hi {
                break;
            }
            let item = self.order_lines.get(lid).item;
            if let Some(sid) = self.stock.get(k_stock(w, item)) {
                if self.stocks.get(sid).quantity < 15 {
                    low += 1;
                }
            }
        }
        std::hint::black_box(low);
    }

    /// Runs `count` transactions drawn from `mix`; returns per-type counts.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion from insert-heavy transactions.
    pub fn run(&self, mix: Mix, count: usize, seed: u64) -> Result<TpccStats, IndexError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = TpccStats::default();
        for _ in 0..count {
            match mix.pick(rng.gen_range(0..100)) {
                Txn::NewOrder => {
                    self.tx_new_order(&mut rng)?;
                    stats.new_order += 1;
                }
                Txn::Payment => {
                    self.tx_payment(&mut rng)?;
                    stats.payment += 1;
                }
                Txn::OrderStatus => {
                    self.tx_order_status(&mut rng);
                    stats.order_status += 1;
                }
                Txn::Delivery => {
                    self.tx_delivery(&mut rng);
                    stats.delivery += 1;
                }
                Txn::StockLevel => {
                    self.tx_stock_level(&mut rng);
                    stats.stock_level += 1;
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fastfair_db() -> TpccDb<fastfair::FastFairTree> {
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(256 << 20)).unwrap());
        TpccDb::build(TpccConfig::small(), || {
            fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
        })
        .unwrap()
    }

    #[test]
    fn key_packing_is_injective_and_ordered() {
        // Orders of one district are contiguous and sorted.
        assert!(k_order(1, 2, 5) < k_order(1, 2, 6));
        assert!(k_order(1, 2, u32::MAX as u64 - 1) < k_order(1, 3, 0));
        assert!(k_orderline(0, 0, 7, 3) < k_orderline(0, 0, 7, 4));
        assert!(k_orderline(0, 0, 7, 15) < k_orderline(0, 0, 8, 0));
        assert_ne!(k_customer(1, 1, 1), k_order(1, 1, 1) + 1);
        assert_ne!(k_stock(0, 5), k_item(5));
    }

    #[test]
    fn mixes_sum_to_100() {
        for (_, m) in Mix::paper_mixes() {
            assert_eq!(
                m.new_order + m.payment + m.order_status + m.delivery + m.stock_level,
                100
            );
        }
    }

    #[test]
    fn build_and_run_all_mixes_on_fastfair() {
        let db = fastfair_db();
        for (name, mix) in Mix::paper_mixes() {
            let stats = db.run(mix, 500, 42).unwrap();
            assert_eq!(stats.total(), 500, "{name}");
            assert!(stats.new_order > 0, "{name}");
            assert!(stats.payment > 0, "{name}");
        }
    }

    #[test]
    fn new_order_grows_order_index() {
        let db = fastfair_db();
        let before = {
            let mut v = Vec::new();
            db.order.range(0, u64::MAX, &mut v);
            v.len()
        };
        let only_new_order = Mix {
            new_order: 100,
            payment: 0,
            order_status: 0,
            delivery: 0,
            stock_level: 0,
        };
        db.run(only_new_order, 100, 7).unwrap();
        let after = {
            let mut v = Vec::new();
            db.order.range(0, u64::MAX, &mut v);
            v.len()
        };
        assert_eq!(after, before + 100);
    }

    #[test]
    fn order_status_cost_does_not_scale_with_order_count() {
        // Order-Status finds the newest order with one reverse seek, so
        // its pointer-chase count must stay flat as a district's order
        // history grows (a forward stream would pay one leaf hop per
        // batch of existing orders). Stats counters are thread-local and
        // `run` executes on the calling thread, so the measurement is
        // deterministic under parallel test execution.
        let only_new_order = Mix {
            new_order: 100,
            payment: 0,
            order_status: 0,
            delivery: 0,
            stock_level: 0,
        };
        let only_status = Mix {
            new_order: 0,
            payment: 0,
            order_status: 100,
            delivery: 0,
            stock_level: 0,
        };
        let status_cost = |extra_orders: usize| {
            let db = fastfair_db();
            if extra_orders > 0 {
                db.run(only_new_order, extra_orders, 3).unwrap();
            }
            let _ = pmem::stats::take();
            db.run(only_status, 50, 9).unwrap();
            pmem::stats::take().serial_misses
        };
        let small = status_cost(0);
        let big = status_cost(3000);
        assert!(
            big <= small.saturating_mul(3),
            "newest-order lookup cost grew with order count: {small} -> {big} serial misses"
        );
    }

    #[test]
    fn delivery_drains_new_orders() {
        let db = fastfair_db();
        let count = |idx: &dyn PmIndex| {
            let mut v = Vec::new();
            idx.range(0, u64::MAX, &mut v);
            v.len()
        };
        let before = count(&db.new_order_idx);
        let only_delivery = Mix {
            new_order: 0,
            payment: 0,
            order_status: 0,
            delivery: 100,
            stock_level: 0,
        };
        db.run(only_delivery, 5, 11).unwrap();
        assert!(count(&db.new_order_idx) < before);
    }

    #[test]
    fn runs_on_wbtree() {
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(256 << 20)).unwrap());
        let db = TpccDb::build(TpccConfig::small(), || {
            wbtree::WbTree::create(Arc::clone(&pool))
        })
        .unwrap();
        assert_eq!(db.run(Mix::W2, 200, 3).unwrap().total(), 200);
        assert_eq!(db.run(Mix::W4, 200, 3).unwrap().total(), 200);
    }

    #[test]
    fn warehouse_bounds_split_contiguously() {
        for table in Table::ALL {
            match warehouse_bounds(table, 8, 4) {
                Some(bounds) => {
                    assert_eq!(bounds.len(), 3);
                    assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
                    // Each warehouse's whole key range lands in one shard.
                    let part = shard::Partitioning::Range { bounds };
                    for w in 0..8u64 {
                        let (lo, hi) = match table {
                            Table::Warehouse => (k_warehouse(w), k_warehouse(w)),
                            Table::District => (k_district(w, 0), k_district(w, 9)),
                            Table::Customer => (k_customer(w, 0, 0), k_customer(w, 9, 2999)),
                            // The name index routes by encoded chunk.
                            Table::CustomerName => (
                                varkey::codec::first_chunk(&k_customer_name(
                                    w,
                                    0,
                                    &last_name(200), // ABLE...: smallest first syllable
                                    0,
                                )),
                                varkey::codec::first_chunk(&k_customer_name(
                                    w,
                                    9,
                                    &last_name(311), // PRI...: largest first syllable
                                    2999,
                                )),
                            ),
                            Table::Order | Table::NewOrder => {
                                (k_order(w, 0, 0), k_order(w, 9, u32::MAX as u64 - 1))
                            }
                            Table::OrderLine => {
                                (k_orderline(w, 0, 0, 0), k_orderline(w, 9, 99_999, 15))
                            }
                            Table::Stock => (k_stock(w, 0), k_stock(w, 99_999)),
                            Table::Item | Table::History => unreachable!(),
                        };
                        assert_eq!(
                            part.shard_of(lo),
                            part.shard_of(hi),
                            "{table:?} warehouse {w} straddles shards"
                        );
                    }
                }
                None => assert!(matches!(table, Table::Item | Table::History)),
            }
        }
    }

    #[test]
    fn warehouse_sharded_db_runs_all_mixes() {
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(256 << 20)).unwrap());
        let db = build_warehouse_sharded(TpccConfig::small(), 2, |_table, _s| {
            fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
        })
        .unwrap();
        for (name, mix) in Mix::paper_mixes() {
            let stats = db.run(mix, 300, 17).unwrap();
            assert_eq!(stats.total(), 300, "{name}");
        }
    }

    #[test]
    fn sharded_and_unsharded_runs_are_identical() {
        // Same seed, same mix: the sharded router must be semantically
        // invisible — per-type transaction counts match exactly.
        let plain = fastfair_db();
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(256 << 20)).unwrap());
        let sharded = build_warehouse_sharded(TpccConfig::small(), 2, |_t, _s| {
            fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
        })
        .unwrap();
        let a = plain.run(Mix::W2, 400, 123).unwrap();
        let b = sharded.run(Mix::W2, 400, 123).unwrap();
        assert_eq!(
            (
                a.new_order,
                a.payment,
                a.order_status,
                a.delivery,
                a.stock_level
            ),
            (
                b.new_order,
                b.payment,
                b.order_status,
                b.delivery,
                b.stock_level
            )
        );
        // And the order tables agree exactly.
        let count = |idx: &dyn PmIndex| {
            let mut v = Vec::new();
            idx.range(0, u64::MAX, &mut v);
            v
        };
        assert_eq!(count(&plain.order), count(&sharded.order));
    }

    #[test]
    fn last_names_follow_the_spec() {
        assert_eq!(last_name(0), "BARBARBAR");
        assert_eq!(last_name(371), "PRICALLYOUGHT");
        assert_eq!(last_name(999), "EINGEINGEING");
        assert_eq!(last_name(1371), last_name(371)); // mod 1000
                                                     // Injective on 0..1000 (each digit picks one syllable).
        let names: std::collections::HashSet<String> = (0..1000).map(last_name).collect();
        assert_eq!(names.len(), 1000);
    }

    #[test]
    fn by_name_lookup_agrees_with_by_id() {
        let db = fastfair_db();
        let cfg = TpccConfig::small();
        // One name-index entry per customer.
        assert_eq!(
            db.customer_name_index().len() as u64,
            cfg.warehouses * cfg.districts_per_warehouse * cfg.customers_per_district
        );
        for w in 0..cfg.warehouses {
            for d in 0..cfg.districts_per_warehouse {
                for c in 0..cfg.customers_per_district {
                    // With < 1000 customers per district every name is
                    // unique, so by-name must resolve to exactly the
                    // by-id row.
                    let by_id = db.customer.get(k_customer(w, d, c)).unwrap();
                    let by_name = db.customer_by_name(w, d, &last_name(c)).unwrap();
                    assert_eq!(by_id, by_name, "w{w} d{d} c{c}");
                }
            }
        }
        assert_eq!(db.customer_by_name(0, 0, "NOSUCHNAME"), None);
    }

    #[test]
    fn by_name_duplicates_select_the_middle_row() {
        // 1200 customers in one district: names repeat for c >= 1000
        // (c and c - 1000 share last_name(c % 1000)), so 200 names have
        // two matches and the spec's ceil(n/2) rule picks the first.
        let cfg = TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 1,
            customers_per_district: 1200,
            items: 50,
            initial_orders_per_district: 2,
        };
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(64 << 20)).unwrap());
        let db = TpccDb::build(cfg, || {
            fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
        })
        .unwrap();
        // Duplicated name: matches c = 7 and c = 1007, middle (1-based
        // ceil(2/2) = 1st) is c = 7.
        assert_eq!(
            db.customer_by_name(0, 0, &last_name(7)),
            db.customer.get(k_customer(0, 0, 7))
        );
        // Names of c in 1000..1200 duplicate those of 0..200, so names
        // 200..1000 stay unique to their customer.
        assert_eq!(
            db.customer_by_name(0, 0, &last_name(555)),
            db.customer.get(k_customer(0, 0, 555))
        );
    }

    #[test]
    fn sharded_and_unsharded_by_name_lookups_identical() {
        let plain = fastfair_db();
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(256 << 20)).unwrap());
        let sharded = build_warehouse_sharded(TpccConfig::small(), 2, |_t, _s| {
            fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
        })
        .unwrap();
        let cfg = TpccConfig::small();
        for w in 0..cfg.warehouses {
            for d in 0..cfg.districts_per_warehouse {
                for c in 0..cfg.customers_per_district {
                    let name = last_name(c);
                    assert_eq!(
                        plain.customer_by_name(w, d, &name),
                        sharded.customer_by_name(w, d, &name),
                        "w{w} d{d} {name}"
                    );
                }
            }
        }
        // The two name indexes hold byte-identical content.
        fn drain<I: PmIndex>(db: &TpccDb<I>) -> Vec<(Vec<u8>, u64)> {
            let mut out = Vec::new();
            let mut c = db.customer_name_index().cursor();
            while let Some(e) = c.next() {
                out.push(e);
            }
            out
        }
        assert_eq!(drain(&plain), drain(&sharded));
    }

    #[test]
    fn deterministic_given_seed() {
        let db1 = fastfair_db();
        let db2 = fastfair_db();
        let s1 = db1.run(Mix::W1, 300, 99).unwrap();
        let s2 = db2.run(Mix::W1, 300, 99).unwrap();
        assert_eq!(s1.new_order, s2.new_order);
        assert_eq!(s1.stock_level, s2.stock_level);
    }

    fn table_contents(idx: &dyn PmIndex) -> Vec<(u64, u64)> {
        let mut v = Vec::new();
        idx.range(0, u64::MAX, &mut v);
        v
    }

    #[test]
    fn transactional_and_plain_runs_are_identical() {
        // The journal must be semantically invisible in the no-crash
        // case: same seed -> byte-identical index contents, whether each
        // write went in directly or through an atomic batch.
        let plain = fastfair_db();
        let txn_db = {
            let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(256 << 20)).unwrap());
            let journal_pool =
                Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(4 << 20)).unwrap());
            TpccDb::build(TpccConfig::small(), || {
                fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
            })
            .unwrap()
            .with_txn_engine(txn::TxnEngine::create(journal_pool).unwrap())
        };
        let a = plain.run(Mix::W1, 400, 123).unwrap();
        let b = txn_db.run(Mix::W1, 400, 123).unwrap();
        assert_eq!(
            (a.new_order, a.payment, a.order_status, a.delivery),
            (b.new_order, b.payment, b.order_status, b.delivery)
        );
        // Every journaled table agrees entry for entry.
        for (p, t) in plain.txn_tables().iter().zip(txn_db.txn_tables()) {
            assert_eq!(table_contents(*p), table_contents(t));
        }
        // Every Payment and New-Order went through the journal.
        let engine = txn_db.txn.as_ref().unwrap();
        assert_eq!(engine.last_committed(), a.payment + a.new_order);
        assert!(!engine.pending());
    }

    #[test]
    fn transactional_sharded_db_commits_cross_shard_batches() {
        // History is hash-partitioned, so a Payment's three rows span
        // shards — the batch commits across them and the journal stays
        // clean afterward.
        let pool = Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(256 << 20)).unwrap());
        let journal_pool =
            Arc::new(pmem::Pool::new(pmem::PoolConfig::new().size(4 << 20)).unwrap());
        let db = build_warehouse_sharded(TpccConfig::small(), 2, |_t, _s| {
            fastfair::FastFairTree::create(Arc::clone(&pool), fastfair::TreeOptions::new())
        })
        .unwrap()
        .with_txn_engine(txn::TxnEngine::create(journal_pool).unwrap());
        let stats = db.run(Mix::W2, 300, 17).unwrap();
        assert_eq!(stats.total(), 300);
        let plain = fastfair_db();
        plain.run(Mix::W2, 300, 17).unwrap();
        for (p, t) in plain.txn_tables().iter().zip(db.txn_tables()) {
            assert_eq!(table_contents(*p), table_contents(t));
        }
        assert!(!db.txn.as_ref().unwrap().pending());
    }

    #[test]
    fn payment_history_writes_are_distinct_and_valid() {
        let writes = payment_history_writes(7, 42, 1000, -2500);
        let keys: std::collections::HashSet<u64> = writes.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys.len(), 3);
        for &(k, v) in &writes {
            assert_ne!(k, 0);
            assert!(pmindex::check_value(v).is_ok(), "value {v} is reserved");
        }
        // Adjacent payments never collide.
        let next = payment_history_writes(8, 1, 0, 0);
        assert!(writes
            .iter()
            .all(|&(k, _)| next.iter().all(|&(n, _)| n != k)));
    }
}
