//! The five workloads. Each is a pure function of the seed: table data,
//! query constants, spellings, popularity draws and order all come from
//! it, and the engine only ever sees the generated tables and SQL text.

use els::engine::Engine;
use els_exec::ExecMode;
use els_optimizer::OptimizerOptions;
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const NAMES: [&str; 5] =
    ["plan_cold", "exec_join", "cached_point", "cache_churn", "wire_mixed"];

/// Why each workload exists, in [`NAMES`] order (one line each, shown in
/// `BENCHMARK.json`).
pub const WHY: [&str; 5] = [
    "cache off, 6-10-table bushy queries: over 90% of the time is estimator prepare and DP enumeration, the paper's hot loop; control for cache and executor work",
    "cached plans over 50k-400k-row joins, scans and a band join with 2 exec workers: over 99% of the time is els-exec; control for front-end and optimizer work",
    "2 threads, tiny tables, 100% plan-cache hits in two spellings: lexer, parser, fingerprint, snapshot and the cache mutex dominate; control for everything below the cache",
    "Zipf-popular texts over a 256-entry cache plus a catalog write every 4096 operations: misses, inserts, evictions, invalidations and re-planning, the cache's write paths",
    "2 clients over loopback, 70% counts, 25% 100-row and 5% 1000-row replies: admission, line framing, per-row encode and client decode dominate; the only path through els-server",
];

/// A stream entry that is the catalog write instead of a query.
pub const WRITE: u32 = u32::MAX;

/// How the right answer to a query text is known without asking the
/// engine's production executor.
#[derive(Debug, Clone, PartialEq)]
pub enum Truth {
    /// Follows from the constants alone (sequential keys).
    Count(u64),
    /// A row reply: row count, first and last key.
    Rows { n: u64, first: i64, last: i64 },
    /// Rows of `table` whose `column` lies in `lo..hi`, counted straight
    /// from the generated column.
    ColumnRange { table: &'static str, column: &'static str, lo: i64, hi: i64 },
    /// The same plan run once by the row-at-a-time reference executor.
    Oracle,
}

#[derive(Debug, Clone)]
pub struct Text {
    pub sql: String,
    /// Which tenant's tables the text addresses (0 for in-process runs).
    pub tenant: usize,
    pub truth: Truth,
    /// Groups texts for per-template reporting (`exec_join` only).
    pub template: usize,
}

pub struct Spec {
    pub name: &'static str,
    pub seed: u64,
    /// Client threads; every workload is a closed loop.
    pub threads: usize,
    /// `Some(names)`: one engine per tenant behind `els-server`, reached
    /// over loopback. `None`: one engine called in-process.
    pub tenants: Option<Vec<&'static str>>,
    pub engine: fn() -> Engine,
    /// The mode `engine` executes plans in (its field is private).
    pub mode: ExecMode,
    /// `(tenant, table)`; table `i` is generated with `table_seed(seed, i)`.
    pub tables: Vec<(usize, TableSpec)>,
    pub texts: Vec<Text>,
    /// One operation stream per client thread, cycled until the window
    /// ends: indices into `texts`, or [`WRITE`].
    pub streams: Vec<Vec<u32>>,
    /// Texts each thread runs once before the window opens.
    pub warmup: Vec<Vec<u32>>,
    /// Operations of stream 0 the traced run replays.
    pub trace_ops: usize,
}

pub fn table_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(index as u64 * 7919 + 1)
}

fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The second spelling of a text: lower-case keywords, doubled blanks.
fn respell(sql: &str) -> String {
    let mut out = sql.to_string();
    for kw in ["SELECT", "COUNT", "FROM", "WHERE", "AND"] {
        out = out.replace(kw, &kw.to_lowercase());
    }
    out.replace(' ', "  ")
}

fn int_table(name: &str, rows: usize, columns: &[(&str, Distribution)]) -> TableSpec {
    columns.iter().fold(TableSpec::new(name, rows), |spec, (col, dist)| {
        spec.column(ColumnSpec::new(*col, dist.clone()))
    })
}

/// The paper's Section 8 schema: sequential join keys over one domain and
/// a uniform payload column.
fn section8(sizes: [usize; 4]) -> Vec<(usize, TableSpec)> {
    [("S", "s"), ("M", "m"), ("B", "b"), ("G", "g")]
        .iter()
        .zip(sizes)
        .map(|((table, key), rows)| {
            let spec = int_table(
                table,
                rows,
                &[
                    (key, Distribution::SequentialInt { start: 0 }),
                    ("payload", Distribution::UniformInt { lo: 0, hi: 999_999 }),
                ],
            );
            (0, spec)
        })
        .collect()
}

pub fn spec(name: &str, seed: u64, quick: bool) -> Option<Spec> {
    let mut spec = match name {
        "plan_cold" => plan_cold(seed),
        "exec_join" => exec_join(seed),
        "cached_point" => cached_point(seed),
        "cache_churn" => cache_churn(seed),
        "wire_mixed" => wire_mixed(seed),
        _ => return None,
    };
    if quick {
        spec.trace_ops = (spec.trace_ops / 10).max(1);
    }
    Some(spec)
}

// ---------------------------------------------------------------- plan_cold

const PLAN_COLD_SIZES: [usize; 4] = [200, 2_000, 10_000, 20_000];
const PLAN_COLD_ROUNDS: usize = 8;

fn plan_cold_engine() -> Engine {
    let options =
        OptimizerOptions::default().with_bushy_trees().with_hash_join().with_index_nested_loop();
    Engine::with_options(options).cache_capacity(0)
}

/// An `n`-table chain or star over aliases `t0..`, cycling S, M, B, G, with
/// `t0.s < cut` and a lower bound `lo` on the far-end table's key.
fn plan_cold_text(n: usize, star: bool, cut: u64, lo: u64) -> Text {
    const BASES: [(&str, &str); 4] = [("S", "s"), ("M", "m"), ("B", "b"), ("G", "g")];
    let base = |i: usize| BASES[i % 4];
    let from: Vec<String> = (0..n).map(|i| format!("{} t{i}", base(i).0)).collect();
    let mut preds: Vec<String> = (1..n)
        .map(|i| {
            let left = if star { 0 } else { i - 1 };
            format!("t{left}.{} = t{i}.{}", base(left).1, base(i).1)
        })
        .collect();
    preds.push(format!("t0.s < {cut}"));
    preds.push(format!("t{}.{} >= {lo}", n - 1, base(n - 1).1));
    Text {
        sql: format!("SELECT COUNT(*) FROM {} WHERE {}", from.join(", "), preds.join(" AND ")),
        tenant: 0,
        // Keys are sequential over one domain, so the join keeps exactly
        // the keys of S inside lo..cut.
        truth: Truth::Count(cut.min(PLAN_COLD_SIZES[0] as u64) - lo),
        template: n,
    }
}

fn plan_cold(seed: u64) -> Spec {
    let mut r = rng(seed, 1);
    let mut texts = Vec::new();
    for _ in 0..PLAN_COLD_ROUNDS {
        // 6 six-table, 8 eight-table, 2 ten-table; chains and stars alternate.
        let mut round: Vec<Text> = [6usize; 6]
            .iter()
            .chain([8usize; 8].iter())
            .chain([10usize; 2].iter())
            .enumerate()
            .map(|(i, &n)| {
                let cut = r.gen_range(80..=200);
                let lo = r.gen_range(0..=40);
                plan_cold_text(n, i % 2 == 1, cut, lo)
            })
            .collect();
        shuffle(&mut round, &mut r);
        texts.extend(round);
    }
    let stream: Vec<u32> = (0..texts.len() as u32).collect();
    Spec {
        name: "plan_cold",
        seed,
        threads: 1,
        tenants: None,
        engine: plan_cold_engine,
        mode: ExecMode::default(),
        tables: section8(PLAN_COLD_SIZES),
        warmup: vec![stream[..16].to_vec()],
        streams: vec![stream],
        texts,
        trace_ops: 256,
    }
}

// ---------------------------------------------------------------- exec_join

const EXEC_JOIN_SIZES: [usize; 4] = [1_000, 10_000, 50_000, 100_000];
const F_ROWS: usize = 400_000;
const D_ROWS: usize = 20_000;
pub const EXEC_JOIN_TEMPLATES: [&str; 8] = [
    "m_join_g",
    "b_join_g",
    "g_filter_scan",
    "chain4",
    "band_s_m",
    "f_join_d_filtered",
    "f_join_d_full",
    "f_join_d_rows",
];

fn exec_join_engine() -> Engine {
    Engine::with_options(OptimizerOptions::default().with_hash_join()).exec_workers(2)
}

fn exec_join(seed: u64) -> Spec {
    let mut r = rng(seed, 2);
    let mut tables = section8(EXEC_JOIN_SIZES);
    tables.push((
        0,
        int_table(
            "F",
            F_ROWS,
            &[
                ("fk", Distribution::ZipfInt { n: D_ROWS as u64, theta: 1.0, start: 0 }),
                ("v", Distribution::UniformInt { lo: 0, hi: 999_999 }),
            ],
        ),
    ));
    tables.push((
        0,
        int_table(
            "D",
            D_ROWS,
            &[
                ("d", Distribution::SequentialInt { start: 0 }),
                ("w", Distribution::UniformInt { lo: 0, hi: 999_999 }),
            ],
        ),
    ));
    let below = |table, column, hi| Truth::ColumnRange { table, column, lo: i64::MIN, hi };
    let mut texts = Vec::new();
    for template in 0..EXEC_JOIN_TEMPLATES.len() {
        // `M ⋈ G` gets twice the texts, so that the median operation lies
        // inside one template's latencies and not between two templates'.
        for _ in 0..if template == 0 { 8 } else { 4 } {
            // Filters that keep 80-90 % of the rows.
            let most = r.gen_range(800_000..=900_000i64);
            let (sql, truth) = match template {
                0 => (
                    format!("SELECT COUNT(*) FROM M, G WHERE m = g AND M.payload < {most}"),
                    below("M", "payload", most),
                ),
                1 => (
                    format!("SELECT COUNT(*) FROM B, G WHERE b = g AND B.payload < {most}"),
                    below("B", "payload", most),
                ),
                2 => (
                    format!("SELECT COUNT(*) FROM G WHERE payload < {most}"),
                    below("G", "payload", most),
                ),
                3 => {
                    let cut = r.gen_range(800..=1_000u64);
                    (
                        format!(
                            "SELECT COUNT(*) FROM S, M, B, G \
                             WHERE s = m AND m = b AND b = g AND s < {cut}"
                        ),
                        Truth::Count(cut),
                    )
                }
                4 => {
                    // Pairs (s, m) with s < m < c: each m below c meets the
                    // min(m, ||S||) keys of S under it. The optimizer runs
                    // this as a nested loop (170 ms at c = 2 000), so c keeps
                    // it near the other templates' cost.
                    let c = r.gen_range(98..=102u64);
                    let s_rows = EXEC_JOIN_SIZES[0] as u64;
                    (
                        format!("SELECT COUNT(*) FROM S, M WHERE s < m AND m < {c}"),
                        Truth::Count((0..c).map(|m| m.min(s_rows)).sum()),
                    )
                }
                5 => {
                    // Half of D's keys, which hold most of F's skewed rows.
                    let c = r.gen_range(9_000..=11_000i64);
                    (
                        format!("SELECT COUNT(*) FROM F, D WHERE fk = d AND D.d < {c}"),
                        below("F", "fk", c),
                    )
                }
                6 => (
                    format!("SELECT COUNT(*) FROM F, D WHERE fk = d AND F.v < {most}"),
                    below("F", "v", most),
                ),
                _ => {
                    // Five keys where the Zipf frequency is near F's average
                    // of 20 rows a key: about a hundred rows out.
                    let lo = r.gen_range(1_850..=1_950i64);
                    (
                        format!("SELECT * FROM F, D WHERE fk = d AND d >= {lo} AND d < {}", lo + 5),
                        Truth::ColumnRange { table: "F", column: "fk", lo, hi: lo + 5 },
                    )
                }
            };
            texts.push(Text { sql, tenant: 0, truth, template });
        }
    }
    let all: Vec<u32> = (0..texts.len() as u32).collect();
    let mut stream = Vec::new();
    for _ in 0..64 {
        let mut round = all.clone();
        shuffle(&mut round, &mut r);
        stream.extend(round);
    }
    Spec {
        name: "exec_join",
        seed,
        threads: 1,
        tenants: None,
        engine: exec_join_engine,
        mode: ExecMode::Vectorized { workers: 2 },
        tables,
        warmup: vec![all],
        streams: vec![stream],
        texts,
        trace_ops: 720,
    }
}

// ------------------------------------------------------------- cached_point

fn cached_point(seed: u64) -> Spec {
    let mut r = rng(seed, 3);
    let key = [("k", Distribution::SequentialInt { start: 0 })];
    let tables = vec![(0, int_table("a", 64, &key)), (0, int_table("b", 256, &key))];
    let mut canonical = Vec::new();
    for i in 0..56 {
        let (table, rows) = if i % 2 == 0 { ("a", 64u64) } else { ("b", 256) };
        // Distinct constants, so each text is its own cache entry.
        let c = 1 + (i as u64 / 2) * (rows / 28) + r.gen_range(0..rows / 28);
        canonical.push((
            format!("SELECT COUNT(*) FROM {table} WHERE k < {c}"),
            Truth::Count(c.min(rows)),
        ));
    }
    // The joins all keep 20-35 rows: one cluster of similar cost at the top
    // of the latency distribution, wide enough (an eighth of the
    // operations) that p99 lies inside it whatever the seed.
    for i in 0..8u64 {
        let c = 20 + i * 2 + r.gen_range(0..2u64);
        canonical.push((
            format!("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.k < {c}"),
            Truth::Count(c),
        ));
    }
    let mut texts = Vec::new();
    for (sql, truth) in canonical {
        texts.push(Text { sql: respell(&sql), tenant: 0, truth: truth.clone(), template: 0 });
        texts.push(Text { sql, tenant: 0, truth, template: 0 });
    }
    let all: Vec<u32> = (0..texts.len() as u32).collect();
    let streams =
        (0..2).map(|_| (0..65_536).map(|_| r.gen_range(0..texts.len() as u32)).collect()).collect();
    Spec {
        name: "cached_point",
        seed,
        threads: 2,
        tenants: None,
        engine: Engine::new,
        mode: ExecMode::default(),
        tables,
        warmup: vec![all, Vec::new()],
        streams,
        texts,
        trace_ops: 20_000,
    }
}

// -------------------------------------------------------------- cache_churn

pub const CHURN_WRITE_EVERY: usize = 4_096;
pub const CHURN_TABLE_ROWS: usize = 2_000;
const CHURN_TEXTS: usize = 1_024;
const CHURN_KEYS: u64 = 4;

fn cache_churn_engine() -> Engine {
    Engine::new().cache_capacity(256)
}

/// The table a catalog write registers: fresh name, fixed shape.
pub fn churn_table(seed: u64, index: usize) -> els_storage::Table {
    int_table(
        &format!("churn_{index}"),
        CHURN_TABLE_ROWS,
        &[
            ("j", Distribution::ZipfInt { n: 1_000, theta: 0.5, start: 0 }),
            ("f", Distribution::UniformInt { lo: 0, hi: 999 }),
        ],
    )
    .generate(table_seed(seed, 1_000 + index))
}

fn cache_churn(seed: u64) -> Spec {
    let mut r = rng(seed, 4);
    // Join key `k` cycles over CHURN_KEYS values and `id` is sequential, so
    // `id < c` keeps c / CHURN_KEYS rows of every key: join sizes follow
    // from the constants and the estimates are steady from seed to seed.
    // `f` is seeded ballast for statistics collection.
    let tables: Vec<(usize, TableSpec)> = (0..6)
        .map(|i| {
            let spec = int_table(
                &format!("c{i}"),
                256,
                &[
                    ("id", Distribution::SequentialInt { start: 0 }),
                    ("k", Distribution::CycleInt { modulus: CHURN_KEYS, start: 0 }),
                    ("f", Distribution::UniformInt { lo: 0, hi: 999 }),
                ],
            );
            (0, spec)
        })
        .collect();
    let mut texts = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    while texts.len() < CHURN_TEXTS {
        // Popularity rank fixes the shape (3, 4, 5 tables in turn, chains
        // and stars alternating), so the hot texts cost the same whatever
        // the seed; the seed picks the tables, their order and the constants.
        let (n, star) = (3 + texts.len() % 3, texts.len() % 2 == 1);
        let mut picks: Vec<usize> = (0..6).collect();
        shuffle(&mut picks, &mut r);
        picks.truncate(n);
        let from: Vec<String> = picks.iter().map(|t| format!("c{t}")).collect();
        let mut preds: Vec<String> = (1..n)
            .map(|i| {
                let left = if star { 0 } else { i - 1 };
                format!("c{}.k = c{}.k", picks[left], picks[i])
            })
            .collect();
        // Three to four rows of every key from each table.
        for t in &picks {
            preds.push(format!("c{t}.id < {}", r.gen_range(3 * CHURN_KEYS..=4 * CHURN_KEYS)));
        }
        let sql = format!("SELECT COUNT(*) FROM {} WHERE {}", from.join(", "), preds.join(" AND "));
        if seen.insert(sql.clone()) {
            texts.push(Text { sql, tenant: 0, truth: Truth::Oracle, template: n });
        }
    }
    let popularity = ZipfSampler::new(CHURN_TEXTS as u64, 1.0);
    let stream: Vec<u32> = (0..65_536)
        .map(|i| {
            if i % CHURN_WRITE_EVERY == CHURN_WRITE_EVERY - 1 {
                WRITE
            } else {
                popularity.sample(&mut r) as u32
            }
        })
        .collect();
    // Warm the cache with the first stretch of the stream itself.
    let warmup = stream[..2_048].iter().copied().filter(|&op| op != WRITE).collect();
    Spec {
        name: "cache_churn",
        seed,
        threads: 1,
        tenants: None,
        engine: cache_churn_engine,
        mode: ExecMode::default(),
        tables,
        warmup: vec![warmup],
        streams: vec![stream],
        texts,
        trace_ops: 3 * CHURN_WRITE_EVERY,
    }
}

// --------------------------------------------------------------- wire_mixed

pub const WIRE_TENANTS: [&str; 2] = ["alpha", "beta"];
pub const WIRE_CACHE_CAPACITY: usize = 256;
const WIRE_ROWS: [usize; 2] = [4_000, 2_000];

fn wire_mixed(seed: u64) -> Spec {
    let mut r = rng(seed, 5);
    let tables = WIRE_ROWS
        .iter()
        .enumerate()
        .map(|(tenant, &rows)| {
            let spec = int_table(
                "t",
                rows,
                &[
                    ("k", Distribution::SequentialInt { start: 0 }),
                    ("p", Distribution::UniformInt { lo: 0, hi: 999_999 }),
                ],
            );
            (tenant, spec)
        })
        .collect();
    let mut texts = Vec::new();
    let mut streams = Vec::new();
    let mut warmup = Vec::new();
    for (tenant, &rows) in WIRE_ROWS.iter().enumerate() {
        let rows = rows as i64;
        let first = texts.len() as u32;
        // 64 counts, 32 hundred-row replies, 8 thousand-row replies per
        // tenant: 208 cache entries in all, under the shared capacity.
        for _ in 0..64 {
            let lo = r.gen_range(0..rows - 1);
            let hi = r.gen_range(lo + 1..=rows);
            texts.push(Text {
                sql: format!("SELECT COUNT(*) FROM t WHERE k >= {lo} AND k < {hi}"),
                tenant,
                truth: Truth::Count((hi - lo) as u64),
                template: 0,
            });
        }
        for (template, width, variants) in [(1usize, 100i64, 32), (2, 1_000, 8)] {
            for _ in 0..variants {
                let lo = r.gen_range(0..=rows - width);
                texts.push(Text {
                    sql: format!("SELECT * FROM t WHERE k >= {lo} AND k < {}", lo + width),
                    tenant,
                    truth: Truth::Rows { n: width as u64, first: lo, last: lo + width - 1 },
                    template,
                });
            }
        }
        warmup.push((first..texts.len() as u32).collect());
        // 70 % counts, 25 % hundred-row replies, 5 % thousand-row replies.
        let stream = (0..16_384)
            .map(|_| {
                let u: f64 = r.gen();
                first
                    + if u < 0.70 {
                        r.gen_range(0..64u32)
                    } else if u < 0.95 {
                        64 + r.gen_range(0..32u32)
                    } else {
                        96 + r.gen_range(0..8u32)
                    }
            })
            .collect();
        streams.push(stream);
    }
    Spec {
        name: "wire_mixed",
        seed,
        threads: 2,
        tenants: Some(WIRE_TENANTS.to_vec()),
        engine: Engine::new,
        mode: ExecMode::default(),
        tables,
        texts,
        streams,
        warmup,
        trace_ops: 3_000,
    }
}

/// A hash of everything the engine will be shown, in order: the identity
/// of a generated workload.
pub fn sequence_hash(spec: &Spec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for text in &spec.texts {
        eat(text.sql.as_bytes());
        eat(&[0xff]);
    }
    for stream in &spec.streams {
        for op in stream {
            eat(&op.to_le_bytes());
        }
    }
    h
}
