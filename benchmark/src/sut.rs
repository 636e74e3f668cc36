//! The system under test: built from a [`Spec`], called through one
//! `Caller` per client thread, and checked against answers that come from
//! outside the production executor.

use std::sync::Arc;
use std::time::Duration;

use els::engine::Engine;
use els_core::q_error;
use els_exec::{execute_plan_with, ExecMode};
use els_optimizer::optimize_bound;
use els_server::{serve, Client, ServerConfig, ServerHandle, Tenants};
use els_sql::{bind, parse};
use els_storage::Table;

use crate::span::{Tracer, SETUP_OP};
use crate::workloads::{table_seed, Spec, Truth, WIRE_CACHE_CAPACITY};

/// What one operation returned, reduced to what gets verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub count: u64,
    /// Row count, first and last key of a row reply (wire replies only).
    pub rows: Option<(u64, i64, i64)>,
}

/// The expected answer and the true size the estimate is judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    pub count: u64,
    pub rows: Option<(u64, i64, i64)>,
    /// `max(est/true, true/est)` of the optimizer's final size estimate.
    pub qerror: f64,
}

impl Expect {
    pub fn matches(&self, answer: &Answer) -> bool {
        self.count == answer.count && (self.rows.is_none() || self.rows == answer.rows)
    }
}

pub struct Sut {
    /// One engine, or one per tenant.
    pub engines: Vec<Arc<Engine>>,
    pub server: Option<ServerHandle>,
    /// One handshaken client per thread (wire workloads).
    pub clients: Vec<Client>,
}

pub enum Caller<'a> {
    Engine(&'a Engine),
    Wire(&'a mut Client),
}

impl Caller<'_> {
    pub fn call(&mut self, sql: &str) -> Result<Answer, String> {
        match self {
            Caller::Engine(engine) => {
                let r = engine.execute(sql).map_err(|e| e.to_string())?;
                Ok(Answer { count: r.count, rows: None })
            }
            Caller::Wire(client) => {
                let reply = client.query(sql).map_err(|e| e.to_string())?;
                let key = |row: Option<&Vec<String>>| {
                    row.and_then(|r| r.first()).and_then(|cell| cell.parse::<i64>().ok())
                };
                let rows = match (key(reply.rows.first()), key(reply.rows.last())) {
                    (Some(first), Some(last)) => Some((reply.rows.len() as u64, first, last)),
                    _ => None,
                };
                Ok(Answer { count: reply.count, rows })
            }
        }
    }
}

impl Caller<'_> {
    /// The catalog write: register a fresh table, which must publish
    /// exactly one new epoch.
    pub fn write(&mut self, table: Table) -> Result<(), String> {
        match self {
            Caller::Engine(engine) => {
                let epoch = engine.epoch();
                engine.register(table).map_err(|e| e.to_string())?;
                if engine.epoch() == epoch + 1 {
                    Ok(())
                } else {
                    Err(format!("register moved the epoch from {epoch} to {}", engine.epoch()))
                }
            }
            Caller::Wire(_) => Err("the line protocol has no write".to_string()),
        }
    }
}

impl Sut {
    /// Generate the tables, register them, and (for a wire workload) start
    /// the server and connect one client per thread. With a tracer, data
    /// generation and registration are recorded as set-up spans.
    pub fn build(spec: &Spec, mut tracer: Option<&mut Tracer>) -> Result<Sut, String> {
        let (engines, tenants): (Vec<Arc<Engine>>, _) = match &spec.tenants {
            None => (vec![Arc::new((spec.engine)())], None),
            Some(names) => {
                let tenants =
                    Tenants::isolated(names, WIRE_CACHE_CAPACITY).map_err(|e| e.to_string())?;
                (names.iter().filter_map(|n| tenants.resolve(n)).collect(), Some(tenants))
            }
        };
        for (i, (tenant, table)) in spec.tables.iter().enumerate() {
            let seed = table_seed(spec.seed, i);
            let engine = &engines[*tenant];
            match tracer.as_deref_mut() {
                None => engine.register(table.generate(seed)),
                Some(t) => {
                    let data = t.scope("storage.generate", SETUP_OP, None, || table.generate(seed));
                    t.scope("catalog.register", SETUP_OP, None, || engine.register(data))
                }
            }
            .map_err(|e| e.to_string())?;
        }
        let mut sut = Sut { engines, server: None, clients: Vec::new() };
        if let (Some(names), Some(tenants)) = (&spec.tenants, tenants) {
            let config = ServerConfig { workers: spec.threads, ..ServerConfig::default() };
            let server = serve("127.0.0.1:0", tenants, config).map_err(|e| e.to_string())?;
            for thread in 0..spec.threads {
                let tenant = names[thread % names.len()];
                let client = Client::connect(server.addr(), tenant, Duration::from_secs(30));
                match client {
                    Ok(c) => sut.clients.push(c),
                    Err(e) => {
                        server.shutdown();
                        return Err(e.to_string());
                    }
                }
            }
            sut.server = Some(server);
        }
        Ok(sut)
    }

    /// One caller per client thread.
    pub fn callers(&mut self, threads: usize) -> Vec<Caller<'_>> {
        if self.server.is_some() {
            self.clients.iter_mut().map(Caller::Wire).collect()
        } else {
            (0..threads).map(|_| Caller::Engine(&self.engines[0])).collect()
        }
    }

    /// Run every thread's warm-up texts once.
    pub fn warm_up(&mut self, spec: &Spec) -> Result<(), String> {
        for (caller, texts) in self.callers(spec.threads).iter_mut().zip(&spec.warmup) {
            for &id in texts {
                caller.call(&spec.texts[id as usize].sql)?;
            }
        }
        Ok(())
    }

    /// Stop the server and wait for its threads.
    pub fn shut_down(mut self) {
        for client in self.clients.drain(..) {
            client.quit();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// The expected answer of every text, from the text's [`Truth`], and the
/// q-error of the optimizer's final size estimate against it. Planning here
/// is a pure function of the snapshot, so the engines' caches and counters
/// are left untouched.
pub fn expectations(spec: &Spec, sut: &Sut) -> Result<Vec<Expect>, String> {
    spec.texts
        .iter()
        .map(|text| {
            let engine = &sut.engines[text.tenant];
            let snapshot = engine.snapshot();
            let catalog = snapshot.catalog();
            let ast = parse(&text.sql).map_err(|e| e.to_string())?;
            let bound = bind(&ast, catalog).map_err(|e| e.to_string())?;
            let options = engine.options().clone().with_strategy(engine.current_strategy());
            let optimized = optimize_bound(&bound, catalog, &options).map_err(|e| e.to_string())?;
            let (count, rows) = match &text.truth {
                Truth::Count(c) => (*c, None),
                Truth::Rows { n, first, last } => (*n, Some((*n, *first, *last))),
                Truth::ColumnRange { table, column, lo, hi } => {
                    let data = catalog.table_data(table).map_err(|e| e.to_string())?;
                    let values = data
                        .column_by_name(column)
                        .ok()
                        .and_then(|c| c.as_int_slice())
                        .ok_or_else(|| format!("{table}.{column} is not an integer column"))?;
                    (values.iter().filter(|v| (*lo..*hi).contains(v)).count() as u64, None)
                }
                Truth::Oracle => {
                    let tables: Vec<Arc<Table>> = bound
                        .table_names
                        .iter()
                        .map(|name| catalog.table_data(name).map_err(|e| e.to_string()))
                        .collect::<Result<_, _>>()?;
                    let out = execute_plan_with(&optimized.plan, &tables, ExecMode::RowAtATime)
                        .map_err(|e| e.to_string())?;
                    (out.count, None)
                }
            };
            // The final join size, or the scan size of a one-table query.
            let estimate = match optimized.estimated_sizes.last() {
                Some(&e) => e,
                None => optimized.els.effective_cardinality(0).map_err(|e| e.to_string())?,
            };
            Ok(Expect { count, rows, qerror: q_error(estimate, count as f64) })
        })
        .collect()
}
