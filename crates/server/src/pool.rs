//! The acceptor + fixed worker pool: the workspace's second parallelism
//! seam.
//!
//! Every thread `els-server` starts is started in this file, mirroring
//! the discipline `els-exec::scheduler` established for the first seam
//! (and which the `parallelism-seam` lint enforces): threads are named,
//! joined on shutdown, and follow one written panic policy. The policy
//! here differs from the batch scheduler's on purpose — a batch join
//! re-raises a worker panic because a truncated result would be silent
//! data loss, but a *server* worker that panicked while serving one
//! connection must isolate the blast radius: the panic is caught, the
//! connection dies, the worker keeps serving other clients. The panicking
//! query is visible as a dropped connection plus a `queries_err` bump,
//! never as a dead pool.
//!
//! Shutdown protocol (no hangs by construction):
//! 1. set the shutdown flag (workers observe it at their poll cadence),
//! 2. close the admission queue (idle workers wake and exit; queued
//!    connections drain first),
//! 3. self-connect once to unblock the acceptor's `accept()`,
//! 4. join every thread.

use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::admission::Popped;
use crate::error::{ServerError, ServerResult};
use crate::server::{
    reject_overloaded, serve_connection, ServerConfig, ServerCountersSnapshot, Shared,
};
use crate::tenant::Tenants;

/// A running front door: the listener's address plus the join handles a
/// shutdown needs. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads serving (the process
/// owns them); tests and benches should shut down explicitly.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use port 0 at bind time to get an ephemeral
    /// port and read it back here).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Point-in-time counters for this server instance.
    pub fn counters(&self) -> ServerCountersSnapshot {
        self.shared.snapshot()
    }

    /// Current admission-queue depth (the shed-mode load signal).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Stop accepting, drain, and join every thread. Idempotent in
    /// effect; bounded by the poll cadence plus in-flight query time.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Wake the acceptor out of its blocking accept(). The connection
        // itself is discarded on arrival because the flag is already set.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Bind `addr` and start serving `tenants` with `config`. Returns once
/// the listener is live; all serving happens on the spawned threads.
pub fn serve(addr: &str, tenants: Tenants, config: ServerConfig) -> ServerResult<ServerHandle> {
    let listener = TcpListener::bind(addr).map_err(|e| ServerError::Io(e.to_string()))?;
    let local = listener.local_addr().map_err(|e| ServerError::Io(e.to_string()))?;
    let shared = Arc::new(Shared::new(tenants, config));

    let mut workers = Vec::with_capacity(shared.config.workers);
    for i in 0..shared.config.workers {
        let shared_w = Arc::clone(&shared);
        let builder = std::thread::Builder::new().name(format!("els-server-worker-{i}"));
        let handle = builder
            .spawn(move || worker_loop(&shared_w))
            .map_err(|e| ServerError::Io(format!("spawning worker {i}: {e}")))?;
        workers.push(handle);
    }

    let shared_a = Arc::clone(&shared);
    let builder = std::thread::Builder::new().name("els-server-acceptor".to_string());
    let acceptor = builder
        .spawn(move || acceptor_loop(&listener, &shared_a))
        .map_err(|e| ServerError::Io(format!("spawning acceptor: {e}")))?;

    Ok(ServerHandle { shared, addr: local, acceptor: Some(acceptor), workers })
}

/// Accept until shutdown; admission control happens here, before any
/// protocol byte is read.
fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down() {
            return; // the wake-up connect (or a late client); drop it
        }
        if let Err(stream) = shared.queue.try_push(stream) {
            reject_overloaded(stream, shared);
        }
    }
}

/// Pop admitted connections and serve each to completion. A panic inside
/// one connection is contained here (see the module doc's panic policy).
fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop(shared.config.poll_interval) {
            Popped::Item(stream) => {
                let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(stream, shared)));
                if outcome.is_err() {
                    // The connection died with its panic; the pool did not.
                    shared.bump(|c| &c.queries_err);
                }
            }
            Popped::Empty => {
                if shared.shutting_down() {
                    return;
                }
            }
            Popped::Closed => return,
        }
    }
}
