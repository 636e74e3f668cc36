//! `els-server` — a multi-tenant TCP front door for the ELS engine.
//!
//! Puts a wire on the [`els::engine::Engine`] facade (see DESIGN.md §4i):
//!
//! * **Protocol** ([`protocol`]) — a minimal line-based SQL exchange
//!   (`HELLO` / one query per line / `OK`+rows / typed `ERR` lines),
//!   chosen over a binary framing because every rule is greppable in a
//!   packet capture and testable as pure string code.
//! * **Tenancy** ([`tenant`]) — tenant id resolved once at `HELLO`: each
//!   tenant gets its own catalog (structural isolation) and its own
//!   plan-cache lane on a shared cache (keyed isolation through
//!   `OptimizerOptions::config_fingerprint`).
//! * **Admission control** ([`admission`]) — a bounded queue between the
//!   acceptor and a fixed worker pool; a full queue rejects with a typed
//!   [`ServerError::Overloaded`] line instead of queueing unboundedly.
//! * **Graceful degradation** ([`server`]) — at the configured queue
//!   watermark, handlers serve cached plans only
//!   ([`els::engine::Engine::execute_if_cached`]) and shed the rest with
//!   `ERR shed`, sacrificing optimizer CPU before availability.
//! * **Observability** — connection/query/reject/shed counters on every
//!   [`ServerHandle`] and mirrored into the process-wide
//!   [`els_exec::MetricsRegistry`] JSON under `"server"`.
//!
//! Thread creation is confined to [`pool`], the workspace's second
//! allowlisted parallelism seam after `els-exec::scheduler`.
//!
//! ```no_run
//! use els_server::{serve, ServerConfig, Tenants, Client};
//! use std::time::Duration;
//!
//! let tenants = Tenants::isolated(&["acme"], 256).unwrap();
//! tenants.resolve("acme").unwrap(); // register tables here
//! let handle = serve("127.0.0.1:0", tenants, ServerConfig::default()).unwrap();
//! let mut c = Client::connect(handle.addr(), "acme", Duration::from_secs(5)).unwrap();
//! let reply = c.query("SELECT COUNT(*) FROM t").unwrap();
//! assert!(reply.count > 0);
//! c.quit();
//! handle.shutdown();
//! ```

// Degrade, don't panic, and print nothing (DESIGN.md §4f). scripts/check.sh
// runs clippy with `-D warnings`, so these are bans on non-test library code,
// waived only by an `#[expect(..., reason = "...")]`, never a bare `#[allow]`;
// every library crate root carries the same list (lint/tests/self_check.rs).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::todo, clippy::unimplemented, clippy::dbg_macro))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::indexing_slicing, clippy::unreachable))]
#![cfg_attr(not(test), warn(clippy::allow_attributes, clippy::allow_attributes_without_reason))]
#![deny(unsafe_code)]

pub mod admission;
pub mod client;
pub mod error;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod tenant;

pub use client::{Client, Reply};
pub use error::{ServerError, ServerResult};
pub use pool::{serve, ServerHandle};
pub use server::ServerConfig;
pub use tenant::Tenants;

#[cfg(test)]
pub(crate) mod test_support {
    /// A `Write` that keeps every byte and the size of every `write`
    /// call: how the tests count the syscalls a reply or request costs.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: Vec<usize>,
        pub(crate) bytes: Vec<u8>,
    }

    impl std::io::Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
