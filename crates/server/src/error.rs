//! Typed errors for the front door.
//!
//! Every failure a client can observe maps to exactly one variant, and
//! every variant maps to exactly one stable wire kind (the first word
//! after `ERR`), so clients — including [`crate::client::Client`] — can
//! round-trip errors without parsing prose.

use std::fmt;

use els::engine::EngineError;

/// Everything that can go wrong between a TCP connect and a query result.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// Admission control refused the connection: the bounded in-flight
    /// queue was full. The client saw a clean `ERR overloaded` line, not
    /// a hang — retry with backoff.
    Overloaded,
    /// The server is in cached-plan-only (degraded) mode and this query's
    /// plan was not cached; it was refused rather than optimized.
    Shed,
    /// The `HELLO` named a tenant this server does not host.
    UnknownTenant(String),
    /// The client broke the line protocol (missing `HELLO`, oversized
    /// line, bad escape).
    Protocol(String),
    /// The engine rejected or failed the query (parse, catalog,
    /// optimizer, executor) — carried through with its classification.
    Engine(EngineError),
    /// Transport failure (read/write on the socket).
    Io(String),
}

impl ServerError {
    /// The stable one-word kind used on the wire: `ERR <kind> <message>`.
    pub(crate) fn wire_kind(&self) -> &'static str {
        match self {
            ServerError::Overloaded => "overloaded",
            ServerError::Shed => "shed",
            ServerError::UnknownTenant(_) => "unknown-tenant",
            ServerError::Protocol(_) => "protocol",
            ServerError::Engine(EngineError::Sql(_)) => "sql",
            ServerError::Engine(EngineError::Catalog(_)) => "catalog",
            ServerError::Engine(EngineError::Optimizer(_)) => "optimizer",
            ServerError::Engine(EngineError::Exec(_)) => "exec",
            ServerError::Io(_) => "io",
        }
    }

    /// Rebuild a typed error from a wire `(kind, message)` pair — the
    /// client-side inverse of [`ServerError::wire_kind`]. Unknown kinds
    /// collapse to [`ServerError::Protocol`].
    pub(crate) fn from_wire(kind: &str, message: &str) -> ServerError {
        match kind {
            "overloaded" => ServerError::Overloaded,
            "shed" => ServerError::Shed,
            "unknown-tenant" => ServerError::UnknownTenant(message.to_string()),
            "protocol" => ServerError::Protocol(message.to_string()),
            "sql" => ServerError::Engine(EngineError::Sql(message.to_string())),
            "catalog" => ServerError::Engine(EngineError::Catalog(message.to_string())),
            "optimizer" => ServerError::Engine(EngineError::Optimizer(message.to_string())),
            "exec" => ServerError::Engine(EngineError::Exec(message.to_string())),
            "io" => ServerError::Io(message.to_string()),
            other => ServerError::Protocol(format!("unknown error kind `{other}`: {message}")),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Overloaded => {
                write!(f, "server overloaded: admission queue full, retry with backoff")
            }
            ServerError::Shed => {
                write!(f, "degraded mode: serving cached plans only, query not cached")
            }
            ServerError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            ServerError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServerError::Engine(e) => write!(f, "{e}"),
            ServerError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e.to_string())
    }
}

/// Result alias for this crate.
pub type ServerResult<T> = Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_kinds_round_trip() {
        let cases = [
            ServerError::Overloaded,
            ServerError::Shed,
            ServerError::UnknownTenant("acme".into()),
            ServerError::Protocol("bad hello".into()),
            ServerError::Engine(EngineError::Sql("parse".into())),
            ServerError::Engine(EngineError::Catalog("dup".into())),
            ServerError::Engine(EngineError::Optimizer("boom".into())),
            ServerError::Engine(EngineError::Exec("oom".into())),
            ServerError::Io("reset".into()),
        ];
        for e in cases {
            let kind = e.wire_kind();
            let back = ServerError::from_wire(kind, &message_of(&e));
            assert_eq!(back.wire_kind(), kind, "{e:?} -> {back:?}");
        }
        assert!(matches!(ServerError::from_wire("nonsense", "x"), ServerError::Protocol(_)));
    }

    fn message_of(e: &ServerError) -> String {
        match e {
            ServerError::UnknownTenant(m) | ServerError::Protocol(m) | ServerError::Io(m) => {
                m.clone()
            }
            ServerError::Engine(
                EngineError::Sql(m)
                | EngineError::Catalog(m)
                | EngineError::Optimizer(m)
                | EngineError::Exec(m),
            ) => m.clone(),
            _ => String::new(),
        }
    }
}
