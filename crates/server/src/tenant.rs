//! Per-tenant namespaces over one process.
//!
//! A tenant is a name bound at `HELLO` time to its own [`Engine`]: its own
//! [`els_catalog::SharedCatalog`] (tenant A literally has no handle to
//! B's tables) and its own plan-cache *lane*. The engines share one
//! [`PlanCache`] budget — eviction pressure is global, as in a real
//! multi-tenant box — but every cache key is salted with the tenant's
//! lane through [`els::optimizer::OptimizerOptions::config_fingerprint`],
//! so byte-identical SQL from two tenants can never replay each other's
//! plans. Isolation is therefore structural (separate catalogs) plus
//! cryptographic-by-keying (lanes), not filtering.

use std::collections::BTreeMap;
use std::sync::Arc;

use els::engine::Engine;
use els_optimizer::PlanCache;

use crate::error::{ServerError, ServerResult};

/// A tenant name: non-empty ASCII alphanumerics plus `-`/`_`. Rejecting
/// everything else keeps names unambiguous on the line protocol.
pub(crate) fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// The immutable tenant registry a server is constructed with.
pub struct Tenants {
    engines: BTreeMap<String, Arc<Engine>>,
}

impl Tenants {
    /// An empty registry.
    pub(crate) fn new() -> Tenants {
        Tenants { engines: BTreeMap::new() }
    }

    /// Register `name` with an engine the caller configured. Returns a
    /// typed error on invalid or duplicate names.
    pub(crate) fn add(mut self, name: &str, engine: Arc<Engine>) -> ServerResult<Tenants> {
        if !valid_tenant_name(name) {
            return Err(ServerError::Protocol(format!("invalid tenant name `{name}`")));
        }
        if self.engines.contains_key(name) {
            return Err(ServerError::Protocol(format!("duplicate tenant `{name}`")));
        }
        self.engines.insert(name.to_string(), engine);
        Ok(self)
    }

    /// Build a lane-isolated registry: one shared plan cache of
    /// `cache_capacity` entries, one engine per name, each in its own
    /// lane (1-based, in name order). This is the standard multi-tenant
    /// shape; callers register tables per tenant via [`Tenants::resolve`].
    pub fn isolated(names: &[&str], cache_capacity: usize) -> ServerResult<Tenants> {
        let cache = Arc::new(PlanCache::new(cache_capacity));
        let mut tenants = Tenants::new();
        for (i, name) in names.iter().enumerate() {
            let engine = Engine::new().shared_cache(Arc::clone(&cache)).plan_lane(i as u64 + 1);
            tenants = tenants.add(name, Arc::new(engine))?;
        }
        Ok(tenants)
    }

    /// The engine serving `name`, if hosted here.
    pub fn resolve(&self, name: &str) -> Option<Arc<Engine>> {
        self.engines.get(name).map(Arc::clone)
    }
}

impl Default for Tenants {
    fn default() -> Self {
        Tenants::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use els::storage::datagen::{ColumnSpec, Distribution, TableSpec};

    #[test]
    fn names_are_validated_and_deduplicated() {
        assert!(valid_tenant_name("acme-1_x"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name("has space"));
        assert!(!valid_tenant_name("evil\ttenant"));
        let t = Tenants::new().add("a", Arc::new(Engine::new())).expect("first");
        assert!(t.add("a", Arc::new(Engine::new())).is_err(), "duplicate must fail");
    }

    #[test]
    fn isolated_tenants_have_disjoint_catalogs_and_lanes() {
        let tenants = Tenants::isolated(&["alpha", "beta"], 32).expect("build");
        assert_eq!(tenants.engines.keys().collect::<Vec<_>>(), ["alpha", "beta"]);
        let alpha = tenants.resolve("alpha").expect("alpha");
        let beta = tenants.resolve("beta").expect("beta");
        assert!(tenants.resolve("gamma").is_none());
        // Distinct lanes -> distinct fingerprints for identical options.
        assert_ne!(
            alpha.options().config_fingerprint(),
            beta.options().config_fingerprint(),
            "tenant lanes must salt the plan-cache key"
        );
        // Disjoint catalogs: alpha's table does not exist for beta.
        alpha
            .generate(
                TableSpec::new("private", 10)
                    .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                1,
            )
            .expect("register");
        assert_eq!(alpha.execute("SELECT COUNT(*) FROM private").expect("alpha sees it").count, 10);
        assert!(beta.execute("SELECT COUNT(*) FROM private").is_err(), "beta must not");
    }

    #[test]
    fn identical_bytes_never_cross_lanes_through_the_text_path() {
        let tenants = Tenants::isolated(&["alpha", "beta"], 32).expect("build");
        let alpha = tenants.resolve("alpha").expect("alpha");
        let beta = tenants.resolve("beta").expect("beta");
        // Same table name, different contents: a plan served across lanes
        // would still count right, so watch the hits instead.
        for (engine, rows) in [(&alpha, 10), (&beta, 20)] {
            engine
                .generate(
                    TableSpec::new("t", rows)
                        .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 })),
                    1,
                )
                .expect("register");
        }
        let sql = "SELECT COUNT(*) FROM t WHERE k < 15";
        for round in 0..3 {
            for (engine, count) in [(&alpha, 10), (&beta, 15)] {
                let r = engine.execute(sql).expect("execute");
                assert_eq!(r.count, count);
                // Alpha's alias for these bytes is no name for beta's plan:
                // beta's first send must plan for itself.
                assert_eq!(r.cache_hit, round > 0, "round {round}");
            }
        }
        assert_eq!(alpha.plan_cache().len(), 2, "one shared cache, one entry per lane");
        let stats = alpha.cache_stats();
        assert_eq!((stats.hits, stats.misses), (4, 2));
    }
}
