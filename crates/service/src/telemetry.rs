//! Per-tenant telemetry: [`Counter`] / [`Gauge`] handles and one
//! [`SharedStats`] traffic accumulator behind a registry with a
//! consistent-enough `snapshot()` → rows API.
//!
//! The metric primitives themselves live in [`buddy_obs::metrics`] — the
//! **only** crate allowed to own raw atomics for metrics (enforced by the
//! `raw-atomic-metric` xtask lint), so there is exactly one place that
//! centralizes the memory-ordering argument. This module re-exports them
//! and layers the tenant dimension on top: which counters exist per
//! tenant, and how they roll up into [`TenantRow`]s.
//!
//! Hot paths never take a lock: the service holds an
//! `Arc<TenantTelemetry>` per tenant and bumps its atomics directly. The
//! registry's internal mutex guards only tenant *registration* and
//! snapshot iteration — both cold.
//!
//! Counter values race their readers by design: a snapshot taken while
//! writers are active may split one logical update (e.g. observe an alloc
//! count without its bytes). Totals are exact once writers are quiescent,
//! the same contract as [`BuddyPool::stats`](buddy_pool::BuddyPool::stats).

pub use buddy_obs::{Counter, Gauge};

use buddy_core::sync::{Mutex, MutexGuard};
use buddy_core::{AccessStats, SharedStats};
use std::sync::Arc;

/// The full metric surface of one tenant. All fields are updated lock-free
/// by the service hot paths and read by [`TelemetryRegistry::snapshot`].
#[derive(Debug, Default)]
pub struct TenantTelemetry {
    /// Successful allocations admitted (demoted ones included).
    pub allocs: Counter,
    /// Successful frees.
    pub frees: Counter,
    /// Admission rejections (quota or capacity, after any demotion search).
    pub rejections: Counter,
    /// Admissions granted at a lower target than requested.
    pub demotions: Counter,
    /// Ownership transfers (counted on both sides).
    pub transfers: Counter,
    /// Operations denied because the handle belongs to another tenant.
    pub cross_tenant_denials: Counter,

    /// Traffic attributed to the tenant: the per-batch deltas of its
    /// entry I/O plus its real retarget migrations.
    pub traffic: SharedStats,

    /// Compressed device bytes currently charged against the quota.
    pub used_bytes: Gauge,
    /// The tenant's quota in compressed device bytes.
    pub quota_bytes: Gauge,
    /// Uncompressed bytes represented by the tenant's live allocations.
    pub logical_bytes: Gauge,
    /// Live allocations.
    pub allocations: Gauge,
}

/// One row of a telemetry snapshot: everything the `service-report` bin
/// prints about a tenant.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Admission rejections.
    pub rejections: u64,
    /// Demoted admissions.
    pub demotions: u64,
    /// Ownership transfers.
    pub transfers: u64,
    /// Cross-tenant denials.
    pub cross_tenant_denials: u64,
    /// Compressed device bytes charged.
    pub used_bytes: u64,
    /// Quota in compressed device bytes.
    pub quota_bytes: u64,
    /// Quota headroom (`quota − used`, saturating).
    pub quota_headroom: u64,
    /// Uncompressed bytes represented.
    pub logical_bytes: u64,
    /// Live allocations.
    pub allocations: u64,
    /// Traffic counters.
    pub stats: AccessStats,
}

impl TenantRow {
    /// Effective compression ratio of the tenant's live footprint
    /// (`logical / used`; 1.0 when nothing is charged).
    pub fn effective_ratio(&self) -> f64 {
        if self.used_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.used_bytes as f64
    }
}

/// Registry of per-tenant telemetry. Registration and snapshots lock; the
/// returned [`TenantTelemetry`] handles are updated lock-free.
#[derive(Debug, Default)]
pub struct TelemetryRegistry {
    tenants: Mutex<Vec<(String, Arc<TenantTelemetry>)>>,
}

impl TelemetryRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the tenant list, recovering from poisoning (telemetry is
    /// plain data; a panicked registrant leaves it structurally valid).
    fn list(&self) -> MutexGuard<'_, Vec<(String, Arc<TenantTelemetry>)>> {
        match self.tenants.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a tenant and returns its metric handle.
    pub fn register(&self, name: &str) -> Arc<TenantTelemetry> {
        let telemetry = Arc::new(TenantTelemetry::default());
        self.list().push((name.to_string(), Arc::clone(&telemetry)));
        telemetry
    }

    /// Registered tenant count.
    pub fn len(&self) -> usize {
        self.list().len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.list().is_empty()
    }

    /// One row per tenant, in registration order.
    pub fn snapshot(&self) -> Vec<TenantRow> {
        self.list()
            .iter()
            .map(|(name, t)| {
                let used = t.used_bytes.get();
                let quota = t.quota_bytes.get();
                TenantRow {
                    name: name.clone(),
                    allocs: t.allocs.get(),
                    frees: t.frees.get(),
                    rejections: t.rejections.get(),
                    demotions: t.demotions.get(),
                    transfers: t.transfers.get(),
                    cross_tenant_denials: t.cross_tenant_denials.get(),
                    used_bytes: used,
                    quota_bytes: quota,
                    quota_headroom: quota.saturating_sub(used),
                    logical_bytes: t.logical_bytes.get(),
                    allocations: t.allocations.get(),
                    stats: t.traffic.snapshot(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn snapshot_reports_headroom_and_ratio() {
        let registry = TelemetryRegistry::new();
        let t = registry.register("tenant-a");
        t.quota_bytes.set(1000);
        t.used_bytes.set(250);
        t.logical_bytes.set(500);
        let rows = registry.snapshot();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "tenant-a");
        assert_eq!(rows[0].quota_headroom, 750);
        assert!((rows[0].effective_ratio() - 2.0).abs() < 1e-9);
        // Over-quota states saturate instead of wrapping.
        t.used_bytes.set(2000);
        assert_eq!(registry.snapshot()[0].quota_headroom, 0);
    }

    #[test]
    fn updates_from_many_threads_all_land() {
        let registry = TelemetryRegistry::new();
        let t = registry.register("hot");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        t.allocs.incr();
                    }
                });
            }
        });
        assert_eq!(registry.snapshot()[0].allocs, 40_000);
    }
}
