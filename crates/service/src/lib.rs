//! Multi-tenant service layer over the Buddy-Compression pool: per-tenant
//! capacity quotas, admission control, ownership-checked handles, lock-free
//! telemetry, and an open-loop overload harness.
//!
//! Buddy Compression's value is letting a fixed device-memory budget serve
//! more than it physically holds (Choukse et al., ISCA 2020). Once that
//! budget is shared by many users, someone has to decide *who* gets the
//! compressed capacity when demand exceeds supply — this crate is that
//! layer (DESIGN.md §11):
//!
//! * [`BuddyService`] fronts one [`BuddyPool`] for N registered tenants.
//!   Every allocation is charged against its tenant's quota in
//!   **compressed device bytes** (`entries × target bytes-per-entry`) —
//!   the resource that is actually scarce — and every handle is
//!   generational and ownership-checked: a tenant cannot free, read,
//!   write, retarget or transfer another tenant's allocation, and a stale
//!   handle (freed, or invalidated by an ownership transfer) fails every
//!   operation with [`ServiceError::BadHandle`].
//! * [`AdmissionPolicy`] decides what happens on quota breach:
//!   [`Reject`](AdmissionPolicy::Reject) returns a typed
//!   [`ServiceError::QuotaExceeded`], while
//!   [`Demote`](AdmissionPolicy::Demote) walks the
//!   [`TargetRatio::DESCENDING`] ladder toward more aggressive targets —
//!   smaller device reservations, more buddy-memory overflow — and admits
//!   at the least-aggressive target that fits both the quota and the pool.
//!   Demotion trades the tenant's bandwidth for admission, the paper's
//!   target-ratio tradeoff turned into policy.
//! * [`telemetry`] is the lock-free per-tenant metric registry (the only
//!   module allowed to own raw atomics — see the `raw-atomic-metric`
//!   lint); per-batch [`AccessStats`] deltas from the pool's `*_collect`
//!   paths are attributed to the issuing tenant at zero extra cost.
//! * [`loadgen`] is the open-loop load harness: offered arrival rate is
//!   fixed by a deterministic schedule, so overload shows up as measured
//!   queueing delay and shed load instead of closed-loop slowdown.
//!
//! # Example
//!
//! ```
//! use buddy_service::{AdmissionPolicy, BuddyService, ServiceError};
//! use buddy_pool::{PoolConfig, TargetRatio};
//!
//! let service = BuddyService::new(PoolConfig::default());
//! let quota = 64 * 1024;
//! let a = service.register_tenant("tenant-a", quota, AdmissionPolicy::Reject)?;
//! let b = service.register_tenant("tenant-b", quota, AdmissionPolicy::Reject)?;
//!
//! let grant = service.alloc(a, "model", 256, TargetRatio::R2)?;
//! // Tenant B cannot touch tenant A's allocation.
//! assert!(matches!(
//!     service.free(b, grant.id),
//!     Err(ServiceError::CrossTenant { .. })
//! ));
//! service.free(a, grant.id)?;
//! # Ok::<(), buddy_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod telemetry;

pub use buddy_pool::{
    AccessStats, CodecKind, DeviceConfig, DeviceError, Entry, PoolConfig, RetargetReport,
    TargetRatio, ENTRY_BYTES,
};
pub use telemetry::{TelemetryRegistry, TenantRow, TenantTelemetry};

use buddy_pool::{BuddyPool, PoolAllocId};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// What admission control does when a request breaches its tenant's quota
/// (or the pool's capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fail the request with [`ServiceError::QuotaExceeded`].
    Reject,
    /// Walk the [`TargetRatio::DESCENDING`] ladder toward more aggressive
    /// targets (smaller device reservation, more buddy overflow) and admit
    /// at the least-aggressive target that fits; reject only when even the
    /// most aggressive target does not fit.
    Demote,
}

/// Handle to one tenant of a [`BuddyService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u32);

/// Handle to one service allocation.
///
/// Ids are **generational** at the service layer (on top of the pool's own
/// generational ids): [`free`](BuddyService::free) and
/// [`transfer`](BuddyService::transfer) bump the slot generation, so a
/// retained copy of the handle fails every later operation with
/// [`ServiceError::BadHandle`] — it can never alias a newer allocation or
/// outlive an ownership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceAllocId {
    slot: u32,
    generation: u64,
}

/// Outcome of a successful admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocGrant {
    /// The allocation handle.
    pub id: ServiceAllocId,
    /// The target ratio actually granted.
    pub target: TargetRatio,
    /// Whether admission demoted the request below the asked-for target.
    pub demoted: bool,
}

/// Errors of the service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request does not fit the tenant's quota (after any demotion
    /// search its policy allows).
    QuotaExceeded {
        /// Compressed device bytes the request needs at the asked target.
        requested: u64,
        /// Compressed device bytes of quota headroom remaining.
        headroom: u64,
    },
    /// The handle names an allocation owned by a different tenant.
    CrossTenant {
        /// The allocation's owner.
        owner: TenantId,
        /// The tenant that attempted the operation.
        caller: TenantId,
    },
    /// The tenant id was never returned by
    /// [`register_tenant`](BuddyService::register_tenant).
    UnknownTenant,
    /// A tenant with this name is already registered.
    DuplicateTenant,
    /// The allocation handle is stale (freed or transferred) or was never
    /// issued by this service.
    BadHandle,
    /// An underlying device/pool error (capacity, bad index, overflow).
    Device(DeviceError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QuotaExceeded {
                requested,
                headroom,
            } => write!(
                f,
                "quota exceeded: request needs {requested} B compressed, {headroom} B headroom"
            ),
            ServiceError::CrossTenant { owner, caller } => write!(
                f,
                "cross-tenant access denied: allocation owned by tenant {} but used by tenant {}",
                owner.0, caller.0
            ),
            ServiceError::UnknownTenant => write!(f, "unknown tenant id"),
            ServiceError::DuplicateTenant => write!(f, "tenant name already registered"),
            ServiceError::BadHandle => write!(f, "stale or foreign service allocation handle"),
            ServiceError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl Error for ServiceError {}

impl From<DeviceError> for ServiceError {
    fn from(e: DeviceError) -> Self {
        ServiceError::Device(e)
    }
}

/// Per-tenant accounting state (behind the service lock).
#[derive(Debug)]
struct TenantState {
    name: String,
    quota_bytes: u64,
    policy: AdmissionPolicy,
    used_bytes: u64,
    telemetry: Arc<TenantTelemetry>,
}

/// One live allocation's bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ServiceAlloc {
    owner: u32,
    pool_id: PoolAllocId,
    device_bytes: u64,
    entries: u64,
    target: TargetRatio,
}

/// One entry of the service slot map.
#[derive(Debug, Clone, Copy)]
struct ServiceSlot {
    generation: u64,
    alloc: Option<ServiceAlloc>,
}

/// Registry + slot map behind one RwLock: reads (I/O resolution) share,
/// writes (alloc/free/retarget/transfer, which move quota charges) exclude.
#[derive(Debug, Default)]
struct ServiceState {
    tenants: Vec<TenantState>,
    slots: Vec<ServiceSlot>,
    free_slots: Vec<u32>,
}

/// A multi-tenant façade over one [`BuddyPool`]; see the crate docs.
///
/// All methods take `&self` and are safe to call from many threads. Entry
/// I/O resolves handles under a shared read lock and then runs against the
/// pool *outside* the service lock — a concurrent `free` is harmless
/// because the pool's own generational ids catch the race and the
/// operation fails with [`DeviceError::BadAllocation`].
#[derive(Debug)]
pub struct BuddyService {
    pool: BuddyPool,
    telemetry: TelemetryRegistry,
    state: RwLock<ServiceState>,
}

// The whole point of the service: shareable across tenant threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BuddyService>();
    assert_send_sync::<TenantId>();
    assert_send_sync::<ServiceAllocId>();
};

impl BuddyService {
    /// Creates a service over a fresh pool built from `config`.
    ///
    /// # Panics
    ///
    /// As [`BuddyPool::new`] (zero or oversized shard count).
    pub fn new(config: PoolConfig) -> Self {
        Self {
            pool: BuddyPool::new(config),
            telemetry: TelemetryRegistry::new(),
            state: RwLock::new(ServiceState::default()),
        }
    }

    /// The underlying pool (occupancy, fragmentation, drain — everything
    /// that is about *capacity*, not tenancy).
    pub fn pool(&self) -> &BuddyPool {
        &self.pool
    }

    /// The telemetry registry ([`snapshot`](TelemetryRegistry::snapshot)
    /// is the `service-report` data source).
    pub fn telemetry(&self) -> &TelemetryRegistry {
        &self.telemetry
    }

    /// Read-locks the state, recovering from poisoning: every mutation
    /// keeps the maps structurally valid even if a caller panics (plain
    /// `Vec` state, charges updated only on completed operations).
    fn read(&self) -> RwLockReadGuard<'_, ServiceState> {
        match self.state.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Write-locks the state; poisoning recovery as [`read`](Self::read).
    fn write(&self) -> RwLockWriteGuard<'_, ServiceState> {
        match self.state.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a tenant with a quota in **compressed device bytes** and
    /// an admission policy. Use `u64::MAX` for an effectively unlimited
    /// quota.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::DuplicateTenant`] if the name is taken.
    pub fn register_tenant(
        &self,
        name: &str,
        quota_bytes: u64,
        policy: AdmissionPolicy,
    ) -> Result<TenantId, ServiceError> {
        let mut state = self.write();
        if state.tenants.iter().any(|t| t.name == name) {
            return Err(ServiceError::DuplicateTenant);
        }
        let telemetry = self.telemetry.register(name);
        telemetry.quota_bytes.set(quota_bytes);
        let id = u32::try_from(state.tenants.len()).map_err(|_| ServiceError::UnknownTenant)?;
        state.tenants.push(TenantState {
            name: name.to_string(),
            quota_bytes,
            policy,
            used_bytes: 0,
            telemetry,
        });
        Ok(TenantId(id))
    }

    /// The tenant's registered name.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for a foreign id.
    pub fn tenant_name(&self, tenant: TenantId) -> Result<String, ServiceError> {
        let state = self.read();
        state
            .tenants
            .get(tenant.0 as usize)
            .map(|t| t.name.clone())
            .ok_or(ServiceError::UnknownTenant)
    }

    /// Compressed device bytes currently charged against the tenant.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for a foreign id.
    pub fn used_bytes(&self, tenant: TenantId) -> Result<u64, ServiceError> {
        let state = self.read();
        state
            .tenants
            .get(tenant.0 as usize)
            .map(|t| t.used_bytes)
            .ok_or(ServiceError::UnknownTenant)
    }

    /// Quota headroom remaining for the tenant, in compressed device bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for a foreign id.
    pub fn quota_headroom(&self, tenant: TenantId) -> Result<u64, ServiceError> {
        let state = self.read();
        state
            .tenants
            .get(tenant.0 as usize)
            .map(|t| t.quota_bytes.saturating_sub(t.used_bytes))
            .ok_or(ServiceError::UnknownTenant)
    }

    /// Traffic attributed to the tenant so far (exact once the tenant's
    /// operations are quiescent; see [`telemetry`] for the race contract).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownTenant`] for a foreign id.
    pub fn tenant_stats(&self, tenant: TenantId) -> Result<AccessStats, ServiceError> {
        let state = self.read();
        state
            .tenants
            .get(tenant.0 as usize)
            .map(|t| t.telemetry.traffic.snapshot())
            .ok_or(ServiceError::UnknownTenant)
    }

    /// The admission ladder for a request at `asked`: the asked target
    /// first, then every strictly more aggressive target (smaller device
    /// reservation) in decreasing-reservation order. Only consulted under
    /// the [`Demote`](AdmissionPolicy::Demote) policy past the first rung.
    fn admission_ladder(asked: TargetRatio) -> impl Iterator<Item = TargetRatio> {
        let asked_bytes = asked.device_bytes_per_entry();
        std::iter::once(asked).chain(
            TargetRatio::DESCENDING
                .into_iter()
                .rev()
                .filter(move |t| t.device_bytes_per_entry() < asked_bytes),
        )
    }

    /// Allocates `entries` 128 B memory-entries for `tenant`, admission-
    /// controlled against its quota and the pool's capacity.
    ///
    /// Admission charges `entries × device-bytes-per-entry(target)` of
    /// quota. On breach — or on pool-capacity failure — the tenant's
    /// [`AdmissionPolicy`] applies: `Reject` fails immediately, `Demote`
    /// retries down the target ladder and flags the grant
    /// ([`AllocGrant::demoted`]) if admitted below the asked target.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTenant`] for a foreign tenant id;
    /// [`ServiceError::QuotaExceeded`] when quota (not pool capacity) is
    /// what stopped admission; [`ServiceError::Device`] for pool failures
    /// (capacity exhaustion, zero-entry or overflowing requests).
    pub fn alloc(
        &self,
        tenant: TenantId,
        name: &str,
        entries: u64,
        target: TargetRatio,
    ) -> Result<AllocGrant, ServiceError> {
        let mut state = self.write();
        let tenant_index = tenant.0 as usize;
        let t = state
            .tenants
            .get(tenant_index)
            .ok_or(ServiceError::UnknownTenant)?;
        let policy = t.policy;
        let headroom = t.quota_bytes.saturating_sub(t.used_bytes);
        let telemetry = Arc::clone(&t.telemetry);

        let asked_bytes = entry_bytes(entries, target)?;
        let mut quota_blocked = false;
        let mut pool_error: Option<DeviceError> = None;
        let mut granted: Option<(PoolAllocId, TargetRatio, u64)> = None;
        for candidate in Self::admission_ladder(target) {
            let candidate_bytes = entry_bytes(entries, candidate)?;
            if candidate_bytes > headroom {
                quota_blocked = true;
            } else {
                match self.pool.alloc(name, entries, candidate) {
                    Ok(pool_id) => {
                        granted = Some((pool_id, candidate, candidate_bytes));
                        break;
                    }
                    Err(e) if e.is_capacity() => pool_error = Some(e),
                    Err(e) => return Err(ServiceError::Device(e)),
                }
            }
            if policy == AdmissionPolicy::Reject {
                break;
            }
        }

        let Some((pool_id, granted_target, device_bytes)) = granted else {
            telemetry.rejections.incr();
            // Quota is the admission-layer verdict; a pool capacity error
            // surfaces only when quota never blocked any rung.
            return Err(if quota_blocked {
                ServiceError::QuotaExceeded {
                    requested: asked_bytes,
                    headroom,
                }
            } else {
                match pool_error {
                    Some(e) => ServiceError::Device(e),
                    None => ServiceError::QuotaExceeded {
                        requested: asked_bytes,
                        headroom,
                    },
                }
            });
        };

        let demoted = granted_target != target;
        let slot = match state.free_slots.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(state.slots.len()).map_err(|_| {
                    // Undo the pool allocation: the slot map is full (2^32
                    // live allocations — unreachable in practice, but the
                    // pool must not leak if it happens).
                    let _ = self.pool.free(pool_id);
                    ServiceError::Device(DeviceError::RequestOverflow)
                })?;
                state.slots.push(ServiceSlot {
                    generation: 0,
                    alloc: None,
                });
                slot
            }
        };
        let alloc = ServiceAlloc {
            owner: tenant.0,
            pool_id,
            device_bytes,
            entries,
            target: granted_target,
        };
        state.slots[slot as usize].alloc = Some(alloc);
        let generation = state.slots[slot as usize].generation;
        let t = &mut state.tenants[tenant_index];
        t.used_bytes += device_bytes;
        telemetry.allocs.incr();
        if demoted {
            telemetry.demotions.incr();
        }
        telemetry.used_bytes.set(t.used_bytes);
        telemetry
            .logical_bytes
            .set(telemetry.logical_bytes.get() + entries * ENTRY_BYTES as u64);
        telemetry.allocations.set(telemetry.allocations.get() + 1);
        Ok(AllocGrant {
            id: ServiceAllocId { slot, generation },
            target: granted_target,
            demoted,
        })
    }

    /// Resolves a handle to its live allocation, checking generation and
    /// ownership. Returns the allocation's bookkeeping copy.
    fn resolve(
        state: &ServiceState,
        tenant: TenantId,
        id: ServiceAllocId,
    ) -> Result<ServiceAlloc, ServiceError> {
        if state.tenants.get(tenant.0 as usize).is_none() {
            return Err(ServiceError::UnknownTenant);
        }
        let slot = state
            .slots
            .get(id.slot as usize)
            .ok_or(ServiceError::BadHandle)?;
        if slot.generation != id.generation {
            return Err(ServiceError::BadHandle);
        }
        let alloc = slot.alloc.ok_or(ServiceError::BadHandle)?;
        if alloc.owner != tenant.0 {
            // Denials are charged to the *caller*: they are the tenant
            // whose behaviour (or bug) the counter should expose.
            state.tenants[tenant.0 as usize]
                .telemetry
                .cross_tenant_denials
                .incr();
            return Err(ServiceError::CrossTenant {
                owner: TenantId(alloc.owner),
                caller: tenant,
            });
        }
        Ok(alloc)
    }

    /// Releases an allocation and refunds its quota charge.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadHandle`] for stale handles,
    /// [`ServiceError::CrossTenant`] when `tenant` is not the owner.
    pub fn free(&self, tenant: TenantId, id: ServiceAllocId) -> Result<(), ServiceError> {
        let mut state = self.write();
        let alloc = Self::resolve(&state, tenant, id)?;
        self.pool.free(alloc.pool_id)?;
        let slot = &mut state.slots[id.slot as usize];
        slot.generation += 1;
        slot.alloc = None;
        state.free_slots.push(id.slot);
        let t = &mut state.tenants[tenant.0 as usize];
        t.used_bytes = t.used_bytes.saturating_sub(alloc.device_bytes);
        t.telemetry.frees.incr();
        t.telemetry.used_bytes.set(t.used_bytes);
        t.telemetry.logical_bytes.set(
            t.telemetry
                .logical_bytes
                .get()
                .saturating_sub(alloc.entries * ENTRY_BYTES as u64),
        );
        t.telemetry
            .allocations
            .set(t.telemetry.allocations.get().saturating_sub(1));
        Ok(())
    }

    /// Writes a contiguous run of entries
    /// ([`BuddyPool::write_entries`] semantics), attributing the batch's
    /// traffic to `tenant`.
    ///
    /// # Errors
    ///
    /// Ownership/staleness errors as [`free`](Self::free); I/O errors as
    /// [`BuddyPool::write_entries`].
    pub fn write_entries(
        &self,
        tenant: TenantId,
        id: ServiceAllocId,
        start: u64,
        entries: &[Entry],
    ) -> Result<(), ServiceError> {
        let (pool_id, telemetry) = {
            let state = self.read();
            let alloc = Self::resolve(&state, tenant, id)?;
            let telemetry = Arc::clone(&state.tenants[tenant.0 as usize].telemetry);
            (alloc.pool_id, telemetry)
        };
        // The pool call runs outside the service lock; a racing free is
        // caught by the pool's generational id.
        let delta = self.pool.write_entries_collect(pool_id, start, entries)?;
        telemetry.traffic.add(&delta);
        Ok(())
    }

    /// Reads a contiguous run of entries
    /// ([`BuddyPool::read_entries`] semantics), attributing the batch's
    /// traffic to `tenant`.
    ///
    /// # Errors
    ///
    /// Ownership/staleness errors as [`free`](Self::free); I/O errors as
    /// [`BuddyPool::read_entries`].
    pub fn read_entries(
        &self,
        tenant: TenantId,
        id: ServiceAllocId,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), ServiceError> {
        let (pool_id, telemetry) = {
            let state = self.read();
            let alloc = Self::resolve(&state, tenant, id)?;
            let telemetry = Arc::clone(&state.tenants[tenant.0 as usize].telemetry);
            (alloc.pool_id, telemetry)
        };
        let delta = self.pool.read_entries_collect(pool_id, start, out)?;
        telemetry.traffic.add(&delta);
        Ok(())
    }

    /// Migrates an allocation to a new target ratio
    /// ([`BuddyPool::retarget`] semantics), re-charging the quota to the
    /// new reservation. A retarget that would *grow* the charge past the
    /// quota is rejected up front (no demotion search — the caller asked
    /// for a specific target), leaving the allocation unchanged.
    ///
    /// # Errors
    ///
    /// Ownership/staleness errors as [`free`](Self::free);
    /// [`ServiceError::QuotaExceeded`] when the new reservation does not
    /// fit; migration errors as [`BuddyPool::retarget`].
    pub fn retarget(
        &self,
        tenant: TenantId,
        id: ServiceAllocId,
        new_target: TargetRatio,
    ) -> Result<RetargetReport, ServiceError> {
        let mut state = self.write();
        let alloc = Self::resolve(&state, tenant, id)?;
        let new_bytes = entry_bytes(alloc.entries, new_target)?;
        let t = &state.tenants[tenant.0 as usize];
        let headroom = t.quota_bytes.saturating_sub(t.used_bytes);
        if new_bytes > alloc.device_bytes && new_bytes - alloc.device_bytes > headroom {
            t.telemetry.rejections.incr();
            return Err(ServiceError::QuotaExceeded {
                requested: new_bytes - alloc.device_bytes,
                headroom,
            });
        }
        let report = self.pool.retarget(alloc.pool_id, new_target)?;
        let slot = &mut state.slots[id.slot as usize];
        if let Some(a) = slot.alloc.as_mut() {
            a.target = new_target;
            a.device_bytes = new_bytes;
        }
        let t = &mut state.tenants[tenant.0 as usize];
        t.used_bytes = t.used_bytes.saturating_sub(alloc.device_bytes) + new_bytes;
        t.telemetry.used_bytes.set(t.used_bytes);
        t.telemetry.traffic.add(&AccessStats {
            // A same-target retarget is a free no-op the device does not
            // count as a migration; neither does the tenant.
            retargets: u64::from(report.old_target != report.new_target),
            moved_sectors: report.moved_sectors,
            ..AccessStats::default()
        });
        Ok(report)
    }

    /// Transfers ownership of an allocation from `from` to `to`,
    /// re-charging the quota (the recipient admits under **Reject** terms —
    /// a transfer never demotes) and invalidating the old handle: the
    /// returned id is the only live handle afterwards, so pins of
    /// stale-id-after-transfer hold by construction.
    ///
    /// # Errors
    ///
    /// Ownership/staleness errors as [`free`](Self::free);
    /// [`ServiceError::QuotaExceeded`] when the allocation does not fit
    /// the recipient's headroom (the transfer does not happen).
    pub fn transfer(
        &self,
        from: TenantId,
        id: ServiceAllocId,
        to: TenantId,
    ) -> Result<ServiceAllocId, ServiceError> {
        let mut state = self.write();
        let alloc = Self::resolve(&state, from, id)?;
        let recipient = state
            .tenants
            .get(to.0 as usize)
            .ok_or(ServiceError::UnknownTenant)?;
        let headroom = recipient.quota_bytes.saturating_sub(recipient.used_bytes);
        if alloc.device_bytes > headroom {
            recipient.telemetry.rejections.incr();
            return Err(ServiceError::QuotaExceeded {
                requested: alloc.device_bytes,
                headroom,
            });
        }
        let logical = alloc.entries * ENTRY_BYTES as u64;
        let slot = &mut state.slots[id.slot as usize];
        slot.generation += 1;
        let new_id = ServiceAllocId {
            slot: id.slot,
            generation: slot.generation,
        };
        if let Some(a) = slot.alloc.as_mut() {
            a.owner = to.0;
        }
        let f = &mut state.tenants[from.0 as usize];
        f.used_bytes = f.used_bytes.saturating_sub(alloc.device_bytes);
        f.telemetry.transfers.incr();
        f.telemetry.used_bytes.set(f.used_bytes);
        f.telemetry
            .logical_bytes
            .set(f.telemetry.logical_bytes.get().saturating_sub(logical));
        f.telemetry
            .allocations
            .set(f.telemetry.allocations.get().saturating_sub(1));
        let r = &mut state.tenants[to.0 as usize];
        r.used_bytes += alloc.device_bytes;
        r.telemetry.transfers.incr();
        r.telemetry.used_bytes.set(r.used_bytes);
        r.telemetry
            .logical_bytes
            .set(r.telemetry.logical_bytes.get() + logical);
        r.telemetry
            .allocations
            .set(r.telemetry.allocations.get() + 1);
        Ok(new_id)
    }
}

/// `entries × device-bytes-per-entry(target)`, checked.
fn entry_bytes(entries: u64, target: TargetRatio) -> Result<u64, ServiceError> {
    entries
        .checked_mul(target.device_bytes_per_entry() as u64)
        .ok_or(ServiceError::Device(DeviceError::RequestOverflow))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(device_capacity: u64) -> BuddyService {
        BuddyService::new(PoolConfig {
            shards: 2,
            shard_config: DeviceConfig {
                device_capacity,
                carve_out_factor: 3,
            },
            codec: CodecKind::Bpc,
        })
    }

    #[test]
    fn quota_rejects_with_typed_error() {
        let s = service(1 << 20);
        let quota = 256 * TargetRatio::R2.device_bytes_per_entry() as u64;
        let t = s
            .register_tenant("t", quota, AdmissionPolicy::Reject)
            .unwrap();
        s.alloc(t, "a", 256, TargetRatio::R2).unwrap();
        let err = s.alloc(t, "b", 1, TargetRatio::R2).unwrap_err();
        assert_eq!(
            err,
            ServiceError::QuotaExceeded {
                requested: 64,
                headroom: 0
            }
        );
        assert_eq!(s.telemetry().snapshot()[0].rejections, 1);
    }

    #[test]
    fn demote_admits_at_a_lower_target() {
        let s = service(1 << 20);
        // Quota fits 256 entries at R4 (32 B) but not at R2 (64 B).
        let quota = 256 * 32;
        let t = s
            .register_tenant("t", quota, AdmissionPolicy::Demote)
            .unwrap();
        let grant = s.alloc(t, "a", 256, TargetRatio::R2).unwrap();
        assert!(grant.demoted);
        assert_eq!(grant.target, TargetRatio::R4);
        assert_eq!(s.used_bytes(t).unwrap(), quota);
        let rows = s.telemetry().snapshot();
        assert_eq!(rows[0].demotions, 1);
        assert_eq!(rows[0].rejections, 0);
        // Even ZeroPage16 does not fit zero headroom: now it rejects.
        let err = s.alloc(t, "b", 256, TargetRatio::R2).unwrap_err();
        assert!(matches!(err, ServiceError::QuotaExceeded { .. }));
    }

    #[test]
    fn cross_tenant_operations_are_denied() {
        let s = service(1 << 20);
        let a = s
            .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let b = s
            .register_tenant("b", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(a, "data", 64, TargetRatio::R2).unwrap();
        let entry = [1u8; ENTRY_BYTES];
        assert!(matches!(
            s.free(b, grant.id),
            Err(ServiceError::CrossTenant { .. })
        ));
        assert!(matches!(
            s.write_entries(b, grant.id, 0, &[entry]),
            Err(ServiceError::CrossTenant { .. })
        ));
        let mut out = [[0u8; ENTRY_BYTES]; 1];
        assert!(matches!(
            s.read_entries(b, grant.id, 0, &mut out),
            Err(ServiceError::CrossTenant { .. })
        ));
        assert_eq!(s.telemetry().snapshot()[1].cross_tenant_denials, 3);
        // The owner is unaffected.
        s.write_entries(a, grant.id, 0, &[entry]).unwrap();
        s.free(a, grant.id).unwrap();
    }

    #[test]
    fn freed_handles_are_generationally_dead() {
        let s = service(1 << 20);
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(t, "a", 64, TargetRatio::R2).unwrap();
        s.free(t, grant.id).unwrap();
        assert_eq!(s.free(t, grant.id), Err(ServiceError::BadHandle));
        // Slot reuse cannot resurrect the stale handle.
        let again = s.alloc(t, "b", 64, TargetRatio::R2).unwrap();
        assert_eq!(again.id.slot, grant.id.slot, "slot is recycled");
        assert_eq!(s.free(t, grant.id), Err(ServiceError::BadHandle));
        s.free(t, again.id).unwrap();
    }

    #[test]
    fn transfer_moves_the_charge_and_kills_the_old_handle() {
        let s = service(1 << 20);
        let a = s
            .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let b = s
            .register_tenant("b", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(a, "model", 128, TargetRatio::R2).unwrap();
        let charged = s.used_bytes(a).unwrap();
        let new_id = s.transfer(a, grant.id, b).unwrap();
        assert_eq!(s.used_bytes(a).unwrap(), 0);
        assert_eq!(s.used_bytes(b).unwrap(), charged);
        // The old handle is dead on every path, for both tenants.
        assert_eq!(s.free(a, grant.id), Err(ServiceError::BadHandle));
        assert_eq!(s.free(b, grant.id), Err(ServiceError::BadHandle));
        // The new owner operates through the new handle; the old owner
        // is now a foreign tenant.
        assert!(matches!(
            s.free(a, new_id),
            Err(ServiceError::CrossTenant { .. })
        ));
        s.free(b, new_id).unwrap();
    }

    #[test]
    fn transfer_respects_the_recipient_quota() {
        let s = service(1 << 20);
        let a = s
            .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let b = s.register_tenant("b", 64, AdmissionPolicy::Demote).unwrap();
        let grant = s.alloc(a, "big", 128, TargetRatio::R2).unwrap();
        let err = s.transfer(a, grant.id, b).unwrap_err();
        assert!(matches!(err, ServiceError::QuotaExceeded { .. }));
        // Nothing moved: the original owner still owns and can free.
        s.free(a, grant.id).unwrap();
    }

    #[test]
    fn retarget_recharges_quota_and_enforces_it() {
        let s = service(1 << 20);
        let quota = 64 * TargetRatio::R2.device_bytes_per_entry() as u64;
        let t = s
            .register_tenant("t", quota, AdmissionPolicy::Reject)
            .unwrap();
        let grant = s.alloc(t, "a", 64, TargetRatio::R2).unwrap();
        // Shrinking the reservation refunds quota...
        s.retarget(t, grant.id, TargetRatio::R4).unwrap();
        assert_eq!(s.used_bytes(t).unwrap(), 64 * 32);
        // ...growing it back within quota is fine...
        s.retarget(t, grant.id, TargetRatio::R2).unwrap();
        assert_eq!(s.used_bytes(t).unwrap(), quota);
        // ...but growing past the quota is rejected and changes nothing.
        let err = s.retarget(t, grant.id, TargetRatio::R1).unwrap_err();
        assert!(matches!(err, ServiceError::QuotaExceeded { .. }));
        assert_eq!(s.used_bytes(t).unwrap(), quota);
        s.free(t, grant.id).unwrap();
        assert_eq!(s.used_bytes(t).unwrap(), 0);
    }

    #[test]
    fn io_is_attributed_to_the_issuing_tenant() {
        let s = service(1 << 20);
        let a = s
            .register_tenant("a", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let b = s
            .register_tenant("b", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let ga = s.alloc(a, "a", 64, TargetRatio::R2).unwrap();
        let gb = s.alloc(b, "b", 64, TargetRatio::R2).unwrap();
        let batch = [[7u8; ENTRY_BYTES]; 16];
        s.write_entries(a, ga.id, 0, &batch).unwrap();
        s.write_entries(a, ga.id, 16, &batch).unwrap();
        s.write_entries(b, gb.id, 0, &batch).unwrap();
        let mut out = [[0u8; ENTRY_BYTES]; 8];
        s.read_entries(a, ga.id, 8, &mut out).unwrap();
        s.read_entries(b, gb.id, 0, &mut out).unwrap();
        // One real migration for `a`; a same-target retarget for `b` is a
        // free no-op that no layer counts.
        s.retarget(a, ga.id, TargetRatio::R4).unwrap();
        s.retarget(b, gb.id, TargetRatio::R2).unwrap();
        let sa = s.tenant_stats(a).unwrap();
        let sb = s.tenant_stats(b).unwrap();
        assert_eq!(sa.total_accesses(), 40);
        assert_eq!(sb.total_accesses(), 24);
        assert_eq!(sa.retargets, 1);
        assert!(sa.moved_sectors > 0);
        assert_eq!(sb.retargets, 0);
        assert_eq!(sb.moved_sectors, 0);
        // Attribution is exhaustive: tenant stats sum to the pool's.
        let mut merged = AccessStats::default();
        merged.merge(&sa);
        merged.merge(&sb);
        assert_eq!(merged, s.pool().drain());
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_rejected() {
        let s = service(1 << 20);
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        assert_eq!(
            s.register_tenant("t", 0, AdmissionPolicy::Reject),
            Err(ServiceError::DuplicateTenant)
        );
        let ghost = TenantId(42);
        assert_eq!(
            s.alloc(ghost, "x", 1, TargetRatio::R2).unwrap_err(),
            ServiceError::UnknownTenant
        );
        let grant = s.alloc(t, "a", 16, TargetRatio::R2).unwrap();
        assert_eq!(s.free(ghost, grant.id), Err(ServiceError::UnknownTenant));
    }

    #[test]
    fn capacity_errors_pass_through_for_unlimited_quota() {
        let s = service(4096);
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Reject)
            .unwrap();
        let err = s.alloc(t, "huge", 1 << 20, TargetRatio::R1).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Device(DeviceError::OutOfDeviceMemory { .. })
        ));
        assert_eq!(s.telemetry().snapshot()[0].rejections, 1);
    }

    #[test]
    fn demote_also_rescues_pool_capacity_pressure() {
        // Pool too small for 512 entries at R1 (128 B each per shard) but
        // fine at a more aggressive target; quota is unlimited, so the
        // ladder walk is driven purely by pool capacity.
        let s = BuddyService::new(PoolConfig {
            shards: 1,
            shard_config: DeviceConfig {
                device_capacity: 48 * 1024,
                carve_out_factor: 3,
            },
            codec: CodecKind::Bpc,
        });
        let t = s
            .register_tenant("t", u64::MAX, AdmissionPolicy::Demote)
            .unwrap();
        let grant = s.alloc(t, "a", 512, TargetRatio::R1).unwrap();
        assert!(grant.demoted);
        assert!(grant.target.device_bytes_per_entry() < 128);
    }
}
