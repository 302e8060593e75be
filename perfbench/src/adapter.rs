//! The one place where the benchmark calls into the program.
//!
//! Every layer call goes through here, inside a span named
//! `<layer>.<operation>`: the codec (`bpc`), a bare device (`core`), the
//! sharded pool (`pool`) and the multi-tenant service (`service`), plus the
//! profiler (`core.choose_targets`), snapshot capture (`workloads.capture`)
//! and the simulator (`gpu_sim.run`). Entry I/O uses only the batched
//! `read_entries`/`write_entries` form each layer has, so a change to that
//! surface touches this file alone.

use crate::span::Tracer;
use bpc::{Codec, CodecKind, CompressedBuf, Entry, SizeClass, ENTRY_BYTES};
use buddy_core::{
    choose_targets, AccessStats, AllocId, AllocationProfile, BuddyDevice, DeviceConfig,
    DeviceHandle, ProfileConfig, ProfileOutcome, RetargetPolicy, StateWindow, TargetRatio,
};
use buddy_pool::{BuddyPool, PoolAllocId, PoolConfig};
use buddy_service::{AdmissionPolicy, BuddyService, ServiceAllocId, ServiceError, TenantId};
use gpu_sim::{
    Engine, ExecConfig, Fidelity, GpuConfig, MemRequest, MemoryLayout, MemoryMode, SimStats,
};
use std::sync::Mutex;
use workloads::{Benchmark, SnapshotConfig, SnapshotStats};

/// The boundary a system is driven at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Device,
    Pool,
    Service,
}

impl Layer {
    pub const ALL: [Layer; 3] = [Layer::Device, Layer::Pool, Layer::Service];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Device => "core",
            Layer::Pool => "pool",
            Layer::Service => "service",
        }
    }

    /// Span name of operation `op` at this layer.
    fn span(self, op: Call) -> &'static str {
        const NAMES: [[&str; 6]; 3] = [
            [
                "core.alloc",
                "core.free",
                "core.write",
                "core.read",
                "core.retarget",
                "core.drain",
            ],
            [
                "pool.alloc",
                "pool.free",
                "pool.write",
                "pool.read",
                "pool.retarget",
                "pool.drain",
            ],
            [
                "service.alloc",
                "service.free",
                "service.write",
                "service.read",
                "service.retarget",
                "service.drain",
            ],
        ];
        NAMES[self as usize][op as usize]
    }
}

/// The calls a span can be around, in `Layer::span` column order.
#[derive(Clone, Copy)]
enum Call {
    Alloc,
    Free,
    Write,
    Read,
    Retarget,
    Drain,
}

/// Capacity and tenancy of a system under test.
#[derive(Debug, Clone)]
pub struct SysConfig {
    pub shards: usize,
    pub shard: DeviceConfig,
    /// `(name, quota bytes, policy)`; device and pool layers ignore quotas.
    pub tenants: Vec<(String, u64, AdmissionPolicy)>,
}

/// One system under test, driven at one [`Layer`].
pub enum Sys {
    Device {
        dev: Mutex<BuddyDevice>,
        handle: DeviceHandle,
    },
    Pool(BuddyPool),
    Service {
        svc: BuddyService,
        tenants: Vec<TenantId>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handle {
    Device(AllocId),
    Pool(PoolAllocId),
    Service(TenantId, ServiceAllocId),
}

#[derive(Debug, Clone, PartialEq)]
pub enum Fail {
    /// Admission control refused the request (an expected outcome).
    Rejected,
    Error(String),
}

fn dev_err(e: buddy_core::DeviceError) -> Fail {
    Fail::Error(e.to_string())
}

fn svc_err(e: ServiceError) -> Fail {
    match e {
        ServiceError::QuotaExceeded { .. } => Fail::Rejected,
        e => Fail::Error(e.to_string()),
    }
}

fn lock(dev: &Mutex<BuddyDevice>) -> std::sync::MutexGuard<'_, BuddyDevice> {
    dev.lock()
        .expect("a benchmark thread panicked while holding the device")
}

impl Sys {
    pub fn new(layer: Layer, cfg: &SysConfig) -> Self {
        let pool = PoolConfig {
            shards: cfg.shards,
            shard_config: cfg.shard,
            codec: CodecKind::Bpc,
        };
        match layer {
            Layer::Device => {
                let dev = BuddyDevice::with_codec(
                    DeviceConfig {
                        device_capacity: cfg.shard.device_capacity * cfg.shards as u64,
                        carve_out_factor: cfg.shard.carve_out_factor,
                    },
                    CodecKind::Bpc,
                );
                let handle = dev.handle();
                Sys::Device {
                    dev: Mutex::new(dev),
                    handle,
                }
            }
            Layer::Pool => Sys::Pool(BuddyPool::new(pool)),
            Layer::Service => {
                let svc = BuddyService::new(pool);
                let tenants = cfg
                    .tenants
                    .iter()
                    .map(|(name, quota, policy)| {
                        svc.register_tenant(name, *quota, *policy)
                            .expect("tenant names are distinct")
                    })
                    .collect();
                Sys::Service { svc, tenants }
            }
        }
    }

    pub fn layer(&self) -> Layer {
        match self {
            Sys::Device { .. } => Layer::Device,
            Sys::Pool(_) => Layer::Pool,
            Sys::Service { .. } => Layer::Service,
        }
    }

    /// Allocates; returns the handle, the granted target and whether
    /// admission demoted it.
    pub fn alloc(
        &self,
        tr: &mut Tracer,
        tenant: usize,
        name: &str,
        entries: u64,
        target: TargetRatio,
    ) -> Result<(Handle, TargetRatio, bool), Fail> {
        tr.begin(self.layer().span(Call::Alloc));
        let r = match self {
            Sys::Device { dev, .. } => lock(dev)
                .alloc(name, entries, target)
                .map(|id| (Handle::Device(id), target, false))
                .map_err(dev_err),
            Sys::Pool(pool) => pool
                .alloc(name, entries, target)
                .map(|id| (Handle::Pool(id), target, false))
                .map_err(dev_err),
            Sys::Service { svc, tenants } => svc
                .alloc(tenants[tenant], name, entries, target)
                .map(|g| (Handle::Service(tenants[tenant], g.id), g.target, g.demoted))
                .map_err(svc_err),
        };
        tr.end();
        r
    }

    pub fn free(&self, tr: &mut Tracer, h: Handle) -> Result<(), Fail> {
        tr.begin(self.layer().span(Call::Free));
        let r = match (self, h) {
            (Sys::Device { dev, .. }, Handle::Device(id)) => lock(dev).free(id).map_err(dev_err),
            (Sys::Pool(pool), Handle::Pool(id)) => pool.free(id).map_err(dev_err),
            (Sys::Service { svc, .. }, Handle::Service(t, id)) => svc.free(t, id).map_err(svc_err),
            _ => Err(Fail::Error("handle from another layer".into())),
        };
        tr.end();
        r
    }

    pub fn write(
        &self,
        tr: &mut Tracer,
        h: Handle,
        start: u64,
        entries: &[Entry],
    ) -> Result<(), Fail> {
        tr.begin(self.layer().span(Call::Write));
        let r = match (self, h) {
            (Sys::Device { handle, .. }, Handle::Device(id)) => {
                handle.write_entries(id, start, entries).map_err(dev_err)
            }
            (Sys::Pool(pool), Handle::Pool(id)) => {
                pool.write_entries(id, start, entries).map_err(dev_err)
            }
            (Sys::Service { svc, .. }, Handle::Service(t, id)) => {
                svc.write_entries(t, id, start, entries).map_err(svc_err)
            }
            _ => Err(Fail::Error("handle from another layer".into())),
        };
        tr.end();
        r
    }

    pub fn read(
        &self,
        tr: &mut Tracer,
        h: Handle,
        start: u64,
        out: &mut [Entry],
    ) -> Result<(), Fail> {
        tr.begin(self.layer().span(Call::Read));
        let r = match (self, h) {
            (Sys::Device { handle, .. }, Handle::Device(id)) => {
                handle.read_entries(id, start, out).map_err(dev_err)
            }
            (Sys::Pool(pool), Handle::Pool(id)) => {
                pool.read_entries(id, start, out).map_err(dev_err)
            }
            (Sys::Service { svc, .. }, Handle::Service(t, id)) => {
                svc.read_entries(t, id, start, out).map_err(svc_err)
            }
            _ => Err(Fail::Error("handle from another layer".into())),
        };
        tr.end();
        r
    }

    /// Migrates an allocation; returns the sectors the migration moved.
    pub fn retarget(&self, tr: &mut Tracer, h: Handle, target: TargetRatio) -> Result<u64, Fail> {
        tr.begin(self.layer().span(Call::Retarget));
        let r = match (self, h) {
            (Sys::Device { dev, .. }, Handle::Device(id)) => {
                lock(dev).retarget(id, target).map_err(dev_err)
            }
            (Sys::Pool(pool), Handle::Pool(id)) => pool.retarget(id, target).map_err(dev_err),
            (Sys::Service { svc, .. }, Handle::Service(t, id)) => {
                svc.retarget(t, id, target).map_err(svc_err)
            }
            _ => Err(Fail::Error("handle from another layer".into())),
        };
        tr.end();
        r.map(|report| report.moved_sectors)
    }

    /// Waits for in-flight I/O and returns consistent traffic counters.
    pub fn drain(&self, tr: &mut Tracer) -> AccessStats {
        tr.begin(self.layer().span(Call::Drain));
        let stats = match self {
            Sys::Device { dev, .. } => {
                let dev = lock(dev);
                dev.quiesce_handles();
                dev.stats()
            }
            Sys::Pool(pool) => pool.drain(),
            Sys::Service { svc, .. } => svc.pool().drain(),
        };
        tr.end();
        stats
    }

    pub fn reset_stats(&self) {
        match self {
            Sys::Device { dev, .. } => lock(dev).reset_stats(),
            Sys::Pool(pool) => pool.reset_stats(),
            Sys::Service { svc, .. } => svc.pool().reset_stats(),
        }
    }

    fn pool(&self) -> Option<&BuddyPool> {
        match self {
            Sys::Device { .. } => None,
            Sys::Pool(pool) => Some(pool),
            Sys::Service { svc, .. } => Some(svc.pool()),
        }
    }

    /// Logical bytes over device bytes reserved.
    pub fn capacity_ratio(&self) -> f64 {
        match self.pool() {
            Some(pool) => pool.logical_bytes() as f64 / pool.device_used() as f64,
            None => match self {
                Sys::Device { dev, .. } => {
                    let dev = lock(dev);
                    dev.logical_bytes() as f64 / dev.device_used() as f64
                }
                _ => unreachable!("every other layer has a pool"),
            },
        }
    }

    pub fn fragmentation(&self) -> f64 {
        match self {
            Sys::Device { dev, .. } => lock(dev).fragmentation(),
            _ => self.pool().map_or(0.0, BuddyPool::fragmentation),
        }
    }

    /// Shard locks taken by pool allocations so far (0 below the pool).
    pub fn alloc_probes(&self) -> u64 {
        self.pool().map_or(0, BuddyPool::alloc_shard_probes)
    }
}

/// Whether the device runs the codec when it stores (`compress`) or loads
/// (`decompress`) `class` under `target`, following its storage rules:
/// zeros are metadata-only, incompressible entries are stored raw, and a
/// 16x allocation stores overflowing entries raw in buddy memory.
pub fn codec_on_read(class: SizeClass, target: TargetRatio) -> bool {
    match class {
        SizeClass::B0 => false,
        c if target == TargetRatio::ZeroPage16 => c.bytes() <= 8,
        c => c.sectors().max(1) < 4,
    }
}

/// The codec boundary: compress and decompress exact entries.
pub struct CodecBoundary {
    codec: &'static dyn Codec,
    bufs: Vec<CompressedBuf>,
    out: Entry,
    /// Compressed bytes and count of the non-zero entries compressed.
    pub bytes: u64,
    pub compressed: u64,
}

impl CodecBoundary {
    pub fn new() -> Self {
        Self {
            codec: CodecKind::Bpc.as_codec(),
            bufs: Vec::new(),
            out: [0u8; ENTRY_BYTES],
            bytes: 0,
            compressed: 0,
        }
    }

    /// Compresses the non-zero entries of a write batch.
    pub fn compress(&mut self, tr: &mut Tracer, span: &'static str, entries: &[Entry]) {
        if self.bufs.is_empty() {
            self.bufs.push(CompressedBuf::new());
        }
        tr.begin(span);
        for e in entries.iter().filter(|e| e.iter().any(|&b| b != 0)) {
            self.codec.compress_into(e, &mut self.bufs[0]);
            self.bytes += self.bufs[0].bytes() as u64;
            self.compressed += 1;
        }
        tr.end();
    }

    /// Decompresses the entries of a read batch that the device would
    /// decode under `target`; their streams are prepared outside the span.
    pub fn decompress(
        &mut self,
        tr: &mut Tracer,
        span: &'static str,
        entries: &[Entry],
        target: TargetRatio,
    ) -> Result<(), String> {
        let mut n = 0;
        for e in entries {
            if self.bufs.len() <= n {
                self.bufs.push(CompressedBuf::new());
            }
            self.codec.compress_into(e, &mut self.bufs[n]);
            let class = if e.iter().all(|&b| b == 0) {
                SizeClass::B0
            } else {
                self.bufs[n].size_class()
            };
            if codec_on_read(class, target) {
                n += 1;
            }
        }
        tr.begin(span);
        let mut r = Ok(());
        for buf in &self.bufs[..n] {
            if let Err(e) = self
                .codec
                .decompress_into(buf.data(), buf.bits(), &mut self.out)
            {
                r = Err(format!("codec failed to decode its own stream: {e}"));
            }
        }
        tr.end();
        r
    }

    /// Size class of each entry (the snapshot profiler's codec work).
    pub fn size_classes(&mut self, tr: &mut Tracer, entries: &[Entry]) -> u64 {
        if self.bufs.is_empty() {
            self.bufs.push(CompressedBuf::new());
        }
        tr.begin("bpc.size_class");
        let mut bytes = 0u64;
        for e in entries {
            bytes += self.codec.size_class_into(e, &mut self.bufs[0]).bytes() as u64;
        }
        tr.end();
        bytes
    }
}

/// Size class of one entry as the device would store it.
pub fn class_of(entry: &Entry, scratch: &mut CompressedBuf) -> SizeClass {
    CodecKind::Bpc.size_class_into(entry, scratch)
}

pub fn capture(tr: &mut Tracer, bench: &Benchmark, config: SnapshotConfig) -> SnapshotStats {
    tr.begin("workloads.capture");
    let s = workloads::capture(bench, config);
    tr.end();
    s
}

pub fn profile(tr: &mut Tracer, profiles: &[AllocationProfile]) -> ProfileOutcome {
    tr.begin("core.choose_targets");
    let o = choose_targets(profiles, &ProfileConfig::default());
    tr.end();
    o
}

pub fn recommend(
    policy: &RetargetPolicy,
    current: TargetRatio,
    window: &StateWindow,
) -> Option<TargetRatio> {
    policy.recommend(current, window)
}

pub fn simulate(
    tr: &mut Tracer,
    gpu: GpuConfig,
    exec: ExecConfig,
    mode: MemoryMode,
    layout: &dyn MemoryLayout,
    requests: &[MemRequest],
) -> SimStats {
    tr.begin("gpu_sim.run");
    let s = Engine::new(gpu, exec, mode, Fidelity::Fast, layout).run(&mut requests.iter().copied());
    tr.end();
    s
}
