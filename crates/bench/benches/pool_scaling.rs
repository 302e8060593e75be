//! Criterion benchmark for pool scaling: the same total replay work pushed
//! through a 1-shard/1-client pool versus an N-shard/N-client pool.
//!
//! Elements throughput counts total entries moved per replay, so the two
//! configurations are directly comparable; on a multi-core host the sharded
//! configuration's entries/s should approach `min(shards, cores)×` the
//! serial one.

use buddy_core::{DeviceConfig, TargetRatio};
use buddy_pool::loadgen::{replay, LoadgenConfig};
use buddy_pool::{BuddyPool, CodecKind, PoolConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use workloads::AccessProfile;

const BATCH: usize = 64;
const BATCHES_PER_CLIENT_TOTAL: u64 = 256;
const ENTRIES_PER_CLIENT: u64 = 1024;

fn replay_once(shards: usize, clients: usize) {
    let pool = BuddyPool::new(PoolConfig {
        shards,
        shard_config: DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        },
        codec: CodecKind::Bpc,
    });
    let cfg = LoadgenConfig {
        clients,
        // Fixed total work: each client replays its share of the batches.
        batches_per_client: (BATCHES_PER_CLIENT_TOTAL / clients as u64).max(1),
        batch_entries: BATCH,
        entries_per_client: ENTRIES_PER_CLIENT,
        target: TargetRatio::R2,
        seed: 0xB0DD7,
        retarget_every: 0,
        churn_every: 0,
        read_pct: None,
    };
    let report = replay(&pool, AccessProfile::streaming_dl(), &cfg).expect("pool fits clients");
    criterion::black_box(report.entries_per_sec);
}

fn bench_pool_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool-scaling");
    let total_entries = BATCHES_PER_CLIENT_TOTAL * BATCH as u64;
    group.throughput(Throughput::Elements(total_entries));
    for (shards, clients) in [(1usize, 1usize), (4, 4)] {
        group.bench_with_input(
            BenchmarkId::new("replay", format!("{shards}s-{clients}c")),
            &(shards, clients),
            |b, &(shards, clients)| b.iter(|| replay_once(shards, clients)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pool_scaling);
criterion_main!(benches);
