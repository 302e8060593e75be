//! Criterion micro-benchmarks for the functional Buddy device: entry write
//! (compress + place) and read (translate + decompress) throughput per
//! target ratio, the batched entry I/O paths against their per-entry
//! equivalents, and the write path per codec.

use bpc::{CodecKind, ENTRY_BYTES};
use buddy_core::{BuddyDevice, DeviceConfig, TargetRatio};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn mixed_entry(i: u64) -> [u8; ENTRY_BYTES] {
    let mut e = [0u8; ENTRY_BYTES];
    match i % 3 {
        0 => {}
        1 => {
            for (j, c) in e.chunks_exact_mut(4).enumerate() {
                c.copy_from_slice(&(i as u32 + 3 * j as u32).to_le_bytes());
            }
        }
        _ => {
            let mut s = i;
            for b in e.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (s >> 33) as u8;
            }
        }
    }
    e
}

fn bench_device(c: &mut Criterion) {
    let mut group = c.benchmark_group("buddy-device");
    group.throughput(Throughput::Bytes(ENTRY_BYTES as u64));
    for target in [TargetRatio::R1_33, TargetRatio::R2, TargetRatio::R4] {
        group.bench_with_input(
            BenchmarkId::new("write", target.to_string()),
            &target,
            |b, &t| {
                let mut dev = BuddyDevice::new(DeviceConfig {
                    device_capacity: 4 << 20,
                    carve_out_factor: 3,
                });
                let io = dev.handle();
                let alloc = dev.alloc("bench", 4096, t).expect("allocation fits");
                let mut i = 0u64;
                b.iter(|| {
                    io.write_entries(alloc, i % 4096, &[mixed_entry(i)])
                        .expect("write succeeds");
                    i += 1;
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("read", target.to_string()),
            &target,
            |b, &t| {
                let mut dev = BuddyDevice::new(DeviceConfig {
                    device_capacity: 4 << 20,
                    carve_out_factor: 3,
                });
                let io = dev.handle();
                let alloc = dev.alloc("bench", 4096, t).expect("allocation fits");
                let image: Vec<[u8; ENTRY_BYTES]> = (0..4096u64).map(mixed_entry).collect();
                io.write_entries(alloc, 0, &image).expect("write succeeds");
                let mut i = 0u64;
                let mut out = [[0u8; ENTRY_BYTES]];
                b.iter(|| {
                    io.read_entries(alloc, i % 4096, &mut out)
                        .expect("read succeeds");
                    i += 1;
                    out[0][0]
                })
            },
        );
    }
    group.finish();
}

/// Batched `write_entries`/`read_entries` against loops of one-entry
/// batches: one iteration moves a whole 256-entry chunk, so throughput is
/// comparable.
fn bench_batched(c: &mut Criterion) {
    const CHUNK: usize = 256;
    let mut group = c.benchmark_group("buddy-device-batched");
    group.throughput(Throughput::Bytes((CHUNK * ENTRY_BYTES) as u64));
    let entries: Vec<[u8; ENTRY_BYTES]> = (0..CHUNK as u64).map(mixed_entry).collect();
    let target = TargetRatio::R2;

    group.bench_function("write-per-entry", |b| {
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        });
        let io = dev.handle();
        let alloc = dev.alloc("bench", CHUNK as u64, target).expect("fits");
        b.iter(|| {
            for (i, e) in entries.chunks(1).enumerate() {
                io.write_entries(alloc, i as u64, e)
                    .expect("write succeeds");
            }
        })
    });
    group.bench_function("write-batched", |b| {
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        });
        let io = dev.handle();
        let alloc = dev.alloc("bench", CHUNK as u64, target).expect("fits");
        b.iter(|| {
            io.write_entries(alloc, 0, &entries)
                .expect("write succeeds")
        })
    });
    group.bench_function("read-per-entry", |b| {
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        });
        let io = dev.handle();
        let alloc = dev.alloc("bench", CHUNK as u64, target).expect("fits");
        io.write_entries(alloc, 0, &entries).expect("seed data");
        let mut out = [[0u8; ENTRY_BYTES]];
        b.iter(|| {
            let mut acc = 0u8;
            for i in 0..CHUNK as u64 {
                io.read_entries(alloc, i, &mut out).expect("read succeeds");
                acc ^= out[0][0];
            }
            acc
        })
    });
    group.bench_function("read-batched", |b| {
        let mut dev = BuddyDevice::new(DeviceConfig {
            device_capacity: 4 << 20,
            carve_out_factor: 3,
        });
        let io = dev.handle();
        let alloc = dev.alloc("bench", CHUNK as u64, target).expect("fits");
        io.write_entries(alloc, 0, &entries).expect("seed data");
        let mut out = vec![[0u8; ENTRY_BYTES]; CHUNK];
        b.iter(|| {
            io.read_entries(alloc, 0, &mut out).expect("read succeeds");
            out[0][0]
        })
    });
    group.finish();
}

/// The write path under each registered codec (2x target, mixed data).
fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("buddy-device-codec");
    group.throughput(Throughput::Bytes(ENTRY_BYTES as u64));
    for codec in CodecKind::ALL {
        group.bench_with_input(
            BenchmarkId::new("write", codec.to_string()),
            &codec,
            |b, &codec| {
                let mut dev = BuddyDevice::with_codec(
                    DeviceConfig {
                        device_capacity: 4 << 20,
                        carve_out_factor: 3,
                    },
                    codec,
                );
                let io = dev.handle();
                let alloc = dev.alloc("bench", 4096, TargetRatio::R2).expect("fits");
                let mut i = 0u64;
                b.iter(|| {
                    io.write_entries(alloc, i % 4096, &[mixed_entry(i)])
                        .expect("write succeeds");
                    i += 1;
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_device, bench_batched, bench_codecs
}
criterion_main!(benches);
