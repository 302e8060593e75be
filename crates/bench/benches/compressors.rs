//! Criterion micro-benchmarks for the compression algorithms: single-entry
//! compress/decompress throughput across data regimes, through the
//! zero-allocation [`Codec`] API with one reused [`CompressedBuf`] per run
//! (the device's hot-path shape).
//!
//! These measure the software model, not hardware latency — the paper's
//! 11-cycle pipeline figure comes from Kim et al.'s RTL; what matters here
//! is that the harness can characterize memory images quickly.

use bpc::{Codec, CodecKind, CompressedBuf, ENTRY_BYTES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn entry_of(kind: &str) -> [u8; ENTRY_BYTES] {
    let mut e = [0u8; ENTRY_BYTES];
    match kind {
        "zero" => {}
        "ramp" => {
            for (i, c) in e.chunks_exact_mut(4).enumerate() {
                c.copy_from_slice(&(1000u32 + 7 * i as u32).to_le_bytes());
            }
        }
        "noisy" => {
            let mut s = 0x0123_4567_89AB_CDEFu64;
            for c in e.chunks_exact_mut(4) {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = 0x4000_0000u32 + ((s >> 40) as u32 & 0x3FF);
                c.copy_from_slice(&v.to_le_bytes());
            }
        }
        _ => {
            let mut s = 0x9E37_79B9u64;
            for b in e.iter_mut() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (s >> 33) as u8;
            }
        }
    }
    e
}

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress");
    group.throughput(Throughput::Bytes(ENTRY_BYTES as u64));
    for kind in ["zero", "ramp", "noisy", "random"] {
        let entry = entry_of(kind);
        for codec in CodecKind::ALL {
            group.bench_with_input(BenchmarkId::new(codec.to_string(), kind), &entry, |b, e| {
                let mut buf = CompressedBuf::new();
                b.iter(|| {
                    codec.compress_into(e, &mut buf);
                    buf.bits()
                })
            });
        }
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompress");
    group.throughput(Throughput::Bytes(ENTRY_BYTES as u64));
    for kind in ["ramp", "noisy", "random"] {
        let entry = entry_of(kind);
        for codec in CodecKind::ALL {
            let mut compressed = CompressedBuf::new();
            codec.compress_into(&entry, &mut compressed);
            group.bench_with_input(
                BenchmarkId::new(codec.to_string(), kind),
                &compressed,
                |b, c| {
                    let mut out = [0u8; ENTRY_BYTES];
                    b.iter(|| {
                        codec
                            .decompress_into(c.data(), c.bits(), &mut out)
                            .expect("own output decodes");
                        out[0]
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_compress, bench_decompress
}
criterion_main!(benches);
