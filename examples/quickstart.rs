//! Quickstart: the full Buddy Compression flow on one allocation.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! This walks the paper's §3.5 pipeline end to end on the functional model:
//! compress real data with BPC, profile it, pick a target ratio under the
//! Buddy Threshold, allocate a compressed region, and verify that reads
//! return exactly what was written while most traffic stays in device
//! memory.

use buddy_compression::bpc::{Codec, CodecKind, CompressedBuf, SizeHistogram, ENTRY_BYTES};
use buddy_compression::buddy_core::{
    choose_targets, AllocationProfile, BuddyDevice, DeviceConfig, ProfileConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. An application buffer: mostly smooth floats, some noise. ---
    let entries = 4096u64;
    let mut rng = SmallRng::seed_from_u64(42);
    let data: Vec<[u8; ENTRY_BYTES]> = (0..entries)
        .map(|i| {
            let mut e = [0u8; ENTRY_BYTES];
            if i % 10 == 0 {
                rng.fill(&mut e[..]); // 10% incompressible
            } else {
                let base = 1.0f32 + (i as f32) * 1e-3;
                for (j, c) in e.chunks_exact_mut(4).enumerate() {
                    let v = base + j as f32 * 1e-5;
                    c.copy_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            e
        })
        .collect();

    // --- 2. Profiling pass: compress every entry, build the histogram.
    // (Zero-allocation path: one scratch buffer for the whole scan.) ---
    let codec = CodecKind::Bpc;
    let mut scratch = CompressedBuf::new();
    let histogram: SizeHistogram = data
        .iter()
        .map(|e| codec.size_class_into(e, &mut scratch))
        .collect();
    println!(
        "profiled {} entries: optimistic compression {:.2}x",
        histogram.total(),
        histogram.compression_ratio()
    );

    // --- 3. Pick a target ratio under the 30% Buddy Threshold. ---
    let profiles = vec![AllocationProfile {
        name: "field".into(),
        entries,
        histogram,
    }];
    let outcome = choose_targets(&profiles, &ProfileConfig::default());
    println!("profiler chose:\n{outcome}");

    // --- 4. Allocate and run against the functional device. ---
    // The device owns structural operations; entry I/O goes through its
    // lock-free handle.
    let mut device = BuddyDevice::new(DeviceConfig {
        device_capacity: 1 << 20,
        carve_out_factor: 3,
    });
    let io = device.handle();
    let target = outcome.choices[0].target;
    let alloc = device.alloc("field", entries, target)?;
    io.write_entries(alloc, 0, &data)?;
    let mut readback = vec![[0u8; ENTRY_BYTES]; entries as usize];
    io.read_entries(alloc, 0, &mut readback)?;
    assert_eq!(readback, data, "lossless read-back");

    let stats = device.stats();
    println!(
        "device ratio {:.2}x; {} of {} accesses touched buddy memory ({:.1}%)",
        device.effective_ratio(),
        stats.reads_with_buddy + stats.writes_with_buddy,
        stats.total_accesses(),
        100.0 * stats.buddy_access_fraction()
    );
    println!(
        "sectors moved: {} from device DRAM, {} over the interconnect",
        stats.device_sectors, stats.buddy_sectors
    );
    Ok(())
}
