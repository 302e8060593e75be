//! `dl-train`: two closed-loop clients doing batched entry I/O on memory
//! images from the Table-1 DL benchmarks, through the pool.

use crate::adapter::{self, CodecBoundary, Layer, Sys, SysConfig};
use crate::ops::{self, Op, Outcome, Runner, Slots};
use crate::report::{self, exact, Report};
use crate::span::{median_totals, Tracer};
use crate::stats::{self, Better};
use crate::Args;
use bpc::{CodecKind, Entry};
use buddy_core::{AccessStats, AllocationProfile, DeviceConfig, TargetRatio};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::entry_gen::mix;
use workloads::{Scale, SnapshotConfig, TraceGenerator};

const CLIENTS: usize = 2;
/// Setups per run; `setup_s` is the mean of their best quarter.
const SETUPS: usize = 6;
/// The timed phase runs in rounds and each metric is the mean of the best
/// quarter of its per-round values (see [`stats::best_quarter`]).
const ROUNDS: usize = 40;
/// Batch service times kept per client and round (the first ones), so
/// memory use does not grow with throughput.
const LATENCY_SAMPLES: usize = 1 << 16;
/// Targets come from an early snapshot, as from a profiling run; the
/// images are taken at mid-run and writes drift later, so some entries
/// outgrow their targets and reach buddy memory.
const PROFILE_PHASE: f64 = 0.05;
/// Independent instances of each DL benchmark, each with its own data and
/// access seeds. A run spans more target choices and hot spots, so its
/// counts (and `buddy_access_frac`) depend less on which seed it drew.
const INSTANCES: usize = 4;

pub struct Params {
    /// Entries per read or write call.
    batch: u32,
    /// Batches in one client's pass; a run repeats whole passes.
    pass_batches: usize,
    /// Logical bytes of all memory images together.
    total_bytes: u64,
    /// Passes per client in each half of the traced comparison.
    trace_passes: usize,
    /// Fixed offered batch rates (per client) and the p99 limit of the
    /// open-loop metrics, which replay the measured batch service times.
    /// The limit is far above a batch's service time, so the highest rate
    /// meeting it tracks saturation rather than how often the shared host
    /// stalls a client.
    lo_rate: f64,
    hi_rate: f64,
    limit_us: f64,
}

/// Far above the 4 MiB L2, poorly compressible, 30% writes: codec-bound.
pub const DL_TRAIN: Params = Params {
    batch: 64,
    pass_batches: 1024,
    total_bytes: 16 << 20,
    trace_passes: 16,
    lo_rate: 400.0,
    hi_rate: 1_200.0,
    limit_us: 5000.0,
};

struct Client {
    ops: Vec<Op>,
    arena: Vec<Entry>,
}

struct Input {
    cfg: SysConfig,
    /// `(entries, target)` of each allocation.
    slots: Vec<(u32, TargetRatio)>,
    /// Contents at set-up.
    image: Vec<Vec<Entry>>,
    /// Contents after any whole number of passes (writes repeat each pass).
    state: Vec<Vec<Entry>>,
    clients: Vec<Client>,
}

fn generate(p: &Params, seed: u64, tr: &mut Tracer) -> Input {
    let mut benches: Vec<_> = (0..INSTANCES)
        .flat_map(|_| workloads::dl_benchmarks())
        .collect();
    let per_bench = p.total_bytes / benches.len() as u64;
    for b in &mut benches {
        b.scale = Scale {
            divisor: b.footprint_bytes as f64 / per_bench as f64,
            floor_bytes: 0,
        };
    }
    let mut slots = Vec::new();
    let mut image = Vec::new();
    let mut specs = Vec::new();
    // Per benchmark: (end entry in its footprint, slot) of each allocation.
    let mut ranges: Vec<Vec<(u64, u32)>> = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        let bseed = mix(&[seed, bi as u64]);
        let snap = adapter::capture(
            tr,
            b,
            SnapshotConfig {
                phase: PROFILE_PHASE,
                seed: bseed,
                sample_cap: 4096,
                codec: CodecKind::Bpc,
            },
        );
        let profiles: Vec<AllocationProfile> = snap
            .allocations
            .iter()
            .map(|a| AllocationProfile {
                name: a.name.to_string(),
                entries: a.entries,
                histogram: a.histogram.clone(),
            })
            .collect();
        let outcome = adapter::profile(tr, &profiles);
        let mut end = 0;
        let mut r = Vec::new();
        for (ai, ((spec, n), choice)) in b
            .allocation_layout()
            .into_iter()
            .zip(&outcome.choices)
            .enumerate()
        {
            // The entry seeds `capture` profiled.
            let a_seed = mix(&[bseed, ai as u64]);
            image.push(
                (0..n)
                    .map(|i| spec.entry_at(a_seed, i, 0.5))
                    .collect::<Vec<_>>(),
            );
            slots.push((n as u32, choice.target));
            specs.push((spec.clone(), a_seed));
            end += n;
            r.push((end, slots.len() as u32 - 1));
        }
        ranges.push(r);
    }

    let batch = u64::from(p.batch);
    let mut state = image.clone();
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let owned: Vec<usize> = (0..benches.len()).filter(|bi| bi % CLIENTS == c).collect();
        let mut traces: Vec<TraceGenerator> = owned
            .iter()
            .map(|&bi| {
                TraceGenerator::per_client(
                    benches[bi].access,
                    benches[bi].total_entries(),
                    mix(&[seed, bi as u64, 0x7ACE]),
                    c as u64,
                )
            })
            .collect();
        let mut ops = Vec::with_capacity(p.pass_batches);
        let mut arena = Vec::new();
        for k in 0..p.pass_batches {
            let j = k % owned.len();
            let access = traces[j].next().expect("access traces are infinite");
            let r = &ranges[owned[j]];
            let i = r
                .partition_point(|&(end, _)| end <= access.entry)
                .min(r.len() - 1);
            let slot = r[i].1;
            let local = access.entry - if i == 0 { 0 } else { r[i - 1].0 };
            let n = u64::from(slots[slot as usize].0);
            let start = (local / batch * batch).min(n - batch);
            if access.write {
                // Later training phases: compressibility drifts over a pass.
                let phase = 0.5 + 0.5 * (k + 1) as f64 / p.pass_batches as f64;
                let (spec, a_seed) = &specs[slot as usize];
                let src = arena.len() as u32;
                for e in start..start + batch {
                    let entry = spec.entry_at(*a_seed, e, phase);
                    state[slot as usize][e as usize] = entry;
                    arena.push(entry);
                }
                ops.push(Op::Write {
                    slot,
                    start: start as u32,
                    n: p.batch,
                    src,
                });
            } else {
                ops.push(Op::Read {
                    slot,
                    start: start as u32,
                    n: p.batch,
                });
            }
        }
        clients.push(Client { ops, arena });
    }

    // Two shards, each able to hold three quarters of the reservations
    // (allocations hash across shards and probe on to the other when full).
    let device: u64 = slots
        .iter()
        .map(|&(n, t)| u64::from(n) * u64::from(t.device_bytes_per_entry()))
        .sum();
    let buddy: u64 = slots
        .iter()
        .map(|&(n, t)| u64::from(n) * u64::from(t.buddy_bytes_per_entry()))
        .sum();
    let capacity = (device * 3 / 4 + (1 << 20)).next_multiple_of(4096);
    let cfg = SysConfig {
        shards: 2,
        shard: DeviceConfig {
            device_capacity: capacity,
            carve_out_factor: (buddy * 3 / 4).div_ceil(capacity).max(1),
        },
        tenants: vec![(
            "client".into(),
            u64::MAX,
            buddy_service::AdmissionPolicy::Reject,
        )],
    };
    Input {
        cfg,
        slots,
        image,
        state,
        clients,
    }
}

/// A system at `layer` holding every allocation with contents `image`.
/// Allocation spans go to `tr`; the fill is not traced.
fn build(
    layer: Layer,
    input: &Input,
    image: &[Vec<Entry>],
    tr: &mut Tracer,
) -> Result<(Sys, Slots), String> {
    let sys = Sys::new(layer, &input.cfg);
    let slots = {
        let mut r = Runner::new(&sys, &[], &[], Vec::new());
        for (i, &(entries, target)) in input.slots.iter().enumerate() {
            let op = Op::Alloc {
                slot: i as u32,
                tenant: 0,
                entries,
                target,
            };
            match r.exec(tr, &op) {
                Outcome::Granted { .. } => {}
                other => return Err(format!("set-up allocation {i}: {other:?}")),
            }
        }
        let mut quiet = Tracer::off();
        for (i, img) in image.iter().enumerate() {
            let (h, _) = r.slots[i].expect("allocated above");
            for (c, chunk) in img.chunks(256).enumerate() {
                sys.write(&mut quiet, h, (c * 256) as u64, chunk)
                    .map_err(|e| format!("set-up write {i}: {e:?}"))?;
            }
        }
        r.slots
    };
    Ok((sys, slots))
}

fn verify(sys: &Sys, slots: &Slots, state: &[Vec<Entry>]) -> Result<(), String> {
    let mut r = Runner::new(sys, &[], &[], slots.clone());
    let mut quiet = Tracer::off();
    (0..state.len()).try_for_each(|i| r.verify(&mut quiet, i as u32, &state[i]))
}

/// One pass of every client, in turn on this thread: the deterministic
/// pass whose counts a seed must reproduce.
fn count_pass(
    sys: &Sys,
    slots: &Slots,
    input: &Input,
    rep: &mut Report,
) -> BTreeMap<String, String> {
    sys.reset_stats();
    let mut tr = Tracer::off();
    for client in &input.clients {
        let mut r = Runner::new(sys, &client.arena, &[], slots.clone());
        for op in &client.ops {
            rep.attempted += 1;
            if let o @ (Outcome::Failed(_) | Outcome::Rejected | Outcome::Skipped) =
                r.exec(&mut tr, op)
            {
                rep.fail(1, format!("count pass: {op:?}: {o:?}"));
            }
        }
    }
    let s = sys.drain(&mut tr);
    let mut counts = BTreeMap::new();
    let mut put = |k: &str, v: String| {
        counts.insert(k.to_string(), v);
    };
    put("accesses", s.total_accesses().to_string());
    put("reads_with_buddy", s.reads_with_buddy.to_string());
    put("writes_with_buddy", s.writes_with_buddy.to_string());
    put("device_sectors", s.device_sectors.to_string());
    put("buddy_sectors", s.buddy_sectors.to_string());
    put("capacity_ratio", exact(sys.capacity_ratio()));
    rep.set(
        "core.device_sectors_per_access",
        s.device_sectors as f64 / s.total_accesses() as f64,
    );
    rep.set(
        "core.buddy_sectors_per_access",
        s.buddy_sectors as f64 / s.total_accesses() as f64,
    );
    rep.set("capacity_ratio", sys.capacity_ratio());
    counts
}

struct ClientRun {
    entries: u64,
    elapsed_ns: u64,
    /// Service time of each batch, in issue order, up to `LATENCY_SAMPLES`.
    lat_ns: Vec<u32>,
    pass_ns: Vec<f64>,
    ops: u64,
    failed: u64,
    first_failure: Option<String>,
    runqueue_wait_ns: u64,
    tracer: Tracer,
}

/// Both clients repeat whole passes until `secs` have passed, or for
/// exactly `passes` passes.
fn timed(
    sys: &Sys,
    slots: &Slots,
    input: &Input,
    secs: f64,
    passes: Option<usize>,
    tracer: Option<Instant>,
) -> Vec<ClientRun> {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        let handles: Vec<_> = input
            .clients
            .iter()
            .map(|client| {
                s.spawn(move || {
                    let mut r = Runner::new(sys, &client.arena, &[], slots.clone());
                    let mut tr = match tracer {
                        Some(epoch) => Tracer::new(true, epoch),
                        None => Tracer::off(),
                    };
                    let mut run = ClientRun {
                        entries: 0,
                        elapsed_ns: 0,
                        lat_ns: Vec::with_capacity(LATENCY_SAMPLES),
                        pass_ns: Vec::new(),
                        ops: 0,
                        failed: 0,
                        first_failure: None,
                        runqueue_wait_ns: 0,
                        tracer: Tracer::off(),
                    };
                    let rq0 = report::runqueue_wait_ns();
                    let t0 = Instant::now();
                    loop {
                        let pass_start = Instant::now();
                        for (i, op) in client.ops.iter().enumerate() {
                            tr.set_op(i as u64);
                            tr.begin("harness.batch");
                            let t = Instant::now();
                            let o = r.exec(&mut tr, op);
                            if run.lat_ns.len() < LATENCY_SAMPLES {
                                run.lat_ns.push(t.elapsed().as_nanos() as u32);
                            }
                            tr.end();
                            run.ops += 1;
                            match o {
                                Outcome::Io(n) => run.entries += u64::from(n),
                                other => {
                                    run.failed += 1;
                                    run.first_failure
                                        .get_or_insert(format!("{op:?}: {other:?}"));
                                }
                            }
                        }
                        run.pass_ns.push(pass_start.elapsed().as_nanos() as f64);
                        let done = match passes {
                            Some(p) => run.pass_ns.len() >= p,
                            None => Instant::now() >= deadline,
                        };
                        if done {
                            break;
                        }
                    }
                    run.elapsed_ns = t0.elapsed().as_nanos() as u64;
                    run.runqueue_wait_ns = report::runqueue_wait_ns().saturating_sub(rq0);
                    run.tracer = tr;
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn absorb(rep: &mut Report, runs: &[ClientRun], phase: &str) {
    for run in runs {
        rep.attempted += run.ops;
        if let Some(f) = &run.first_failure {
            rep.fail(
                run.failed,
                format!("{phase}: {} ops failed, first: {f}", run.failed),
            );
        }
    }
}

fn rate(runs: &[ClientRun]) -> f64 {
    runs.iter()
        .map(|r| r.entries as f64 / (r.elapsed_ns as f64 / 1e9))
        .sum()
}

fn runqueue_frac(runs: &[ClientRun]) -> f64 {
    runs.iter()
        .map(|r| r.runqueue_wait_ns as f64 / r.elapsed_ns as f64)
        .sum::<f64>()
        / runs.len() as f64
}

struct Setup {
    input: Input,
    sys: Sys,
    slots: Slots,
    secs: f64,
    /// Input generation alone, without the profiling it includes.
    gen_s: f64,
    tracer: Tracer,
}

fn setup(p: &Params, seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut tr = Tracer::new(true, t0);
    let input = generate(p, seed, &mut tr);
    let totals = tr.totals();
    let profiling = ["workloads.capture", "core.choose_targets"]
        .iter()
        .map(|n| totals.get(n).map_or(0, |t| t.0))
        .sum::<u64>();
    let gen_s = t0.elapsed().as_secs_f64() - profiling as f64 / 1e9;
    let (sys, slots) = build(Layer::Pool, &input, &input.image, &mut tr)?;
    Ok(Setup {
        input,
        sys,
        slots,
        secs: t0.elapsed().as_secs_f64(),
        gen_s,
        tracer: tr,
    })
}

pub fn run(p: &Params, args: &Args) -> Report {
    let mut rep = Report::default();
    let mut setup_s = Vec::new();
    let mut counts: Option<BTreeMap<String, String>> = None;
    let mut kept = None;
    let setups = if args.trace { 1 } else { SETUPS };
    for i in 0..setups {
        drop(kept.take());
        let s = match setup(p, args.seed) {
            Ok(s) => s,
            Err(e) => {
                rep.check("set-up", Err(e));
                return rep;
            }
        };
        setup_s.push(s.secs);
        rep.check(
            "shadow after set-up",
            verify(&s.sys, &s.slots, &s.input.image),
        );
        let c = count_pass(&s.sys, &s.slots, &s.input, &mut rep);
        rep.check(
            "shadow after count pass",
            verify(&s.sys, &s.slots, &s.input.state),
        );
        if let Some(prev) = &counts {
            rep.check(
                &format!("counts of set-up {i}"),
                crate::check::diff_counts(prev, &c),
            );
        }
        counts = Some(c);
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    rep.counts = counts.expect("at least one set-up");
    rep.set("setup_s", stats::best_quarter(&setup_s, Better::Lower));
    rep.detail("setup_s", "s", &setup_s);
    let totals = s.tracer.totals();
    let span_s = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e9);
    rep.set("workloads.snapshot_s", span_s("workloads.capture"));
    rep.set("workloads.gen_s", s.gen_s);
    rep.set(
        "core.profile_us",
        totals
            .get("core.choose_targets")
            .map_or(0.0, |t| t.0 as f64 / 1e3 / t.1 as f64),
    );
    rep.set("core.fragmentation", s.sys.fragmentation());
    let mut targets = BTreeMap::new();
    for &(n, t) in &s.input.slots {
        *targets.entry(t.to_string()).or_insert(0u64) += u64::from(n);
    }
    rep.details
        .push(format!("entries per chosen target: {targets:?}"));
    let allocs = s.input.slots.len() as f64;
    rep.set(
        "pool.probes_per_alloc",
        s.sys.alloc_probes() as f64 / allocs,
    );

    if args.trace {
        traced(p, &s, &mut rep);
    } else {
        measure(p, args, &s, &mut rep);
    }
    rep
}

/// Metrics of one round, in the order of `ROUND_METRICS`.
fn round_metrics(p: &Params, runs: &[ClientRun]) -> Vec<f64> {
    let lat: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.lat_ns.iter().map(|&l| f64::from(l) / 1e3))
        .collect();
    let passes: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.pass_ns.iter().map(|&n| n / 1e9))
        .collect();
    let mut m = vec![
        rate(runs),
        stats::median(&lat),
        stats::percentile(&lat, 0.99),
        stats::median(&passes),
    ];
    m.extend(open_loop(p, &runs[0].lat_ns));
    m
}

const ROUND_METRICS: [(&str, Better); 9] = [
    ("entries_per_s", Better::Higher),
    ("batch_p50_us", Better::Lower),
    ("batch_p99_us", Better::Lower),
    ("repro_s", Better::Lower),
    ("op_p50_us.lo", Better::Lower),
    ("op_p99_us.lo", Better::Lower),
    ("op_p99_us.hi", Better::Lower),
    ("service.queue_wait_us", Better::Lower),
    ("max_rate_ops_s", Better::Higher),
];

/// The untraced run: every end-to-end metric, each over the rounds.
fn measure(p: &Params, args: &Args, s: &Setup, rep: &mut Report) {
    s.sys.reset_stats();
    let mut rounds = Vec::new();
    let (mut batches, mut runqueue) = (0, Vec::new());
    for _ in 0..ROUNDS {
        let runs = timed(
            &s.sys,
            &s.slots,
            &s.input,
            args.seconds / ROUNDS as f64,
            None,
            None,
        );
        absorb(rep, &runs, "timed phase");
        batches += runs.iter().map(|r| r.lat_ns.len()).sum::<usize>();
        runqueue.push(runqueue_frac(&runs));
        rounds.push(round_metrics(p, &runs));
    }
    let st: AccessStats = s.sys.drain(&mut Tracer::off());
    rep.check(
        "shadow after timed phase",
        verify(&s.sys, &s.slots, &s.input.state),
    );
    rep.runqueue_wait_frac = stats::median(&runqueue);
    for (i, &(name, better)) in ROUND_METRICS.iter().enumerate() {
        let per_round: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
        let value = stats::best_quarter(&per_round, better);
        rep.set(name, value);
        rep.details.push(format!(
            "{name}: best quarter of {ROUNDS} rounds {value:.3}, quartiles {:.3} / {:.3}",
            stats::percentile(&per_round, 0.25),
            stats::percentile(&per_round, 0.75)
        ));
    }
    rep.details
        .push(format!("batch service times sampled: {batches}"));
    rep.set("buddy_access_frac", st.buddy_access_fraction());
}

/// Open-loop latency at the fixed offered rates (p50 and p99 at the low
/// rate, p99 at the high one), the mean queue wait at the high rate and
/// the highest rate that meets the limit, from client 0's measured batch
/// service times fed to a [`stats::OpenLoop`].
fn open_loop(p: &Params, service: &[u32]) -> [f64; 5] {
    let q = stats::OpenLoop::new(service);
    let us = |v: Vec<f64>| v.into_iter().map(|l| l / 1e3).collect::<Vec<_>>();
    let lo = us(q.latencies(p.lo_rate));
    let hi = us(q.latencies(p.hi_rate));
    let wait = hi
        .iter()
        .zip(service)
        .map(|(l, &s)| l - f64::from(s) / 1e3)
        .sum::<f64>()
        / hi.len() as f64;
    [
        stats::median(&lo),
        stats::percentile(&lo, 0.99),
        stats::percentile(&hi, 0.99),
        wait,
        q.max_rate(p.limit_us * 1e3),
    ]
}

/// Rounds of the traced comparison, alternating untraced and traced.
const TRACE_ROUNDS: usize = 4;
/// Replays of the pass at each boundary; layer totals are their median.
const REPLAY_ROUNDS: usize = 5;

fn ns_per_entry(runs: &[ClientRun]) -> f64 {
    runs.iter().map(|r| r.elapsed_ns as f64).sum::<f64>()
        / runs.iter().map(|r| r.entries as f64).sum::<f64>()
}

/// The traced run: alternating untraced and traced rounds of equal work,
/// then one pass per client replayed at each boundary for self times.
fn traced(p: &Params, s: &Setup, rep: &mut Report) {
    let epoch = Instant::now();
    let per_round = (p.trace_passes / TRACE_ROUNDS).max(1);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_ROUNDS {
        plain.extend(timed(
            &s.sys,
            &s.slots,
            &s.input,
            0.0,
            Some(per_round),
            None,
        ));
        traced.extend(timed(
            &s.sys,
            &s.slots,
            &s.input,
            0.0,
            Some(per_round),
            Some(epoch),
        ));
    }
    absorb(rep, &plain, "untraced rounds");
    absorb(rep, &traced, "traced rounds");
    rep.check(
        "shadow after traced run",
        verify(&s.sys, &s.slots, &s.input.state),
    );
    rep.runqueue_wait_frac = runqueue_frac(&plain);
    rep.set("harness.runqueue_wait_frac", rep.runqueue_wait_frac);
    let traced_ns = ns_per_entry(&traced);
    rep.set(
        "harness.trace_overhead_frac",
        traced_ns / ns_per_entry(&plain) - 1.0,
    );
    rep.set("harness.gen_lag_us", 0.0);
    rep.set("service.queue_wait_us", open_loop(p, &plain[0].lat_ns)[3]);

    // One pass per client, from the post-pass contents, at each boundary.
    let (mut w, mut r, mut calls) = (0.0, 0.0, 0.0);
    for client in &s.input.clients {
        for op in &client.ops {
            calls += 1.0;
            match op {
                Op::Write { n, .. } => w += f64::from(*n),
                Op::Read { n, .. } => r += f64::from(*n),
                _ => {}
            }
        }
    }
    let (codec_rounds, layers, bytes) = match replay(&s.input, epoch, rep) {
        Ok(r) => r,
        Err(e) => return rep.check("replay", Err(e)),
    };
    let codec = median_totals(&codec_rounds);
    let io: Vec<_> = layers
        .iter()
        .map(|(_, rounds)| median_totals(rounds))
        .collect();
    let structural: Vec<_> = layers.iter().map(|(st, _)| st.totals()).collect();
    let ns = |t: &BTreeMap<&str, (f64, u64)>, name: &str| t.get(name).map_or(0.0, |t| t.0);
    let (cw, cr) = (ns(&codec, "bpc.compress"), ns(&codec, "bpc.decompress"));
    rep.set("bpc.compress_ns_per_entry", cw / w);
    rep.set("bpc.decompress_ns_per_entry", cr / r);
    rep.set("bpc.bytes_per_entry", bytes);
    rep.count("bpc.bytes_per_entry", exact(bytes));
    let [dev, pool, svc] = [&io[0], &io[1], &io[2]];
    rep.set("core.write_ns_per_entry", (ns(dev, "core.write") - cw) / w);
    rep.set("core.read_ns_per_entry", (ns(dev, "core.read") - cr) / r);
    rep.set(
        "pool.write_ns_per_entry",
        (ns(pool, "pool.write") - ns(dev, "core.write")) / w,
    );
    rep.set(
        "pool.read_ns_per_entry",
        (ns(pool, "pool.read") - ns(dev, "core.read")) / r,
    );
    let io_ns = |t: &BTreeMap<&str, (f64, u64)>, l: &str| {
        ns(t, &format!("{l}.read")) + ns(t, &format!("{l}.write"))
    };
    rep.set(
        "service.io_us",
        (io_ns(svc, "service") - io_ns(pool, "pool")) / calls / 1e3,
    );
    let mean = |l: usize, name: &str| {
        structural[l]
            .get(name)
            .map_or(0.0, |t| t.0 as f64 / t.1 as f64)
    };
    let per_op = [
        (
            "alloc",
            ["core.alloc_us", "pool.alloc_us", "service.alloc_us"],
        ),
        ("free", ["core.free_us", "pool.free_us", "service.free_us"]),
    ];
    for (op, [core_m, pool_m, svc_m]) in per_op {
        let d = mean(0, &format!("core.{op}"));
        let pl = mean(1, &format!("pool.{op}"));
        let sv = mean(2, &format!("service.{op}"));
        rep.set(core_m, d / 1e3);
        rep.set(pool_m, (pl - d) / 1e3);
        rep.set(svc_m, (sv - pl) / 1e3);
    }
    rep.set("pool.drain_us", mean(1, "pool.drain") / 1e3);
    let pool_ns = io_ns(pool, "pool") / (w + r);
    rep.details.push(format!(
        "replayed ns per entry: bpc {:.1}, core {:.1}, pool {:.1}, service {:.1}; traced run {traced_ns:.1} per client",
        (cw + cr) / (w + r),
        io_ns(dev, "core") / (w + r),
        pool_ns,
        io_ns(svc, "service") / (w + r)
    ));
    // Each client's busy time over the layers' share of it: the rest is
    // the harness loop and the two clients contending.
    rep.set("harness.unattributed_frac", 1.0 - pool_ns / traced_ns);
    for name in [
        "core.retarget_us",
        "pool.retarget_us",
        "core.retargets",
        "core.moved_sectors",
        "service.reject_frac",
        "service.demote_frac",
        "bpc.size_class_ns_per_entry",
        "gpu_sim.run_s",
        "gpu_sim.accesses_per_s",
        "gpu_sim.cycles",
    ] {
        rep.set(name, 0.0);
    }
    let mut codec_rounds = codec_rounds;
    let mut threads: Vec<(String, Tracer)> = traced
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            (
                format!("client{}.round{}", i % CLIENTS, i / CLIENTS),
                r.tracer,
            )
        })
        .collect();
    threads.push(("replay.bpc".into(), codec_rounds.swap_remove(0)));
    for (layer, (st, mut rounds)) in Layer::ALL.iter().zip(layers) {
        threads.push((format!("replay.{}", layer.name()), rounds.swap_remove(0)));
        threads.push((format!("replay.{}.structure", layer.name()), st));
    }
    rep.traces = threads;
}

/// Replays one pass per client at every boundary, `REPLAY_ROUNDS` times,
/// the boundaries interleaved within each round so that a slow spell of
/// the host falls on all of them. Each system is built once from the
/// post-pass contents (a pass leaves them as it found them), then checked
/// against the shadow, drained and emptied. Returns the codec rounds, each
/// layer's structural spans and rounds, and the mean compressed size.
#[allow(clippy::type_complexity)]
fn replay(
    input: &Input,
    epoch: Instant,
    rep: &mut Report,
) -> Result<(Vec<Tracer>, Vec<(Tracer, Vec<Tracer>)>, f64), String> {
    let mut systems = Vec::new();
    let mut layers = Vec::new();
    for layer in Layer::ALL {
        let mut structure = Tracer::new(true, epoch);
        systems.push(build(layer, input, &input.state, &mut structure)?);
        layers.push((structure, Vec::new()));
    }
    let mut codec_rounds = Vec::new();
    let mut bytes = 0.0;
    for _ in 0..REPLAY_ROUNDS {
        let mut codec = CodecBoundary::new();
        let mut tr = Tracer::new(true, epoch);
        let mut state: Vec<_> = input
            .state
            .iter()
            .zip(&input.slots)
            .map(|(img, &(_, t))| Some((img.clone(), t)))
            .collect();
        for client in &input.clients {
            let res =
                ops::codec_replay(&mut tr, &mut codec, &mut state, &client.ops, &client.arena);
            rep.check("codec replay", res);
        }
        bytes = codec.bytes as f64 / codec.compressed as f64;
        codec_rounds.push(tr);
        for ((sys, slots), (_, rounds)) in systems.iter().zip(&mut layers) {
            let mut tr = Tracer::new(true, epoch);
            for client in &input.clients {
                let mut r = Runner::new(sys, &client.arena, &[], slots.clone());
                for (i, op) in client.ops.iter().enumerate() {
                    tr.set_op(i as u64);
                    rep.attempted += 1;
                    if let o @ (Outcome::Failed(_) | Outcome::Rejected | Outcome::Skipped) =
                        r.exec(&mut tr, op)
                    {
                        rep.fail(1, format!("{} replay: {op:?}: {o:?}", sys.layer().name()));
                    }
                }
            }
            rounds.push(tr);
        }
    }
    for ((sys, slots), (structure, _)) in systems.into_iter().zip(&mut layers) {
        rep.check(
            &format!("shadow after {} replay", sys.layer().name()),
            verify(&sys, &slots, &input.state),
        );
        sys.drain(structure);
        let mut r = Runner::new(&sys, &[], &[], slots);
        for i in 0..input.slots.len() {
            if r.exec(structure, &Op::Free { slot: i as u32 }) != Outcome::Freed {
                return Err(format!(
                    "{}: free of allocation {i} failed",
                    sys.layer().name()
                ));
            }
        }
    }
    Ok((codec_rounds, layers, bytes))
}
