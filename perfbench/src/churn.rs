//! `tenant-churn`: an open loop on one load thread through the service.
//! Three tenants allocate and free small regions with churn lifetimes, do
//! small reads and writes, and periodically ask the retarget policy about
//! one of their allocations as its data drifts; one tenant keeps asking
//! for more than its quota.

use crate::adapter::{self, CodecBoundary, Layer, Sys, SysConfig};
use crate::ops::{self, Op, Outcome, Runner};
use crate::report::{self, exact, Report};
use crate::span::{median_totals, Tracer};
use crate::stats::{self, Better};
use crate::Args;
use bpc::{CompressedBuf, Entry, SizeClass, SizeHistogram};
use buddy_core::{AllocationProfile, DeviceConfig, EntryState, StateWindow};
use buddy_service::AdmissionPolicy;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::entry_gen::{mix, unit_from_hash};
use workloads::{drift_allocations, ChurnConfig, ChurnOp, ChurnTrace, Lifetime};

const SETUPS: usize = 8;
/// `(name, policy, quota as a multiple of its expected demand)`.
const TENANTS: [(&str, AdmissionPolicy, f64); 3] = [
    ("steady", AdmissionPolicy::Reject, 4.0),
    ("bursty", AdmissionPolicy::Demote, 0.6),
    ("noisy", AdmissionPolicy::Reject, 0.5),
];
/// Which tenant issues each event, cyclically: the noisy one twice as often.
const TURNS: [usize; 4] = [0, 1, 2, 2];
const LIVE_PER_TENANT: usize = 16;
const MIN_ENTRIES: u64 = 64;
const MAX_ENTRIES: u64 = 256;
/// Every this many events a tenant asks the policy about one allocation.
const ADAPT_EVERY: usize = 64;
/// Share of small I/O ops that are writes. Reads then make up about half
/// of all ops, so the median op is a read well inside its own class
/// rather than on the edge between reads and writes, where it would jump
/// between the two from run to run.
const WRITE_SHARE: f64 = 0.25;
/// The drifting input data: chunks of `CHUNK` entries whose phase rises
/// with their index; ops take data from the chunk matching their position
/// in the stream.
const CHUNKS: usize = 256;
const CHUNK: usize = 256;
/// Ops of the unpaced pass per second of `--seconds`.
const UNPACED_OPS_PER_S: f64 = 1_000.0;
/// Share of `--seconds` spent at each fixed offered rate.
const PACED_SHARE: f64 = 0.35;
/// Fixed offered rates (ops/s) and the p99 latency limit.
const LO_RATE: f64 = 4_000.0;
const HI_RATE: f64 = 8_000.0;
const LIMIT_US: f64 = 1000.0;

struct Input {
    cfg: SysConfig,
    ops: Vec<Op>,
    arena: Vec<Entry>,
    windows: Vec<StateWindow>,
    /// Op index where the unpaced, low-rate and high-rate phases end.
    ends: [usize; 3],
    /// Contents of every slot live at each phase end, as arena indices
    /// (allocations are filled whole when they are made).
    shadows: [BTreeMap<u32, Vec<u32>>; 3],
}

fn window_of(shadow: &[u32], classes: &[SizeClass]) -> StateWindow {
    let mut w = StateWindow::new();
    for &i in shadow {
        w.observe(match classes[i as usize] {
            SizeClass::B0 => EntryState::Zero,
            c => EntryState::Compressed {
                sectors: c.sectors().clamp(1, 4),
            },
        });
    }
    w
}

fn generate(seed: u64, ends: [usize; 3], tr: &mut Tracer) -> Input {
    let specs = drift_allocations();
    let mut arena = Vec::with_capacity(CHUNKS * CHUNK);
    for c in 0..CHUNKS {
        let spec = &specs[c % specs.len()];
        let phase = c as f64 / (CHUNKS - 1) as f64;
        let s = mix(&[seed, c as u64]);
        arena.extend((0..CHUNK as u64).map(|i| spec.entry_at(s, i, phase)));
    }
    let mut scratch = CompressedBuf::new();
    let classes: Vec<SizeClass> = arena
        .iter()
        .map(|e| adapter::class_of(e, &mut scratch))
        .collect();

    let mut traces: Vec<ChurnTrace> = (0..TENANTS.len())
        .map(|t| {
            ChurnTrace::new(ChurnConfig {
                live_target: LIVE_PER_TENANT,
                min_entries: MIN_ENTRIES,
                max_entries: MAX_ENTRIES,
                lifetime: Lifetime::Uniform {
                    min_ops: 8,
                    max_ops: 64,
                },
                seed: mix(&[seed, 0xC4, t as u64]),
            })
        })
        .collect();
    // Per tenant: live (key, slot) pairs in allocation order.
    let mut live: Vec<Vec<(u64, u32)>> = vec![Vec::new(); TENANTS.len()];
    let mut shadow: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut shadows: [BTreeMap<u32, Vec<u32>>; 3] = Default::default();
    let mut ops = Vec::with_capacity(ends[2] + 1);
    let mut windows = Vec::new();
    let mut next_slot = 0u32;
    let total = ends[2];
    let mut event = 0usize;
    let mut actual = [0usize; 3];
    while ops.len() < total {
        let t = TURNS[event % TURNS.len()];
        let draw = |tag: u64| mix(&[seed, event as u64, tag]);
        let chunk = (ops.len() * CHUNKS / total).min(CHUNKS - 1);
        if event % ADAPT_EVERY == ADAPT_EVERY - 1 && !live[t].is_empty() {
            let (_, slot) = live[t][(event / ADAPT_EVERY) % live[t].len()];
            windows.push(window_of(&shadow[&slot], &classes));
            ops.push(Op::Adapt {
                slot,
                window: windows.len() as u32 - 1,
            });
        } else if live[t].len() < 2 || unit_from_hash(draw(1)) < 0.2 {
            match traces[t].next().expect("churn traces are infinite") {
                ChurnOp::Alloc { key, entries } => {
                    let slot = next_slot;
                    next_slot += 1;
                    let src = chunk * CHUNK;
                    let fill: Vec<u32> = (src..src + entries as usize).map(|i| i as u32).collect();
                    let mut histogram = SizeHistogram::new();
                    fill.iter()
                        .for_each(|&i| histogram.record(classes[i as usize]));
                    let profile = AllocationProfile {
                        name: format!("a{slot}"),
                        entries,
                        histogram,
                    };
                    let target = adapter::profile(tr, &[profile]).choices[0].target;
                    ops.push(Op::Alloc {
                        slot,
                        tenant: t as u8,
                        entries: entries as u32,
                        target,
                    });
                    ops.push(Op::Write {
                        slot,
                        start: 0,
                        n: entries as u32,
                        src: src as u32,
                    });
                    shadow.insert(slot, fill);
                    live[t].push((key, slot));
                }
                ChurnOp::Free { key } => {
                    let at = live[t]
                        .iter()
                        .position(|&(k, _)| k == key)
                        .expect("frees name live keys");
                    let (_, slot) = live[t].remove(at);
                    shadow.remove(&slot);
                    ops.push(Op::Free { slot });
                }
            }
        } else {
            let (_, slot) = live[t][(draw(2) % live[t].len() as u64) as usize];
            let entries = shadow[&slot].len() as u64;
            let n = 8u64 << (draw(3) % 3);
            let start = draw(4) % (entries - n + 1);
            if unit_from_hash(draw(5)) < WRITE_SHARE {
                let src = chunk * CHUNK + (draw(6) % (CHUNK as u64 - n)) as usize;
                let s = shadow.get_mut(&slot).expect("live slot");
                for k in 0..n as usize {
                    s[start as usize + k] = (src + k) as u32;
                }
                ops.push(Op::Write {
                    slot,
                    start: start as u32,
                    n: n as u32,
                    src: src as u32,
                });
            } else {
                ops.push(Op::Read {
                    slot,
                    start: start as u32,
                    n: n as u32,
                });
            }
        }
        event += 1;
        // An event can emit two ops, so a phase ends at the first event
        // boundary at or past its share.
        for p in 0..3 {
            if ops.len() >= ends[p] && actual[p] == 0 {
                actual[p] = ops.len();
                shadows[p] = shadow.clone();
            }
        }
    }
    let ends = actual;

    // Quotas in device bytes, as multiples of the demand a tenant's live
    // set places at 2x.
    let demand = LIVE_PER_TENANT as f64 * (MIN_ENTRIES + MAX_ENTRIES) as f64 / 2.0 * 64.0;
    let cfg = SysConfig {
        shards: 2,
        shard: DeviceConfig {
            device_capacity: 2 << 20,
            carve_out_factor: 3,
        },
        tenants: TENANTS
            .iter()
            .map(|&(name, policy, share)| (name.to_string(), (demand * share) as u64, policy))
            .collect(),
    };
    Input {
        cfg,
        ops,
        arena,
        windows,
        ends,
        shadows,
    }
}

fn verify(r: &mut Runner, shadow: &BTreeMap<u32, Vec<u32>>, arena: &[Entry]) -> Result<(), String> {
    let mut quiet = Tracer::off();
    let live: Vec<u32> = (0..r.slots.len() as u32)
        .filter(|&s| r.slots[s as usize].is_some())
        .collect();
    for slot in live {
        let want: Vec<Entry> = shadow
            .get(&slot)
            .ok_or(format!("allocation {slot} is live but the shadow freed it"))?
            .iter()
            .map(|&i| arena[i as usize])
            .collect();
        r.verify(&mut quiet, slot, &want)?;
    }
    Ok(())
}

#[derive(Default)]
struct Phase {
    /// Service time of each issued op.
    service_ns: Vec<u32>,
    /// Latency from due time of each issued op (paced phases).
    lat_us: Vec<f64>,
    wait_us: Vec<f64>,
    /// How late the load thread started ops that found it idle.
    lag_us: Vec<f64>,
    outcomes: Vec<Outcome>,
    entries: u64,
    wall_s: f64,
    runqueue_wait_ns: u64,
}

/// Runs `ops` in order, back to back or paced at `rate` from `due`.
fn execute(
    r: &mut Runner,
    tr: &mut Tracer,
    ops: &[Op],
    first: usize,
    pace: Option<(&[f64], f64)>,
    rep: &mut Report,
) -> Phase {
    let mut ph = Phase::default();
    let rq0 = report::runqueue_wait_ns();
    let t0 = Instant::now();
    let mut free_at = t0;
    for (i, op) in ops.iter().enumerate() {
        let due = pace.map(|(due, rate)| t0 + Duration::from_secs_f64((due[i] - due[0]) / rate));
        if let Some(due) = due {
            // Spin rather than sleep: a sleeping thread wakes late by the
            // timer slack and the scheduler's whim, which would be measured
            // as the program's latency.
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        tr.set_op((first + i) as u64);
        let start = Instant::now();
        let o = r.exec(tr, op);
        let end = Instant::now();
        if o != Outcome::Skipped {
            rep.attempted += 1;
            ph.service_ns.push((end - start).as_nanos() as u32);
            if let Some(due) = due {
                ph.lat_us.push((end - due).as_secs_f64() * 1e6);
                ph.wait_us
                    .push(start.saturating_duration_since(due).as_secs_f64() * 1e6);
                if free_at <= due {
                    ph.lag_us.push((start - due).as_secs_f64() * 1e6);
                }
            }
        }
        free_at = end;
        match &o {
            Outcome::Io(n) => ph.entries += u64::from(*n),
            Outcome::Failed(m) => rep.fail(1, format!("op {}: {op:?}: {m}", first + i)),
            _ => {}
        }
        ph.outcomes.push(o);
    }
    ph.wall_s = t0.elapsed().as_secs_f64();
    ph.runqueue_wait_ns = report::runqueue_wait_ns().saturating_sub(rq0);
    ph
}

fn phase_ends(seconds: f64) -> [usize; 3] {
    let un = (UNPACED_OPS_PER_S * seconds) as usize;
    let lo = un + (LO_RATE * PACED_SHARE * seconds) as usize;
    [un, lo, lo + (HI_RATE * PACED_SHARE * seconds) as usize]
}

/// Admission outcomes of the allocations among `ops`: (attempts, grants,
/// rejects, demotes).
fn admissions(ops: &[Op], outcomes: &[Outcome]) -> [u64; 4] {
    let mut a = [0u64; 4];
    let allocs = ops
        .iter()
        .zip(outcomes)
        .filter(|(op, _)| matches!(op, Op::Alloc { .. }));
    for (_, o) in allocs {
        match o {
            Outcome::Granted { demoted, .. } => {
                a[0] += 1;
                a[1] += 1;
                a[3] += u64::from(*demoted);
            }
            Outcome::Rejected => {
                a[0] += 1;
                a[2] += 1;
            }
            _ => {}
        }
    }
    a
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let ends = phase_ends(args.seconds);
    let mut setup_s = Vec::new();
    let mut input = None;
    let mut gen_tr = Tracer::off();
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(input.take());
        let t0 = Instant::now();
        let mut tr = Tracer::new(true, t0);
        let i = generate(args.seed, ends, &mut tr);
        drop(Sys::new(Layer::Service, &i.cfg));
        setup_s.push(t0.elapsed().as_secs_f64());
        input = Some(i);
        gen_tr = tr;
    }
    let input = input.expect("at least one set-up");
    rep.set("setup_s", stats::best_quarter(&setup_s, Better::Lower));
    rep.detail("setup_s", "s", &setup_s);
    let profile = gen_tr
        .totals()
        .get("core.choose_targets")
        .copied()
        .unwrap_or((0, 1));
    rep.set("core.profile_us", profile.0 as f64 / 1e3 / profile.1 as f64);
    rep.set(
        "workloads.gen_s",
        setup_s[setup_s.len() - 1] - profile.0 as f64 / 1e9,
    );
    rep.set("workloads.snapshot_s", 0.0);

    let epoch = Instant::now();
    if args.trace {
        // Alternate untraced and traced unpaced passes, each on a fresh
        // service, then run the measured phases for the counts.
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        let mut traced = None;
        let mut tr = Tracer::off();
        for _ in 0..TRACE_ROUNDS {
            plain_s += unpaced(&input, &mut Tracer::off(), &mut rep).wall_s;
            tr = Tracer::new(true, epoch);
            let ph = unpaced(&input, &mut tr, &mut rep);
            traced_s += ph.wall_s;
            traced = Some(ph);
        }
        rep.set("harness.trace_overhead_frac", traced_s / plain_s - 1.0);
        let (_, paced) = run_phases(&input, args.seed, 0, &mut rep);
        per_layer(
            &input,
            &traced.expect("at least one round"),
            &paced,
            tr,
            epoch,
            &mut rep,
        );
    } else {
        // The unpaced pass runs several times, spread over the run; each
        // metric is the mean of the best quarter of the passes.
        let (passes, _) = run_phases(&input, args.seed, UNPACED_PASSES - 1, &mut rep);
        let per_pass = |better: Better, f: &dyn Fn(&Phase) -> f64| {
            stats::best_quarter(&passes.iter().map(f).collect::<Vec<_>>(), better)
        };
        let service_us = |ph: &Phase| {
            ph.service_ns
                .iter()
                .map(|&s| f64::from(s) / 1e3)
                .collect::<Vec<_>>()
        };
        rep.set(
            "entries_per_s",
            per_pass(Better::Higher, &|ph| ph.entries as f64 / ph.wall_s),
        );
        rep.set("repro_s", per_pass(Better::Lower, &|ph| ph.wall_s));
        rep.set(
            "batch_p50_us",
            per_pass(Better::Lower, &|ph| stats::median(&service_us(ph))),
        );
        rep.set(
            "batch_p99_us",
            per_pass(Better::Lower, &|ph| {
                stats::percentile(&service_us(ph), 0.99)
            }),
        );
        // The open-loop metrics feed each unpaced pass's service times to
        // the queue model at the fixed rates. The real paced phases print
        // their own latencies beside them, but those also time how much of
        // the idle load thread's cache the host's other work evicted
        // between ops: at 4,000 ops/s that moved their median from 1.25x to
        // 1.8x the unpaced one from run to run.
        let model = |ph: &Phase| stats::OpenLoop::new(&ph.service_ns);
        let us = |v: Vec<f64>| v.into_iter().map(|l| l / 1e3).collect::<Vec<_>>();
        rep.set(
            "op_p50_us.lo",
            per_pass(Better::Lower, &|ph| {
                stats::median(&us(model(ph).latencies(LO_RATE)))
            }),
        );
        rep.set(
            "op_p99_us.lo",
            per_pass(Better::Lower, &|ph| {
                stats::percentile(&us(model(ph).latencies(LO_RATE)), 0.99)
            }),
        );
        rep.set(
            "op_p99_us.hi",
            per_pass(Better::Lower, &|ph| {
                stats::percentile(&us(model(ph).latencies(HI_RATE)), 0.99)
            }),
        );
        rep.set(
            "max_rate_ops_s",
            per_pass(Better::Higher, &|ph| model(ph).max_rate(LIMIT_US * 1e3)),
        );
        rep.detail(
            "op_service_us",
            "us",
            &passes.iter().flat_map(service_us).collect::<Vec<_>>(),
        );
        rep.detail(
            "unpaced_pass_s",
            "s",
            &passes.iter().map(|ph| ph.wall_s).collect::<Vec<_>>(),
        );
    }
    rep
}

/// Unpaced passes per untraced run.
const UNPACED_PASSES: usize = 16;
/// Each paced phase is cut into this many consecutive parts, each with
/// its own schedule and its own printed latency percentiles; the unpaced
/// passes run between parts.
const PACED_PARTS: usize = 12;

/// Rounds of the traced comparison, and replays at each boundary.
const TRACE_ROUNDS: usize = 2;
const REPLAY_ROUNDS: usize = 3;

/// The unpaced pass alone, on a fresh service.
fn unpaced(input: &Input, tr: &mut Tracer, rep: &mut Report) -> Phase {
    let sys = Sys::new(Layer::Service, &input.cfg);
    let mut r = Runner::new(&sys, &input.arena, &input.windows, Vec::new());
    execute(&mut r, tr, &input.ops[..input.ends[0]], 0, None, rep)
}

struct Paced {
    lo: Vec<Phase>,
    hi: Vec<Phase>,
}

/// The unpaced pass, then the low and high offered rates in
/// `PACED_PARTS` parts each, on one service, checking the shadow after
/// each phase; records the run's counts. Between paced parts it runs up to
/// `extra` more unpaced passes, each on a fresh service, so that the
/// unpaced samples spread over the whole run. Returns every unpaced pass.
fn run_phases(input: &Input, seed: u64, extra: usize, rep: &mut Report) -> (Vec<Phase>, Paced) {
    let sys = Sys::new(Layer::Service, &input.cfg);
    let mut r = Runner::new(&sys, &input.arena, &input.windows, Vec::new());
    let [e0, e1, e2] = input.ends;
    let mut quiet = Tracer::off();
    let mut passes = vec![execute(&mut r, &mut quiet, &input.ops[..e0], 0, None, rep)];
    // Capacity ratio after the unpaced pass and after every paced part:
    // the live set churns, so one reading would hang on which allocations
    // happen to be live at the end.
    let mut ratios = vec![sys.capacity_ratio()];
    rep.check(
        "shadow after unpaced pass",
        verify(&mut r, &input.shadows[0], &input.arena),
    );
    let mut paced = Paced {
        lo: Vec::new(),
        hi: Vec::new(),
    };
    for (k, (range, rate)) in [(e0..e1, LO_RATE), (e1..e2, HI_RATE)]
        .into_iter()
        .enumerate()
    {
        let part = range.len().div_ceil(PACED_PARTS);
        for (j, first) in range.clone().step_by(part).enumerate() {
            // The extra passes spread evenly over the parts of both rates.
            let due_passes = (k * PACED_PARTS + j + 1) * extra / (2 * PACED_PARTS);
            while passes.len() <= due_passes {
                passes.push(unpaced(input, &mut quiet, rep));
            }
            let ops = &input.ops[first..(first + part).min(range.end)];
            let due = stats::unit_arrivals(mix(&[seed, k as u64, j as u64]), ops.len());
            let ph = execute(&mut r, &mut quiet, ops, first, Some((&due, rate)), rep);
            ratios.push(sys.capacity_ratio());
            if k == 0 { &mut paced.lo } else { &mut paced.hi }.push(ph);
        }
        rep.check(
            &format!("shadow after the {} rate", ["low", "high"][k]),
            verify(&mut r, &input.shadows[k + 1], &input.arena),
        );
    }

    // The real paced latencies, per part. They are printed, not reported
    // as metrics (see `run`).
    for (name, phases, q) in [
        ("op_p50_us.lo", &paced.lo, 0.5),
        ("op_p99_us.lo", &paced.lo, 0.99),
        ("op_p99_us.hi", &paced.hi, 0.99),
    ] {
        let per_part: Vec<String> = phases
            .iter()
            .map(|ph| format!("{:.1}", stats::percentile(&ph.lat_us, q)))
            .collect();
        rep.details
            .push(format!("paced {name} of parts: [{}]", per_part.join(", ")));
    }
    let lat = |phases: &[Phase]| {
        phases
            .iter()
            .flat_map(|ph| ph.lat_us.iter().copied())
            .collect::<Vec<_>>()
    };
    rep.detail("op_us.lo", "us", &lat(&paced.lo));
    rep.detail("op_us.hi", "us", &lat(&paced.hi));
    let on_sys: Vec<&Phase> = std::iter::once(&passes[0])
        .chain(&paced.lo)
        .chain(&paced.hi)
        .collect();
    let wall_ns: f64 = on_sys.iter().map(|ph| ph.wall_s * 1e9).sum();
    let rq: f64 = on_sys.iter().map(|ph| ph.runqueue_wait_ns as f64).sum();
    rep.runqueue_wait_frac = rq / wall_ns;

    let st = sys.drain(&mut quiet);
    let capacity_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    rep.set("capacity_ratio", capacity_ratio);
    rep.set("buddy_access_frac", st.buddy_access_fraction());
    rep.set("core.fragmentation", sys.fragmentation());
    rep.set("core.retargets", st.retargets as f64);
    rep.set("core.moved_sectors", st.moved_sectors as f64);
    rep.set(
        "core.device_sectors_per_access",
        st.device_sectors as f64 / st.total_accesses() as f64,
    );
    rep.set(
        "core.buddy_sectors_per_access",
        st.buddy_sectors as f64 / st.total_accesses() as f64,
    );
    let outcomes: Vec<Outcome> = on_sys
        .iter()
        .flat_map(|ph| ph.outcomes.iter().cloned())
        .collect();
    let adm = admissions(&input.ops[..e2], &outcomes);
    rep.set("service.reject_frac", adm[2] as f64 / adm[0] as f64);
    rep.set("service.demote_frac", adm[3] as f64 / adm[1] as f64);
    rep.set(
        "pool.probes_per_alloc",
        sys.alloc_probes() as f64 / adm[1] as f64,
    );
    let mut c = |k: &str, v: String| rep.count(k, v);
    c("accesses", st.total_accesses().to_string());
    c("device_sectors", st.device_sectors.to_string());
    c("buddy_sectors", st.buddy_sectors.to_string());
    c("retargets", st.retargets.to_string());
    c("moved_sectors", st.moved_sectors.to_string());
    c("grants", adm[1].to_string());
    c("rejects", adm[2].to_string());
    c("demotes", adm[3].to_string());
    c("capacity_ratio", exact(capacity_ratio));
    c("fragmentation", exact(sys.fragmentation()));
    (passes, paced)
}

/// Self times from replaying the traced unpaced pass at every boundary:
/// the codec on the exact entries, then a fresh device, pool and service
/// per round; each layer's totals are the median of its rounds.
fn per_layer(
    input: &Input,
    traced: &Phase,
    paced: &Paced,
    traced_tr: Tracer,
    epoch: Instant,
    rep: &mut Report,
) {
    let ops = &input.ops[..input.ends[0]];
    let concrete = ops::concrete(ops, &traced.outcomes);
    let mut rounds: Vec<Vec<Tracer>> = (0..4).map(|_| Vec::new()).collect();
    let mut bytes = 0.0;
    for _ in 0..REPLAY_ROUNDS {
        let mut codec = CodecBoundary::new();
        let mut tr = Tracer::new(true, epoch);
        let res = ops::codec_replay(
            &mut tr,
            &mut codec,
            &mut Vec::new(),
            &concrete,
            &input.arena,
        );
        rep.check("codec replay", res);
        bytes = codec.bytes as f64 / codec.compressed as f64;
        rounds[0].push(tr);
        for (l, layer) in Layer::ALL.into_iter().enumerate() {
            // The service replays the stream as issued, admission included.
            let stream = if layer == Layer::Service {
                ops
            } else {
                &concrete[..]
            };
            let sys = Sys::new(layer, &input.cfg);
            let mut r = Runner::new(&sys, &input.arena, &input.windows, Vec::new());
            let mut tr = Tracer::new(true, epoch);
            for (i, op) in stream.iter().enumerate() {
                tr.set_op(i as u64);
                rep.attempted += 1;
                if let o @ Outcome::Failed(_) = r.exec(&mut tr, op) {
                    rep.fail(1, format!("{} replay: {op:?}: {o:?}", layer.name()));
                }
            }
            rep.check(
                &format!("shadow after {} replay", layer.name()),
                verify(&mut r, &input.shadows[0], &input.arena),
            );
            rounds[l + 1].push(tr);
        }
    }
    let totals: Vec<_> = rounds.iter().map(|r| median_totals(r)).collect();
    let get = |l: usize, name: &str| totals[l].get(name).copied().unwrap_or((0.0, 0));
    let ns = |l: usize, name: &str| get(l, name).0;
    let n = |l: usize, name: &str| get(l, name).1.max(1) as f64;

    let (mut w, mut r) = (0.0, 0.0);
    for op in &concrete {
        match op {
            Op::Write { n, .. } => w += f64::from(*n),
            Op::Read { n, .. } => r += f64::from(*n),
            _ => {}
        }
    }
    let (cw, cr) = (ns(0, "bpc.compress"), ns(0, "bpc.decompress"));
    rep.set("bpc.compress_ns_per_entry", cw / w);
    rep.set("bpc.decompress_ns_per_entry", cr / r);
    rep.set("bpc.bytes_per_entry", bytes);
    rep.count("bpc.bytes_per_entry", exact(bytes));
    rep.set("bpc.size_class_ns_per_entry", 0.0);
    rep.set("core.write_ns_per_entry", (ns(1, "core.write") - cw) / w);
    rep.set("core.read_ns_per_entry", (ns(1, "core.read") - cr) / r);
    rep.set(
        "pool.write_ns_per_entry",
        (ns(2, "pool.write") - ns(1, "core.write")) / w,
    );
    rep.set(
        "pool.read_ns_per_entry",
        (ns(2, "pool.read") - ns(1, "core.read")) / r,
    );
    let io = |l: usize, p: &str| ns(l, &format!("{p}.read")) + ns(l, &format!("{p}.write"));
    let io_n = n(3, "service.read") + n(3, "service.write");
    rep.set(
        "service.io_us",
        (io(3, "service") - io(2, "pool")) / io_n / 1e3,
    );
    let per_op = [
        (
            "alloc",
            ["core.alloc_us", "pool.alloc_us", "service.alloc_us"],
        ),
        ("free", ["core.free_us", "pool.free_us", "service.free_us"]),
    ];
    for (op, [core_m, pool_m, svc_m]) in per_op {
        let mean = |l: usize, p: &str| ns(l, &format!("{p}.{op}")) / n(l, &format!("{p}.{op}"));
        rep.set(core_m, mean(1, "core") / 1e3);
        rep.set(pool_m, (mean(2, "pool") - mean(1, "core")) / 1e3);
        rep.set(svc_m, (mean(3, "service") - mean(2, "pool")) / 1e3);
    }
    let retargets = n(1, "core.retarget");
    rep.set(
        "core.retarget_us",
        (ns(1, "core.retarget") - ns(0, "bpc.retarget")) / retargets / 1e3,
    );
    rep.set(
        "pool.retarget_us",
        (ns(2, "pool.retarget") - ns(1, "core.retarget")) / retargets / 1e3,
    );
    rep.set("pool.drain_us", 0.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let all = |phases: &[Phase], f: fn(&Phase) -> &Vec<f64>| {
        phases
            .iter()
            .flat_map(|ph| f(ph).iter().copied())
            .collect::<Vec<_>>()
    };
    rep.set(
        "service.queue_wait_us",
        mean(&all(&paced.hi, |ph| &ph.wait_us)),
    );
    let mut lags = all(&paced.lo, |ph| &ph.lag_us);
    lags.extend(all(&paced.hi, |ph| &ph.lag_us));
    rep.set("harness.gen_lag_us", mean(&lags));
    rep.set("harness.runqueue_wait_frac", rep.runqueue_wait_frac);
    let layered: f64 = ["alloc", "free", "read", "write", "retarget"]
        .iter()
        .map(|op| ns(3, &format!("service.{op}")))
        .sum();
    rep.set(
        "harness.unattributed_frac",
        1.0 - layered / (traced.wall_s * 1e9),
    );
    rep.details.push(format!(
        "replayed service ops {:.3} s of the traced pass's {:.3} s",
        layered / 1e9,
        traced.wall_s
    ));
    for name in ["gpu_sim.run_s", "gpu_sim.accesses_per_s", "gpu_sim.cycles"] {
        rep.set(name, 0.0);
    }
    let mut traces = vec![("load".to_string(), traced_tr)];
    for (label, mut r) in ["replay.bpc", "replay.core", "replay.pool", "replay.service"]
        .into_iter()
        .zip(rounds)
    {
        traces.push((label.to_string(), r.swap_remove(0)));
    }
    rep.traces = traces;
}
