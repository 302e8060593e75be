//! Op streams: what a workload asks of the system, executed through the
//! adapter at any layer, and replayed at the codec boundary.

use crate::adapter::{self, CodecBoundary, Fail, Handle, Sys};
use crate::span::Tracer;
use bpc::{Entry, ENTRY_BYTES};
use buddy_core::{RetargetPolicy, StateWindow, TargetRatio};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Alloc {
        slot: u32,
        tenant: u8,
        entries: u32,
        target: TargetRatio,
    },
    Free {
        slot: u32,
    },
    /// Writes `arena[src..src + n]` at `start`.
    Write {
        slot: u32,
        start: u32,
        n: u32,
        src: u32,
    },
    Read {
        slot: u32,
        start: u32,
        n: u32,
    },
    /// Asks the retarget policy about `slot`, given the state window of
    /// its contents at this point of the stream (`windows[window]`).
    Adapt {
        slot: u32,
        window: u32,
    },
    /// A migration an `Adapt` decided, as replayed below the service.
    Retarget {
        slot: u32,
        target: TargetRatio,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Entries moved by a read or write.
    Io(u32),
    Granted {
        target: TargetRatio,
        demoted: bool,
    },
    Rejected,
    Freed,
    /// The policy kept the current target.
    Kept,
    Migrated {
        target: TargetRatio,
        moved: u64,
    },
    /// The op's allocation was never admitted, so the op was not issued.
    Skipped,
    Failed(String),
}

/// Executes ops against one system, tracking the live allocations.
pub struct Runner<'a> {
    pub sys: &'a Sys,
    arena: &'a [Entry],
    windows: &'a [StateWindow],
    policy: RetargetPolicy,
    pub slots: Slots,
    buf: Vec<Entry>,
}

/// The live allocations by slot, with their current targets.
pub type Slots = Vec<Option<(Handle, TargetRatio)>>;

impl<'a> Runner<'a> {
    /// A runner whose allocation slots start as `slots`.
    pub fn new(sys: &'a Sys, arena: &'a [Entry], windows: &'a [StateWindow], slots: Slots) -> Self {
        Self {
            sys,
            arena,
            windows,
            policy: RetargetPolicy::default(),
            slots,
            buf: Vec::new(),
        }
    }

    fn live(&self, slot: u32) -> Option<(Handle, TargetRatio)> {
        self.slots.get(slot as usize).copied().flatten()
    }

    pub fn exec(&mut self, tr: &mut Tracer, op: &Op) -> Outcome {
        let failed = |f: Fail| match f {
            Fail::Rejected => Outcome::Rejected,
            Fail::Error(m) => Outcome::Failed(m),
        };
        match *op {
            Op::Alloc {
                slot,
                tenant,
                entries,
                target,
            } => {
                let name = format!("a{slot}");
                match self
                    .sys
                    .alloc(tr, tenant as usize, &name, u64::from(entries), target)
                {
                    Ok((h, granted, demoted)) => {
                        if self.slots.len() <= slot as usize {
                            self.slots.resize(slot as usize + 1, None);
                        }
                        self.slots[slot as usize] = Some((h, granted));
                        Outcome::Granted {
                            target: granted,
                            demoted,
                        }
                    }
                    Err(f) => failed(f),
                }
            }
            Op::Free { slot } => {
                let Some((h, _)) = self.live(slot) else {
                    return Outcome::Skipped;
                };
                self.slots[slot as usize] = None;
                match self.sys.free(tr, h) {
                    Ok(()) => Outcome::Freed,
                    Err(f) => failed(f),
                }
            }
            Op::Write {
                slot,
                start,
                n,
                src,
            } => {
                let Some((h, _)) = self.live(slot) else {
                    return Outcome::Skipped;
                };
                let data = &self.arena[src as usize..(src + n) as usize];
                match self.sys.write(tr, h, u64::from(start), data) {
                    Ok(()) => Outcome::Io(n),
                    Err(f) => failed(f),
                }
            }
            Op::Read { slot, start, n } => {
                let Some((h, _)) = self.live(slot) else {
                    return Outcome::Skipped;
                };
                self.buf.resize(n as usize, [0u8; ENTRY_BYTES]);
                match self.sys.read(tr, h, u64::from(start), &mut self.buf) {
                    Ok(()) => Outcome::Io(n),
                    Err(f) => failed(f),
                }
            }
            Op::Adapt { slot, window } => {
                let Some((_, current)) = self.live(slot) else {
                    return Outcome::Skipped;
                };
                match adapter::recommend(&self.policy, current, &self.windows[window as usize]) {
                    Some(target) => self.exec(tr, &Op::Retarget { slot, target }),
                    None => Outcome::Kept,
                }
            }
            Op::Retarget { slot, target } => {
                let Some((h, _)) = self.live(slot) else {
                    return Outcome::Skipped;
                };
                match self.sys.retarget(tr, h, target) {
                    Ok(moved) => {
                        self.slots[slot as usize] = Some((h, target));
                        Outcome::Migrated { target, moved }
                    }
                    Err(f) => failed(f),
                }
            }
        }
    }

    /// Reads `slot` back and compares it with the shadow `expected`,
    /// naming the first differing entry and byte.
    pub fn verify(&mut self, tr: &mut Tracer, slot: u32, expected: &[Entry]) -> Result<(), String> {
        let (h, _) = self
            .live(slot)
            .ok_or_else(|| format!("allocation {slot} is not live"))?;
        let mut got = vec![[0u8; ENTRY_BYTES]; 64];
        for (c, want) in expected.chunks(64).enumerate() {
            let got = &mut got[..want.len()];
            let start = (c * 64) as u64;
            match self.sys.read(tr, h, start, got) {
                Ok(()) => {}
                Err(Fail::Rejected) => return Err(format!("allocation {slot}: read refused")),
                Err(Fail::Error(m)) => return Err(format!("allocation {slot}: read failed: {m}")),
            }
            if let Some(msg) = compare(slot, start, want, got) {
                return Err(msg);
            }
        }
        Ok(())
    }
}

/// Describes the first difference between a shadow run and what was read.
pub fn compare(slot: u32, start: u64, want: &[Entry], got: &[Entry]) -> Option<String> {
    want.iter().zip(got).enumerate().find_map(|(i, (w, g))| {
        let byte = w.iter().zip(g.iter()).position(|(a, b)| a != b)?;
        Some(format!(
            "allocation {slot} entry {} byte {byte}: shadow has {:#04x}, read {:#04x}",
            start + i as u64,
            w[byte],
            g[byte]
        ))
    })
}

/// The stream the layers below the service replay: admitted allocations
/// at their granted targets, and only the migrations that happened.
pub fn concrete(ops: &[Op], outcomes: &[Outcome]) -> Vec<Op> {
    ops.iter()
        .zip(outcomes)
        .filter_map(|(op, outcome)| match (*op, outcome) {
            (_, Outcome::Skipped | Outcome::Rejected | Outcome::Kept | Outcome::Failed(_)) => None,
            (
                Op::Alloc {
                    slot,
                    tenant,
                    entries,
                    ..
                },
                Outcome::Granted { target, .. },
            ) => Some(Op::Alloc {
                slot,
                tenant,
                entries,
                target: *target,
            }),
            (Op::Adapt { slot, .. }, Outcome::Migrated { target, .. }) => Some(Op::Retarget {
                slot,
                target: *target,
            }),
            (op, _) => Some(op),
        })
        .collect()
}

/// Replays a concrete stream at the codec boundary: the compressions and
/// decompressions the device performs for it, on the exact entries.
/// `state` holds the contents and target of each allocation at the start.
pub fn codec_replay(
    tr: &mut Tracer,
    codec: &mut CodecBoundary,
    state: &mut Vec<Option<(Vec<Entry>, TargetRatio)>>,
    ops: &[Op],
    arena: &[Entry],
) -> Result<(), String> {
    for (i, op) in ops.iter().enumerate() {
        tr.set_op(i as u64);
        match *op {
            Op::Alloc {
                slot,
                entries,
                target,
                ..
            } => {
                if state.len() <= slot as usize {
                    state.resize(slot as usize + 1, None);
                }
                state[slot as usize] = Some((vec![[0u8; ENTRY_BYTES]; entries as usize], target));
            }
            Op::Free { slot } => state[slot as usize] = None,
            Op::Write {
                slot,
                start,
                n,
                src,
            } => {
                let data = &arena[src as usize..(src + n) as usize];
                codec.compress(tr, "bpc.compress", data);
                let (image, _) = state[slot as usize]
                    .as_mut()
                    .ok_or("write to a dead allocation")?;
                image[start as usize..(start + n) as usize].copy_from_slice(data);
            }
            Op::Read { slot, start, n } => {
                let (image, target) = state[slot as usize]
                    .as_ref()
                    .ok_or("read of a dead allocation")?;
                codec.decompress(
                    tr,
                    "bpc.decompress",
                    &image[start as usize..(start + n) as usize],
                    *target,
                )?;
            }
            Op::Retarget { slot, target } => {
                let (image, old) = state[slot as usize]
                    .as_mut()
                    .ok_or("retarget of a dead allocation")?;
                codec.decompress(tr, "bpc.retarget", image, *old)?;
                codec.compress(tr, "bpc.retarget", image);
                *old = target;
            }
            Op::Adapt { .. } => return Err("codec replay needs a concrete stream".into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{Layer, SysConfig};
    use buddy_core::DeviceConfig;
    use buddy_service::AdmissionPolicy;

    fn entry(seed: u8) -> Entry {
        let mut e = [0u8; ENTRY_BYTES];
        for (i, b) in e.iter_mut().enumerate() {
            *b = seed.wrapping_mul(31).wrapping_add((i % 7) as u8);
        }
        e
    }

    #[test]
    fn a_corrupted_shadow_byte_fails_the_read_back() {
        let cfg = SysConfig {
            shards: 2,
            shard: DeviceConfig {
                device_capacity: 1 << 20,
                carve_out_factor: 3,
            },
            tenants: vec![("t".into(), u64::MAX, AdmissionPolicy::Reject)],
        };
        let arena: Vec<Entry> = (0..100).map(entry).collect();
        for layer in Layer::ALL {
            let sys = Sys::new(layer, &cfg);
            let mut r = Runner::new(&sys, &arena, &[], Vec::new());
            let mut tr = Tracer::off();
            let alloc = Op::Alloc {
                slot: 0,
                tenant: 0,
                entries: 100,
                target: TargetRatio::R2,
            };
            assert!(matches!(r.exec(&mut tr, &alloc), Outcome::Granted { .. }));
            let write = Op::Write {
                slot: 0,
                start: 0,
                n: 100,
                src: 0,
            };
            assert_eq!(r.exec(&mut tr, &write), Outcome::Io(100));
            let mut shadow = arena.clone();
            assert_eq!(r.verify(&mut tr, 0, &shadow), Ok(()));
            shadow[70][5] ^= 1;
            let err = r.verify(&mut tr, 0, &shadow).unwrap_err();
            assert!(err.contains("entry 70 byte 5"), "{err}");
        }
    }

    #[test]
    fn the_concrete_stream_drops_what_was_not_done() {
        let ops = [
            Op::Alloc {
                slot: 0,
                tenant: 0,
                entries: 64,
                target: TargetRatio::R4,
            },
            Op::Alloc {
                slot: 1,
                tenant: 0,
                entries: 64,
                target: TargetRatio::R4,
            },
            Op::Read {
                slot: 1,
                start: 0,
                n: 8,
            },
            Op::Adapt { slot: 0, window: 0 },
        ];
        let outcomes = [
            Outcome::Granted {
                target: TargetRatio::R2,
                demoted: true,
            },
            Outcome::Rejected,
            Outcome::Skipped,
            Outcome::Migrated {
                target: TargetRatio::R1,
                moved: 3,
            },
        ];
        let c = concrete(&ops, &outcomes);
        assert_eq!(c.len(), 2);
        assert!(matches!(
            c[0],
            Op::Alloc {
                target: TargetRatio::R2,
                ..
            }
        ));
        assert!(matches!(
            c[1],
            Op::Retarget {
                slot: 0,
                target: TargetRatio::R1
            }
        ));
    }
}
