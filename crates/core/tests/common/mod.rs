//! Single-entry I/O for the device suites: one-element batches through a
//! [`DeviceHandle`](buddy_core::DeviceHandle), the device's only entry-I/O
//! surface.

use bpc::{Entry, ENTRY_BYTES};
use buddy_core::{AllocId, BuddyDevice, DeviceError, EntryState};

/// Writes one entry and returns the state its metadata records.
pub fn put(
    dev: &BuddyDevice,
    id: AllocId,
    index: u64,
    entry: &Entry,
) -> Result<EntryState, DeviceError> {
    let io = dev.handle();
    io.write_entries(id, index, std::slice::from_ref(entry))?;
    io.entry_state(id, index)
}

/// Reads one entry.
pub fn get(dev: &BuddyDevice, id: AllocId, index: u64) -> Result<Entry, DeviceError> {
    let mut out = [0u8; ENTRY_BYTES];
    dev.handle()
        .read_entries(id, index, std::slice::from_mut(&mut out))?;
    Ok(out)
}
