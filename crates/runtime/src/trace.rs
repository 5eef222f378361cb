//! Memory-trace capture: the interpreter streams one event per memory
//! access into a [`TraceSink`]; the device simulator replays them against
//! its cache/SPM models. Streaming (rather than buffering) keeps memory use
//! flat for large launches.

use grover_ir::AddressSpace;

/// Kind of memory operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceOp {
    /// A memory read.
    Load,
    /// A memory write.
    Store,
}

/// One memory access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessEvent {
    /// Load or store.
    pub op: TraceOp,
    /// OpenCL address space of the access.
    pub space: AddressSpace,
    /// Byte address. For global/constant buffers this is a device-wide
    /// address (buffer bases are laid out by the [`crate::Context`]); for
    /// `__local` accesses it is the offset inside the work-group's local
    /// region (the device model decides where that region physically lives).
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u32,
    /// Linearised work-group id.
    pub group: u32,
    /// Linearised local work-item id within the group.
    pub local: u32,
    /// The load/store instruction's value id — a stable "program counter"
    /// used by the GPU coalescing model to group accesses issued by the
    /// same instruction across the work-items of a warp.
    pub pc: u32,
}

/// Consumer of the execution trace.
pub trait TraceSink {
    /// Called for every memory access, in per-work-item program order.
    /// Work-items of a group are interleaved at barrier granularity (all
    /// accesses of item A between two barriers precede item B's — matching
    /// how CPU OpenCL runtimes serialise work-items between barriers).
    fn access(&mut self, ev: &AccessEvent);

    /// A work-group-wide barrier was executed by group `group`.
    fn barrier(&mut self, group: u32, items: u32) {
        let _ = (group, items);
    }

    /// A work-item finished, having executed `instructions` IR instructions.
    fn workitem_done(&mut self, group: u32, local: u32, instructions: u64) {
        let _ = (group, local, instructions);
    }

    /// A work-group finished.
    fn workgroup_done(&mut self, group: u32) {
        let _ = group;
    }

    /// Whether this sink actually consumes [`AccessEvent`]s. A sink that
    /// ignores accesses (e.g. [`NullSink`]) returns `false` here, and the
    /// bytecode engine then skips building the events entirely.
    fn wants_events(&self) -> bool {
        true
    }
}

/// Discards everything (functional runs).
#[derive(Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn access(&mut self, _ev: &AccessEvent) {}

    fn wants_events(&self) -> bool {
        false
    }
}

/// Per-address-space load/store byte tallies.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceBytes {
    /// Bytes read from this space.
    pub loaded: u64,
    /// Bytes written to this space.
    pub stored: u64,
}

/// Counts accesses by space and op; cheap sanity-level statistics.
///
/// Every address space is counted — including `__private` and (the
/// statically-rejected, but still counted for totality) `__constant`
/// stores — so the per-space counters always reconcile with the
/// `bytes_loaded`/`bytes_stored` totals; see
/// [`CountingSink::loads_total`]/[`CountingSink::stores_total`].
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct CountingSink {
    /// `__global` loads.
    pub global_loads: u64,
    /// `__global` stores.
    pub global_stores: u64,
    /// `__local` loads.
    pub local_loads: u64,
    /// `__local` stores.
    pub local_stores: u64,
    /// `__constant` loads.
    pub constant_loads: u64,
    /// `__constant` stores (rejected by the interpreter, but a sink may
    /// be fed hand-built events; counted so totals reconcile).
    pub constant_stores: u64,
    /// `__private` loads.
    pub private_loads: u64,
    /// `__private` stores.
    pub private_stores: u64,
    /// Barrier rendezvous.
    pub barriers: u64,
    /// IR instructions executed.
    pub instructions: u64,
    /// Bytes read.
    pub bytes_loaded: u64,
    /// Bytes written.
    pub bytes_stored: u64,
    /// `__global` bytes moved.
    pub global_bytes: SpaceBytes,
    /// `__local` bytes moved.
    pub local_bytes: SpaceBytes,
    /// `__constant` bytes moved.
    pub constant_bytes: SpaceBytes,
    /// `__private` bytes moved.
    pub private_bytes: SpaceBytes,
}

impl CountingSink {
    /// Total loads across all address spaces (reconciles with
    /// `bytes_loaded`: both count every access exactly once).
    pub fn loads_total(&self) -> u64 {
        self.global_loads + self.local_loads + self.constant_loads + self.private_loads
    }

    /// Total stores across all address spaces.
    pub fn stores_total(&self) -> u64 {
        self.global_stores + self.local_stores + self.constant_stores + self.private_stores
    }

    /// The byte tallies of one address space.
    pub fn space_bytes(&self, space: AddressSpace) -> SpaceBytes {
        match space {
            AddressSpace::Global => self.global_bytes,
            AddressSpace::Local => self.local_bytes,
            AddressSpace::Constant => self.constant_bytes,
            AddressSpace::Private => self.private_bytes,
        }
    }
}

impl TraceSink for CountingSink {
    fn access(&mut self, ev: &AccessEvent) {
        let (count, bytes) = match ev.space {
            AddressSpace::Global => (
                [&mut self.global_loads, &mut self.global_stores],
                &mut self.global_bytes,
            ),
            AddressSpace::Local => (
                [&mut self.local_loads, &mut self.local_stores],
                &mut self.local_bytes,
            ),
            AddressSpace::Constant => (
                [&mut self.constant_loads, &mut self.constant_stores],
                &mut self.constant_bytes,
            ),
            AddressSpace::Private => (
                [&mut self.private_loads, &mut self.private_stores],
                &mut self.private_bytes,
            ),
        };
        match ev.op {
            TraceOp::Load => {
                *count[0] += 1;
                bytes.loaded += ev.bytes as u64;
                self.bytes_loaded += ev.bytes as u64;
            }
            TraceOp::Store => {
                *count[1] += 1;
                bytes.stored += ev.bytes as u64;
                self.bytes_stored += ev.bytes as u64;
            }
        }
    }

    fn barrier(&mut self, _group: u32, _items: u32) {
        self.barriers += 1;
    }

    fn workitem_done(&mut self, _group: u32, _local: u32, instructions: u64) {
        self.instructions += instructions;
    }
}

/// Buffers all events in memory (tests and small traces only).
///
/// Ordering contract (what tests may assert): events arrive in per-work-item
/// program order, with the work-items of a group interleaved at *barrier
/// granularity* — every access item A issues between two barriers precedes
/// every access item B issues in that same barrier interval. Completion
/// callbacks follow the same discipline: each `item_done` entry appears
/// after all of that item's accesses, and each `group_done` entry after all
/// of that group's `item_done` entries. Groups complete in group-linear
/// order.
#[derive(Default)]
pub struct VecSink {
    /// All access events, in emission order.
    pub events: Vec<AccessEvent>,
    /// `(group, items)` of each barrier rendezvous.
    pub barriers: Vec<(u32, u32)>,
    /// `(group, local, instructions)` of each completed work-item, in
    /// completion order.
    pub item_done: Vec<(u32, u32, u64)>,
    /// Linearised id of each completed work-group, in completion order.
    pub group_done: Vec<u32>,
}

impl TraceSink for VecSink {
    fn access(&mut self, ev: &AccessEvent) {
        self.events.push(*ev);
    }

    fn barrier(&mut self, group: u32, items: u32) {
        self.barriers.push((group, items));
    }

    fn workitem_done(&mut self, group: u32, local: u32, instructions: u64) {
        self.item_done.push((group, local, instructions));
    }

    fn workgroup_done(&mut self, group: u32) {
        self.group_done.push(group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(space: AddressSpace, op: TraceOp, bytes: u32) -> AccessEvent {
        AccessEvent {
            op,
            space,
            addr: 0,
            bytes,
            group: 0,
            local: 0,
            pc: 0,
        }
    }

    #[test]
    fn counting_sink_tallies() {
        let mut s = CountingSink::default();
        s.access(&ev(AddressSpace::Global, TraceOp::Load, 4));
        s.access(&ev(AddressSpace::Global, TraceOp::Store, 4));
        s.access(&ev(AddressSpace::Local, TraceOp::Load, 16));
        s.barrier(0, 64);
        s.workitem_done(0, 0, 100);
        assert_eq!(s.global_loads, 1);
        assert_eq!(s.global_stores, 1);
        assert_eq!(s.local_loads, 1);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.instructions, 100);
        assert_eq!(s.bytes_loaded, 20);
        assert_eq!(s.bytes_stored, 4);
    }

    #[test]
    fn counting_sink_counts_private_and_reconciles() {
        let mut s = CountingSink::default();
        s.access(&ev(AddressSpace::Private, TraceOp::Load, 8));
        s.access(&ev(AddressSpace::Private, TraceOp::Store, 8));
        s.access(&ev(AddressSpace::Constant, TraceOp::Load, 4));
        s.access(&ev(AddressSpace::Global, TraceOp::Store, 2));
        assert_eq!(s.private_loads, 1);
        assert_eq!(s.private_stores, 1);
        assert_eq!(s.loads_total(), 2);
        assert_eq!(s.stores_total(), 2);
        assert_eq!(s.bytes_loaded, 12);
        assert_eq!(s.bytes_stored, 10);
        assert_eq!(
            s.space_bytes(AddressSpace::Private),
            SpaceBytes {
                loaded: 8,
                stored: 8
            }
        );
        assert_eq!(
            s.global_bytes,
            SpaceBytes {
                loaded: 0,
                stored: 2
            }
        );
    }

    #[test]
    fn vec_sink_records_order() {
        let mut s = VecSink::default();
        s.access(&ev(AddressSpace::Global, TraceOp::Load, 4));
        s.access(&ev(AddressSpace::Local, TraceOp::Store, 8));
        s.workitem_done(0, 0, 7);
        s.workgroup_done(0);
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].op, TraceOp::Load);
        assert_eq!(s.events[1].bytes, 8);
        assert_eq!(s.item_done, vec![(0, 0, 7)]);
        assert_eq!(s.group_done, vec![0]);
    }
}
