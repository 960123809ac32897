//! The rule kernel and the sharded parallel runtime built on it.
//!
//! The paper deploys its topologies on an Apache Storm cluster where every
//! store partition is a parallel task. [`shard`] holds the one interpreter
//! of a [`clash_optimizer::TopologyPlan`]'s rule sets; the sequential
//! [`crate::LocalEngine`] drives a single shard holding every partition,
//! and this module's [`coordinator::ParallelEngine`] restores genuine
//! parallelism — one shard per worker thread — while keeping the results
//! **bit-identical** to sequential execution on the same input:
//!
//! * [`coordinator::ParallelEngine`] — the public engine. Consumes the
//!   same `TopologyPlan`, spawns one worker thread per shard (store
//!   partitions map onto workers round-robin, honoring the catalog's
//!   `parallelism` field), and aggregates per-worker metrics and
//!   statistics at epoch barriers so the adaptive controller keeps
//!   working unchanged. Its control plane is three sibling modules over
//!   the same coordinator state: `barrier` (the one barrier), `install`
//!   (the quiesced plan install) and `telemetry` (what the workers'
//!   reports fold into, and every view rendered from it).
//! * [`router`] — partition routing for both engines (the same
//!   `partition_hash` as the stores) plus the sharded ordering machinery:
//!   per-root completion counters and a global completion watermark.
//! * [`worker`] — the kernel's unit of work, and the thread loop and
//!   message protocol (deliveries, collection barriers with optional
//!   expiry, plan installs).
//! * [`shard`] — the kernel: a shard's store partitions and rule execution
//!   (Algorithm 3/4 scoped to owned partitions, with epoch-scoped state).
//!
//! # Why the results are exactly those of sequential execution
//!
//! Sequential execution processes each input tuple (a *root*) to
//! completion before the next; a probe therefore sees exactly the tuples
//! stored by earlier roots (further filtered by timestamp and window).
//! `LocalEngine` has that by construction. Sharded execution runs the same
//! kernel and reproduces it through three mechanisms:
//!
//! 1. **Per-partition FIFO.** The coordinator fans out roots in arrival
//!    order and every (store, partition) is owned by exactly one worker,
//!    so direct deliveries to a partition arrive in arrival order.
//!    Forwarded deliveries inherit the order transitively: an mpsc send
//!    that happens-after another send is dequeued after it.
//! 2. **Sequence guard.** Stored tuples carry the sequence number of
//!    their root; probes skip tuples with `stored_seq >= probe_seq`.
//!    A shard that races ahead may observe *later* insertions, but the
//!    guard excludes them — matching what arrival-order processing would
//!    have seen.
//! 3. **Pending probers.** An insert and a probe that logically follows
//!    it can still reach a partition in the wrong order whenever they ride
//!    different sender paths: an insert into a materialized
//!    intermediate-result store comes from a racing worker, a partial
//!    result forwarded worker-to-worker can overtake a base insert still
//!    buffered at its producer, and two producers
//!    ([`crate::ingest::SourceHandle`]s, or one beside the coordinator's
//!    `ingest`) share no order at all. One rule covers every case, at
//!    every store and whoever feeds the shard: a probe runs immediately
//!    against the current state *and*, iff a root below its guard may
//!    still be in flight (`guard > watermark + 1`), stays registered as a
//!    pending prober beside the partition; a late insert with a smaller
//!    sequence number retro-matches the registered probers locally and
//!    emits the missed results through the same outputs. Each
//!    (probe, insert) pair matches exactly once — at probe time if the
//!    insert was already applied, retroactively otherwise — and nothing
//!    ever waits. The completion watermark garbage-collects probers by the
//!    same rule, once they can no longer receive late inserts.
//!
//! With several producers mechanism 1 holds per producer only; mechanism 3
//! needs nothing more, so the coordinator becomes a control-plane thread
//! (barriers, plan installs, expiry). See [`crate::ingest`].

mod barrier;
pub(crate) mod coordinator;
pub(crate) mod driver;
mod install;
pub(crate) mod router;
pub(crate) mod shard;
mod telemetry;
pub(crate) mod worker;

pub use coordinator::{auto_workers, ParallelEngine};
