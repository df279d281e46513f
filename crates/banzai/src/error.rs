//! Typed errors and fault reports for the execution stack.
//!
//! The paper's contract is that a packet transaction either executes
//! atomically or is cleanly rejected — nothing in between. This module
//! extends that discipline from the per-packet level to the *runtime*
//! level: a switch that loses a worker must fail **partially** and report
//! **faithfully**, instead of taking the whole process down with an
//! `expect`. Three layers:
//!
//! * [`SwitchError`] — the one error type every fallible public entry
//!   point of [`Switch`](crate::switch::Switch) and
//!   [`ShardedSwitch`](crate::shard::ShardedSwitch) returns;
//! * [`ShardError`] / [`FaultCause`] — which shard failed, on which
//!   packet, and why (panic payload, watchdog stall, or a silent
//!   disconnect);
//! * [`FaultReport`] — everything salvageable from a faulted sharded run:
//!   per-shard output prefixes and state snapshots
//!   ([`ShardSalvage`]), plus exact packet-conservation
//!   [`Accounting`] (`offered == transmitted + dropped + lost_in_fault`).
//!
//! The report is deliberately *rich*: fabric-scale composition (ROADMAP)
//! needs a failing switch to hand its supervisor enough state to reroute
//! or restart, the same way the static checks of "Comprehensive
//! Verification of Packet Processing" hand the operator a counterexample
//! rather than a crash.

use crate::stream::SourceError;
use crate::switch::DropCounters;
use domino_ir::{Packet, StateStore};
use std::fmt;

/// Why a shard worker failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCause {
    /// The worker's engine panicked; the payload is rendered to a string
    /// (non-string payloads become `"<non-string panic payload>"`).
    Panic(String),
    /// The worker made no observable progress within the watchdog window
    /// (its ring stayed full, or it never reported an outcome). The
    /// thread is abandoned, not joined — a hung worker must never hang
    /// the caller.
    Stall {
        /// The watchdog window that expired, in milliseconds.
        watchdog_ms: u64,
    },
    /// The worker's channels disconnected without an outcome report —
    /// the thread died without panicking through the supervised path.
    Disconnected,
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::Panic(payload) => write!(f, "panicked: {payload}"),
            FaultCause::Stall { watchdog_ms } => {
                write!(f, "stalled (no progress within {watchdog_ms}ms watchdog)")
            }
            FaultCause::Disconnected => write!(f, "disconnected without an outcome report"),
        }
    }
}

/// One shard's failure: which shard, which packet, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// The failed shard's index.
    pub shard: usize,
    /// Global input index (the arrival stamp) of the packet being
    /// processed when the fault hit, when it could be determined. A
    /// stalled worker reports `None` — it never said where it stopped.
    pub packet: Option<u64>,
    /// What happened.
    pub cause: FaultCause,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} ", self.shard)?;
        match self.packet {
            Some(i) => write!(f, "{} at packet {i}", self.cause),
            None => write!(f, "{}", self.cause),
        }
    }
}

/// What was recovered from one shard after a faulted run.
///
/// For a **surviving** shard this is everything: its complete output
/// subsequence, its drop counters, and its state snapshot — bit-identical
/// to what a serial switch would hold for that shard's flows. For a
/// **failed** shard it is the exact prefix that completed before the
/// fault: outputs of fully processed batches, counters up to the fault,
/// and no state (a panic mid-transaction can leave engine state half
/// written, so a faulted shard's state is never reported as authoritative).
#[derive(Debug, Clone)]
pub struct ShardSalvage {
    /// The shard this snapshot came from.
    pub shard: usize,
    /// Whether this shard failed (see the matching
    /// [`FaultReport::failures`] entry for the cause).
    pub failed: bool,
    /// Packets steered to this shard (whether or not they reached it).
    pub offered: u64,
    /// The outputs this shard produced: complete for survivors, the
    /// completed-batch prefix for failed shards.
    pub output: Vec<Packet>,
    /// Per-reason drops attributed to this shard, feeder-side
    /// backpressure sheds included. A stalled shard reports only its
    /// feeder-side sheds — its internal counters were unreachable.
    pub drops: DropCounters,
    /// `(ingress, egress)` state snapshot — `Some` only for survivors.
    pub state: Option<(StateStore, StateStore)>,
}

impl ShardSalvage {
    /// Packets offered to this shard that are neither in [`output`] nor
    /// counted in [`drops`] — lost to the fault (in-flight in the ring,
    /// mid-batch at the panic, or steered after the worker died).
    ///
    /// [`output`]: ShardSalvage::output
    /// [`drops`]: ShardSalvage::drops
    pub fn lost(&self) -> u64 {
        self.offered
            .saturating_sub(self.output.len() as u64)
            .saturating_sub(self.drops.total())
    }
}

/// Exact packet-conservation accounting for one (possibly faulted) run.
///
/// Every offered packet is in exactly one bucket; [`Accounting::conserved`]
/// checks the books balance. A fault-free run always has
/// `lost_in_fault == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Packets offered to the switch (the input trace length).
    pub offered: u64,
    /// Packets whose outputs were delivered back to the caller: every
    /// salvaged output (survivors' complete streams, failed shards'
    /// prefixes) plus whatever was streamed to a sink.
    pub transmitted: u64,
    /// Packets dropped under a counted [`DropReason`]
    /// (queue-full, parse, backpressure shed).
    ///
    /// [`DropReason`]: crate::switch::DropReason
    pub dropped: u64,
    /// Packets unaccounted for because a worker faulted.
    pub lost_in_fault: u64,
}

impl Accounting {
    /// `offered == transmitted + dropped + lost_in_fault`.
    pub fn conserved(&self) -> bool {
        self.offered == self.transmitted + self.dropped + self.lost_in_fault
    }
}

impl fmt::Display for Accounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offered {} = transmitted {} + dropped {} + lost_in_fault {}",
            self.offered, self.transmitted, self.dropped, self.lost_in_fault
        )
    }
}

/// An ingestion failure that ended a run early: the packet or frame
/// [`Source`](crate::stream::Source) errored mid-stream.
///
/// Everything pulled before the failure was processed and accounted
/// normally — the switch drains its queues and closes the books
/// (`lost_in_fault == 0` when no worker also faulted), so a torn
/// capture file degrades into an exact partial run, not a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFault {
    /// Items the source yielded successfully before failing — equal to
    /// the report's [`Accounting::offered`] when the source was the only
    /// fault.
    pub at: u64,
    /// The ingestion error itself.
    pub error: SourceError,
}

impl fmt::Display for SourceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "source failed after {} packet(s): {}",
            self.at, self.error
        )
    }
}

/// The structured report a faulted run returns instead of crashing: who
/// failed and why, everything salvaged, and where every single offered
/// packet went.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Every failed shard's error, in shard order (empty only when the
    /// fault was the source's — see [`FaultReport::source`]).
    pub failures: Vec<ShardError>,
    /// The ingestion failure that cut the run short, if the source (not
    /// a worker) was what faulted.
    pub source: Option<SourceFault>,
    /// Per-shard salvage, in shard order — one entry per shard,
    /// surviving shards included. A survivor's output is its complete
    /// stream; [`ShardedSwitch::merge`](crate::shard::ShardedSwitch::merge)
    /// over the survivors' outputs deals them into the merge order a
    /// clean run returns.
    pub salvage: Vec<ShardSalvage>,
    /// The books: every offered packet is transmitted, dropped, or
    /// attributed to the fault.
    pub accounting: Accounting,
}

impl FaultReport {
    /// The one place a report is assembled — every faulted run, serial or
    /// sharded, threaded or sequential, closes its books here, so the
    /// [`Accounting`] is always *derived* from the salvage rather than
    /// tallied beside it: `transmitted` is every salvaged output plus
    /// whatever was `streamed` to a sink instead of being kept,
    /// `dropped` is every salvaged counter, and `lost_in_fault` is what
    /// remains of `offered` (0 when only the source failed — everything
    /// pulled was drained). A `source` error is recorded as having
    /// struck after `offered` items.
    pub(crate) fn assemble(
        offered: u64,
        streamed: u64,
        source: Option<SourceError>,
        failures: Vec<ShardError>,
        salvage: Vec<ShardSalvage>,
    ) -> SwitchError {
        let kept: u64 = salvage.iter().map(|s| s.output.len() as u64).sum();
        let transmitted = streamed + kept;
        let dropped = salvage.iter().map(|s| s.drops.total()).sum();
        SwitchError::Fault(Box::new(FaultReport {
            failures,
            source: source.map(|error| SourceFault { at: offered, error }),
            salvage,
            accounting: Accounting {
                offered,
                transmitted,
                dropped,
                lost_in_fault: offered.saturating_sub(transmitted + dropped),
            },
        }))
    }

    /// The salvage entry for one shard.
    pub fn shard(&self, shard: usize) -> Option<&ShardSalvage> {
        self.salvage.iter().find(|s| s.shard == shard)
    }

    /// Indices of the shards that survived and drained cleanly.
    pub fn survivors(&self) -> Vec<usize> {
        self.salvage
            .iter()
            .filter(|s| !s.failed)
            .map(|s| s.shard)
            .collect()
    }
}

/// The typed error for every fallible switch-stack entry point.
///
/// Construction failures, unsupported configurations, and runtime worker
/// faults all land here, so callers can match on *what went wrong*
/// instead of parsing strings — and a worker fault carries the full
/// [`FaultReport`] rather than discarding the run.
#[derive(Debug, Clone)]
pub enum SwitchError {
    /// An engine or plan could not be built (lowering failure, bad
    /// layout). The string is the builder's diagnostic.
    Build(String),
    /// The requested operation is not supported in this configuration
    /// (e.g. stamped execution on an oversubscribed link).
    Unsupported(String),
    /// One or more shard workers faulted during a run; the report holds
    /// everything salvaged. Boxed: the report carries packet vectors.
    Fault(Box<FaultReport>),
}

impl SwitchError {
    /// Shorthand used by engine builders.
    pub(crate) fn build(msg: impl Into<String>) -> SwitchError {
        SwitchError::Build(msg.into())
    }

    /// The fault report, when this error is a worker fault.
    pub fn fault(&self) -> Option<&FaultReport> {
        match self {
            SwitchError::Fault(report) => Some(report),
            _ => None,
        }
    }
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::Build(msg) => write!(f, "cannot build switch: {msg}"),
            SwitchError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
            SwitchError::Fault(report) => {
                if !report.failures.is_empty() {
                    let failures: Vec<String> =
                        report.failures.iter().map(ShardError::to_string).collect();
                    write!(
                        f,
                        "{} of {} shard worker(s) faulted [{}]",
                        report.failures.len(),
                        report.salvage.len(),
                        failures.join("; "),
                    )?;
                    if let Some(src) = &report.source {
                        write!(f, "; {src}")?;
                    }
                } else if let Some(src) = &report.source {
                    write!(f, "{src}")?;
                } else {
                    write!(f, "run faulted")?;
                }
                write!(f, "; {}", report.accounting)
            }
        }
    }
}

impl std::error::Error for SwitchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_conservation_check() {
        let ok = Accounting {
            offered: 10,
            transmitted: 6,
            dropped: 3,
            lost_in_fault: 1,
        };
        assert!(ok.conserved());
        let bad = Accounting {
            offered: 10,
            transmitted: 6,
            dropped: 3,
            lost_in_fault: 2,
        };
        assert!(!bad.conserved());
        assert!(ok.to_string().contains("lost_in_fault 1"));
    }

    #[test]
    fn shard_error_display_names_shard_packet_and_cause() {
        let e = ShardError {
            shard: 3,
            packet: Some(41),
            cause: FaultCause::Panic("boom".into()),
        };
        let s = e.to_string();
        assert!(s.contains("shard 3"), "{s}");
        assert!(s.contains("packet 41"), "{s}");
        assert!(s.contains("boom"), "{s}");

        let stall = ShardError {
            shard: 0,
            packet: None,
            cause: FaultCause::Stall { watchdog_ms: 250 },
        };
        assert!(stall.to_string().contains("250ms"), "{stall}");
    }

    #[test]
    fn salvage_lost_never_underflows() {
        let s = ShardSalvage {
            shard: 0,
            failed: true,
            offered: 2,
            output: vec![Packet::new(); 3],
            drops: DropCounters::new(),
            state: None,
        };
        assert_eq!(s.lost(), 0);
    }

    #[test]
    fn switch_error_display_summarizes_fault() {
        let report = FaultReport {
            failures: vec![ShardError {
                shard: 1,
                packet: Some(7),
                cause: FaultCause::Panic("injected".into()),
            }],
            source: None,
            salvage: vec![
                ShardSalvage {
                    shard: 0,
                    failed: false,
                    offered: 5,
                    output: vec![Packet::new(); 5],
                    drops: DropCounters::new(),
                    state: Some((StateStore::new(), StateStore::new())),
                },
                ShardSalvage {
                    shard: 1,
                    failed: true,
                    offered: 5,
                    output: Vec::new(),
                    drops: DropCounters::new(),
                    state: None,
                },
            ],
            accounting: Accounting {
                offered: 10,
                transmitted: 5,
                dropped: 0,
                lost_in_fault: 5,
            },
        };
        assert_eq!(report.survivors(), vec![0]);
        assert_eq!(report.shard(1).unwrap().lost(), 5);
        let e = SwitchError::Fault(Box::new(report));
        let s = e.to_string();
        assert!(s.contains("1 of 2 shard worker(s) faulted"), "{s}");
        assert!(s.contains("shard 1"), "{s}");
        assert!(e.fault().is_some());
    }
}
