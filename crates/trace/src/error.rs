//! Error types for trace construction and validation.

use std::fmt;

use crate::event::{EventId, LockId, ThreadId, VarId};

/// An error raised while building or validating a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A thread produced an event before its `Begin` event.
    EventBeforeBegin {
        /// The offending thread.
        thread: ThreadId,
        /// The offending event.
        event: EventId,
    },
    /// A thread produced an event after its `End` event.
    EventAfterEnd {
        /// The offending thread.
        thread: ThreadId,
        /// The offending event.
        event: EventId,
    },
    /// A `Begin` event for a thread that was never forked.
    BeginWithoutFork {
        /// The offending thread.
        thread: ThreadId,
        /// The offending event.
        event: EventId,
    },
    /// A thread was forked more than once.
    DoubleFork {
        /// The twice-forked thread.
        thread: ThreadId,
        /// The second fork event.
        event: EventId,
    },
    /// A `Join` for a thread whose `End` has not occurred yet.
    JoinBeforeEnd {
        /// The joined thread.
        thread: ThreadId,
        /// The join event.
        event: EventId,
    },
    /// A release of a lock the thread does not hold.
    ReleaseWithoutAcquire {
        /// The releasing thread.
        thread: ThreadId,
        /// The released lock.
        lock: LockId,
        /// The release event.
        event: EventId,
    },
    /// An acquire of a lock currently held by another thread.
    AcquireHeldLock {
        /// The acquiring thread.
        thread: ThreadId,
        /// The contended lock.
        lock: LockId,
        /// The acquire event.
        event: EventId,
    },
    /// A read observed a value different from the most recent write
    /// (violation of read consistency, paper §2.2).
    InconsistentRead {
        /// The offending read.
        read: EventId,
        /// The variable read.
        var: VarId,
        /// What the read should have returned.
        expected: crate::event::Value,
        /// What the read claims to have returned.
        actual: crate::event::Value,
    },
}

impl TraceError {
    /// A stable kebab-case name for the error's category, used as the key
    /// of per-category drop diagnostics in lenient (salvage) ingestion.
    pub fn category(&self) -> &'static str {
        match self {
            TraceError::EventBeforeBegin { .. } => "event-before-begin",
            TraceError::EventAfterEnd { .. } => "event-after-end",
            TraceError::BeginWithoutFork { .. } => "begin-without-fork",
            TraceError::DoubleFork { .. } => "double-fork",
            TraceError::JoinBeforeEnd { .. } => "join-before-end",
            TraceError::ReleaseWithoutAcquire { .. } => "release-without-acquire",
            TraceError::AcquireHeldLock { .. } => "acquire-held-lock",
            TraceError::InconsistentRead { .. } => "inconsistent-read",
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::EventBeforeBegin { thread, event } => {
                write!(f, "{event}: thread {thread} acted before its begin event")
            }
            TraceError::EventAfterEnd { thread, event } => {
                write!(f, "{event}: thread {thread} acted after its end event")
            }
            TraceError::BeginWithoutFork { thread, event } => {
                write!(f, "{event}: thread {thread} began but was never forked")
            }
            TraceError::DoubleFork { thread, event } => {
                write!(f, "{event}: thread {thread} forked twice")
            }
            TraceError::JoinBeforeEnd { thread, event } => {
                write!(f, "{event}: join on thread {thread} before it ended")
            }
            TraceError::ReleaseWithoutAcquire {
                thread,
                lock,
                event,
            } => {
                write!(
                    f,
                    "{event}: thread {thread} released {lock} without holding it"
                )
            }
            TraceError::AcquireHeldLock {
                thread,
                lock,
                event,
            } => {
                write!(
                    f,
                    "{event}: thread {thread} acquired {lock} while another thread holds it"
                )
            }
            TraceError::InconsistentRead {
                read,
                var,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{read}: read of {var} returned {actual} but last write was {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}
