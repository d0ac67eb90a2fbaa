//! Named seams: the protocol steps at which a test can step into a running
//! scheduler. Each seam calls the one [`SeamHandler`] attached through
//! [`crate::ServerConfig::seams`]; with none attached (the default) each
//! seam costs one presence test. A handler may panic, sleep or block, and
//! runs with no server lock held (see `docs/FAULTS.md`, "Server seams").

use std::fmt;
use std::sync::Arc;

/// A named protocol step of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// A submit has picked `shard` as the first healthy shard for its
    /// tenant and has not yet enqueued into it. Runs on the submitting
    /// client's thread.
    SubmitRouted {
        /// The shard the submit picked.
        shard: usize,
    },
    /// Shard `shard`'s dispatcher holds a drained job and is about to
    /// dispatch it; `n` is the shard's dispatch count. Runs on the
    /// dispatcher thread; a panic here is a dispatcher panic, with the job
    /// in hand among the survivors the supervisor requeues.
    DispatchJob {
        /// The dispatching shard.
        shard: usize,
        /// The shard's dispatches so far.
        n: u64,
    },
    /// Shard `shard` has given up and drained its queue for the last time;
    /// its jobs are not yet failed over. Runs on the giving-up dispatcher
    /// thread.
    GiveUpDrained {
        /// The shard that gave up.
        shard: usize,
    },
}

/// The handler every [`Seam`] calls.
#[derive(Clone)]
pub struct SeamHandler(Arc<dyn Fn(Seam) + Send + Sync>);

impl SeamHandler {
    /// Wraps `handler`.
    pub fn new(handler: impl Fn(Seam) + Send + Sync + 'static) -> Self {
        SeamHandler(Arc::new(handler))
    }

    #[cold]
    #[inline(never)]
    pub(crate) fn fire(&self, seam: Seam) {
        (self.0)(seam)
    }
}

impl fmt::Debug for SeamHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SeamHandler(..)")
    }
}
