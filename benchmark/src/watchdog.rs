//! The slice watchdog: a slice that has not stopped within five times its
//! budget ends the process with exit code 3 and the name of what hung.
//!
//! A queue that spins forever (see the HuntEtAl batch hazard in the
//! README) would otherwise hang the benchmark silently inside a thread
//! join; no in-process recovery is possible from another thread's spin
//! loop, so the only honest outcome is a loud exit.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Exit code of a watchdog trip.
pub const EXIT_WATCHDOG: i32 = 3;

/// How many budgets a slice may take before it counts as hung.
const GRACE_FACTOR: u32 = 5;

/// Floor under the allowance, so a 0.1 s slice on a busy host is not
/// declared hung by one long scheduler stall (this VM shows stalls of
/// hundreds of milliseconds).
const MIN_ALLOWANCE: Duration = Duration::from_secs(5);

type Armed = Arc<Mutex<Option<(Instant, String)>>>;

/// Handle to the process-wide watchdog thread.
pub struct Watchdog {
    armed: Armed,
}

/// Disarms the watchdog when the guarded slice ends.
pub struct Guard {
    armed: Armed,
}

impl Drop for Guard {
    fn drop(&mut self) {
        *self.armed.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }
}

impl Watchdog {
    /// Starts the watchdog thread. It is detached on purpose: it must
    /// outlive every slice and dies with the process.
    pub fn start() -> Self {
        let armed: Armed = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&armed);
        std::thread::Builder::new()
            .name("pqbench-watchdog".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(50));
                let tripped = match &*seen.lock().unwrap_or_else(|p| p.into_inner()) {
                    Some((deadline, what)) if Instant::now() > *deadline => Some(what.clone()),
                    _ => None,
                };
                if let Some(what) = tripped {
                    eprintln!(
                        "pqbench: WATCHDOG: {what} did not stop within \
                         {GRACE_FACTOR}x its budget; exiting"
                    );
                    std::process::exit(EXIT_WATCHDOG);
                }
            })
            .expect("spawn watchdog thread");
        Watchdog { armed }
    }

    /// Arms the watchdog for one slice of `budget`; dropping the guard
    /// disarms it. Slices run one at a time, so one slot suffices.
    pub fn arm(&self, what: impl Into<String>, budget: Duration) -> Guard {
        let allowance = (budget * GRACE_FACTOR).max(MIN_ALLOWANCE);
        *self.armed.lock().unwrap_or_else(|p| p.into_inner()) =
            Some((Instant::now() + allowance, what.into()));
        Guard {
            armed: Arc::clone(&self.armed),
        }
    }
}
