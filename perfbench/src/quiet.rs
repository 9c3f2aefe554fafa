//! Keep every CPU out of its idle state while serving.
//!
//! On a virtual machine, an idle virtual CPU halts, and waking a thread
//! on it costs a trip through the host's scheduler: tens to hundreds of
//! microseconds that depend on the host's load, not on the program.
//! Every handoff from the generator to a shard worker pays it, so at a
//! low offered load it dominates the latency figures and their spread.
//! [`Spinners`] holds one spinning thread per CPU at the `SCHED_IDLE`
//! policy: it runs only when nothing else wants the CPU and is preempted
//! at once by any other thread, so the CPUs never halt and the program's
//! threads never wait for it. This is the benchmark's equivalent of
//! booting with `idle=poll`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux's `SCHED_IDLE` scheduling policy.
const SCHED_IDLE: i32 = 5;

/// Move the calling thread to `SCHED_IDLE`; false if the system refused.
fn make_idle_priority() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` reads one `sched_param` through the
    // pointer, which points at a live, properly laid out `#[repr(C)]`
    // value for the duration of the call; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Spinning threads, one per CPU, stopped and joined on drop.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    pub fn start() -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // A spinner that cannot get the idle policy would
                    // compete with the program's threads: it stops instead.
                    if !make_idle_priority() {
                        return;
                    }
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner does nothing that can panic; ignore the result.
            let _ = t.join();
        }
    }
}
