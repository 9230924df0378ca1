//! The discrete-event stepper behind [`Stepper::Event`]: instead of
//! stepping every core every cycle (strict), or every core on every
//! *globally* interesting cycle (skip), each core carries its own wake
//! time and is stepped only in rounds where it is scheduled. Event-dense
//! multiprocessor runs stop paying per-cycle costs for cores that are
//! stalled on a miss or parked at a barrier.
//!
//! Exactness rests on two invariants (see DESIGN.md §10):
//!
//! 1. *No component steps past its scheduled time.* A core's wake time
//!    comes from [`Core::next_event_time`], whose contract is that every
//!    condition able to change the core's behavior on an intermediate
//!    cycle maps to a candidate. Cycles a core sits out are therefore
//!    provably no-op retire/issue/fetch calls, and their stall
//!    attribution is settled in bulk by [`Core::charge_idle`] at the
//!    next step (the stall class cannot change while the head is stuck).
//!    The clock likewise never jumps past a memory-system fill, so
//!    occupancy samples and fill application stay cycle-exact.
//!
//! 2. *Sync operations pin the horizon.* A sleeping core (no wake
//!    candidate) is necessarily parked on an unreleased barrier or an
//!    unset flag — only another processor can wake it. Both paths bump
//!    [`SyncState::version`], which forces a wake recompute at the end
//!    of the round for every live core the change can reach — cores
//!    whose window head is a sync wait, plus sleepers; every other
//!    core's wake candidates are core-local, so its held wake time
//!    stays exact. Barrier releases are always
//!    scheduled in the future, so the recompute sees them in time; a
//!    flag *set in the current round* is visible same-cycle to
//!    higher-numbered processors in strict mode, so the retire phase
//!    additionally consults the round's fresh tail of
//!    [`SyncState::flag_log`] to pull those waiters into the current
//!    round.
//!
//! Every phase runs on one thread in global core order, the order the
//! strict driver uses, so the interleaving of shared-state mutations is
//! the strict driver's by construction.

use mempar_obs::{TraceEventKind, SYSTEM_PROC};

use crate::core::Core;
use crate::sync::SyncState;
use crate::system::{
    deadlock_panic, fetch_stage, trace_stall_transition, DriverState, DEADLOCK_WINDOW,
};

#[cfg(doc)]
use crate::system::Stepper;

/// "No wake scheduled": the core sleeps until shared sync state changes
/// (or forever, when the run is deadlocked).
const NO_WAKE: u64 = u64::MAX;

/// Per-core scheduling state, indexed by core id.
struct Schedule {
    /// Next cycle each core must be stepped (`NO_WAKE` = asleep).
    wake: Vec<u64>,
    /// First cycle not yet charged to each core's stall breakdown.
    charged_until: Vec<u64>,
    /// Cores whose wake time must be recomputed this round.
    need: Vec<bool>,
    /// Number of `true` entries in `need` (lets a recompute with nothing
    /// to do — a fill-event-only round — be skipped entirely).
    pending: usize,
    /// Minimum over `wake`.
    min_wake: u64,
    /// Cores whose wake time equals `min_wake`, in core order — rebuilt
    /// by every recompute, and still exact when the recompute is skipped
    /// (nothing marked means no wake time moved). When the round's clock
    /// lands on `min_wake`, these are exactly the cores due by schedule,
    /// so the retire phase can walk this list instead of rescanning
    /// every core.
    due: Vec<u32>,
}

impl Schedule {
    /// Recomputes the wake time of every marked core and refreshes
    /// `min_wake` and `due`. When nothing is marked both are still
    /// exact, so the whole call is skipped.
    fn recompute(&mut self, cores: &[Core], sync: &SyncState, now: u64) {
        if self.pending == 0 {
            return;
        }
        self.pending = 0;
        let mut min = NO_WAKE;
        self.due.clear();
        for (ci, core) in cores.iter().enumerate() {
            if self.need[ci] {
                self.need[ci] = false;
                self.wake[ci] = core.next_event_time(sync, now).unwrap_or(NO_WAKE);
            }
            let w = self.wake[ci];
            // Single pass: a new minimum restarts the due list; matches
            // extend it. Amortized O(cores) — each index is pushed at
            // most once per restart, and restarts strictly lower `min`.
            match w.cmp(&min) {
                std::cmp::Ordering::Less => {
                    min = w;
                    self.due.clear();
                    self.due.push(ci as u32);
                }
                std::cmp::Ordering::Equal => self.due.push(ci as u32),
                std::cmp::Ordering::Greater => {}
            }
        }
        if min == NO_WAKE {
            self.due.clear();
        }
        self.min_wake = min;
    }

    /// Marks core `ci` for a wake recompute at the end of the round.
    fn mark(&mut self, ci: usize) {
        if !self.need[ci] {
            self.need[ci] = true;
            self.pending += 1;
        }
    }
}

/// Steps core `ci` at `now`: settles its skipped cycles, runs its retire
/// stage and records it as stepped. Returns the instructions retired.
fn step_retire(
    st: &mut DriverState,
    sched: &mut Schedule,
    stepped: &mut Vec<u32>,
    live: &mut usize,
    ci: usize,
    now: u64,
) -> u64 {
    let core = &mut st.cores[ci];
    core.charge_idle(now - sched.charged_until[ci]);
    let before = core.retired;
    core.retire(&mut st.sync, now);
    sched.charged_until[ci] = now + 1;
    if core.halted {
        *live -= 1;
    }
    stepped.push(ci as u32);
    core.retired - before
}

/// Runs the machine in `st` to completion under the event stepper. Each
/// round runs at one simulated cycle `now` (the minimum over all wake
/// times and the next memory-system fill): tick memory, then
/// retire/trace/issue/fetch exactly the cores scheduled for this cycle,
/// in global core order — the same order and the same calls the strict
/// driver makes on this cycle, minus calls that are provable no-ops.
pub(crate) fn event_loop(st: &mut DriverState) {
    let nprocs = st.cores.len();
    // Everything starts due at cycle 0, mirroring the strict driver's
    // first cycle.
    let mut sched = Schedule {
        wake: vec![0; nprocs],
        charged_until: vec![0; nprocs],
        need: vec![false; nprocs],
        pending: 0,
        min_wake: 0,
        due: (0..nprocs as u32).collect(),
    };
    // Every core stepped this round, in core order. Lets the
    // issue/trace/mark phases walk only the stepped set instead of
    // rescanning every core; reused across rounds so the steady-state
    // loop never allocates.
    let mut stepped: Vec<u32> = Vec::with_capacity(nprocs);
    // Cores not yet halted; a core can only halt in its own retire call,
    // so the count stays exact without any rescan.
    let mut live = st.cores.iter().filter(|c| !c.halted).count();
    let mut now: u64 = 0;
    let mut last_progress_cycle: u64 = 0;
    loop {
        st.memsys.tick(now);
        let flag_mark = st.sync.flag_log().len();
        let version_mark = st.sync.version();
        stepped.clear();
        let mut retired_delta: u64 = 0;
        // Fast path: walk the precomputed due list while no flag has
        // been set this round. The list is exact for rounds landing on
        // `min_wake` (every other round is a fill-only round that
        // schedules no core), and any fresh flag drops to the strict
        // in-order scan below for the remaining cores, so same-cycle
        // flag visibility is preserved exactly: cores before the switch
        // point are lower-numbered than the setter, which strict
        // visibility never reaches anyway.
        let mut next_ci = 0usize;
        if sched.min_wake == now {
            let mut d = 0;
            while d < sched.due.len() && st.sync.flag_log().len() == flag_mark {
                let ci = sched.due[d] as usize;
                d += 1;
                next_ci = ci + 1;
                if !st.cores[ci].halted {
                    retired_delta += step_retire(st, &mut sched, &mut stepped, &mut live, ci, now);
                }
            }
        }
        if st.sync.flag_log().len() > flag_mark {
            // A flag was set this round: finish with the full scan — due
            // by schedule, or pulled in by the flag (same-cycle
            // visibility to higher-numbered processors, as under strict
            // stepping).
            for ci in next_ci..nprocs {
                let core = &st.cores[ci];
                if core.halted {
                    continue;
                }
                let is_due = sched.wake[ci] <= now
                    || core
                        .head_flag_wait()
                        .is_some_and(|f| st.sync.flag_log()[flag_mark..].contains(&f));
                if is_due {
                    retired_delta += step_retire(st, &mut sched, &mut stepped, &mut live, ci, now);
                }
            }
        }
        if st.tracing {
            // Only stepped cores can change stall class (charge_idle
            // continues the class of the last step across skipped
            // rounds), so the strict driver's per-cycle transition scan
            // reduces to the stepped set.
            for &ci in &stepped {
                let core = &st.cores[ci as usize];
                trace_stall_transition(&mut st.memsys, &mut st.stall_state, core, now);
            }
        }
        if live == 0 {
            break;
        }
        for &ci in &stepped {
            let ci = ci as usize;
            let core = &mut st.cores[ci];
            if !core.halted {
                core.issue(&mut st.memsys, now);
                fetch_stage(core, &mut st.interps[ci], st.mem, now, &mut st.reuse);
            }
        }
        // Deadlock diagnostics, matching the per-cycle driver. Retire
        // counts only move in the retire phase above, so summing the
        // per-step deltas is exact.
        if retired_delta > 0 {
            last_progress_cycle = now;
        } else if now - last_progress_cycle > DEADLOCK_WINDOW {
            deadlock_panic(st.cores.iter(), now);
        }
        // Mark wake recomputes: every stepped core, plus — on a sync
        // version change — every live core the change can actually
        // reach. Sync events are the only way another processor's action
        // can move a core's wake *earlier*, and `Core::next_event_time`
        // reads sync state only through its head-of-window
        // `Barrier`/`FlagWait` candidates, so the reachable set is
        // exactly the cores whose head is a sync wait plus cores asleep
        // with no candidate (parked, by invariant 2, on sync). An
        // unstepped core outside that set would recompute the value it
        // already holds: its window is untouched since its last
        // recompute, and every candidate behind its current wake exceeds
        // `now` (else it would have been stepped), so the `now+1` clamps
        // still bind identically.
        for &ci in &stepped {
            sched.mark(ci as usize);
        }
        if st.sync.version() != version_mark {
            for (ci, core) in st.cores.iter().enumerate() {
                if !core.halted && (sched.wake[ci] == NO_WAKE || core.head_sync_wait()) {
                    sched.mark(ci);
                }
            }
        }
        sched.recompute(&st.cores, &st.sync, now);
        let next = st
            .memsys
            .next_event_time()
            .unwrap_or(NO_WAKE)
            .min(sched.min_wake);
        if next == NO_WAKE {
            // No event anywhere: the run can never progress again. Jump
            // to the diagnostic horizon so the deadlock check above fires
            // with the same cycle number strict stepping reports.
            now = last_progress_cycle + DEADLOCK_WINDOW + 1;
            continue;
        }
        if st.tracing && next > now + 1 {
            // Whole-system gap. (Occupancy accounting is lazy inside the
            // memory system; stall attribution is per-core and settles
            // via `charged_until` at each core's next step.)
            let span = next - now - 1;
            st.memsys
                .tracer_mut()
                .record(now, SYSTEM_PROC, TraceEventKind::HorizonJump { span });
        }
        now = next;
    }
}
