//! The breadth-first reachable-state explorer.
//!
//! One search node is one *global engine state* plus the set of front
//! packets not yet injected. Successors come from two nested
//! enumerations: which pending subset to inject this cycle (all `2^k`
//! subsets when certifying — a head with a free productive output *must*
//! take it, so delayed injection reaches wedges all-at-once injection
//! cannot), and every arbitration resolution of one scripted engine step
//! (the [`ChoiceScript`] odometer). Every transition the explorer takes
//! is one real `step_with_choices` of the production engine.
//!
//! A transition reuses buffers held across the whole search: the
//! packet relabeling `order` (its suffix past the parent's is the
//! injected set), the canonical encoding, and the encoder's scratch. The
//! successor is looked up in the visited set by slice, and only a new
//! state allocates: its visited key, its snapshot, and its frontier and
//! trace entries. (The engine's [`ChoiceScript`] odometer still
//! allocates its digit strings.)
//!
//! Soundness notes, mirrored in DESIGN.md §13:
//!
//! * The visited set keys on the **full canonical encoding**, not a
//!   hash — the hasher only buckets; collisions can never merge
//!   distinct states and silently prune reachable space.
//! * A state counts as **stuck** (deadlocked) only when nothing remains
//!   to inject, flits are still in flight, and *every* (injection,
//!   script) successor re-encodes to the state itself. With packets
//!   still pending, injection always changes the pending mask, so stuck
//!   detection needs no special-casing of queues.
//! * Time, RNG, and statistics are excluded from the encoding (see
//!   [`super::encode`]); the step relation is invariant under all of
//!   them in the scripted configuration (zero injection rate, zero
//!   routing delay), so merging states that differ only there is sound.

use super::driver::deadlock_cycle;
use super::encode::{encode, EncodeCtx, FnvBuild};
use super::front::FrontPacket;
use std::collections::{HashSet, VecDeque};
use turnroute_sim::{ChoiceScript, Engine, Lanes, SimSnapshot};

/// Knobs for one exploration.
pub(crate) struct ExploreParams {
    /// Branch over every subset of the pending front each cycle
    /// (required for certification); `false` injects everything still
    /// pending at once (sufficient for refutation, much smaller space).
    pub enumerate_injection: bool,
    /// Return as soon as one stuck state is found.
    pub stop_at_first_deadlock: bool,
    /// State budget; exceeding it ends the search with `complete =
    /// false`.
    pub max_states: usize,
}

/// One explored transition: the front packets injected before the step
/// and the arbitration digits resolving it.
#[derive(Debug, Clone)]
pub(crate) struct Action {
    /// Front indices injected this cycle, in index order.
    pub inject: Vec<u32>,
    /// The choice-script digits of the step.
    pub digits: Vec<u32>,
}

/// A reachable stuck state, with everything needed to re-enact it.
pub(crate) struct Deadlock {
    /// The engine's ordered waits-for cycle at the stuck state (empty
    /// when the engine exposes none — e.g. a routing dead-end wedge).
    pub cycle_slots: Vec<usize>,
    /// The action sequence from the empty network to the stuck state.
    pub trace: Vec<Action>,
}

/// What one exploration found.
pub(crate) struct ExploreOutcome {
    /// Distinct canonical states reached.
    pub states: usize,
    /// Engine steps taken (one per (injection, script) expansion).
    pub transitions: usize,
    /// Whether the reachable space was exhausted.
    pub complete: bool,
    /// The largest misroute counter observed on any packet anywhere.
    pub max_misroutes: u32,
    /// Stuck states found.
    pub deadlocks: usize,
    /// The first stuck state, with its trace.
    pub first_deadlock: Option<Deadlock>,
}

/// Per-state bookkeeping for counterexample reconstruction.
struct Meta {
    parent: u32,
    action: Action,
}

/// A frontier entry: a state still to expand.
struct Rec {
    id: u32,
    snap: SimSnapshot,
    /// `order[p]` = front index of engine packet id `p`.
    order: Vec<u32>,
    /// Front indices not yet injected.
    pending: u32,
    canon: Vec<u8>,
}

/// Explore every state reachable from `engine`'s current (empty)
/// configuration under injections from `front`.
pub(crate) fn explore<'a, L: Lanes<'a>>(
    engine: &mut Engine<'a, L>,
    front: &[FrontPacket],
    ctx: &EncodeCtx,
    params: &ExploreParams,
) -> ExploreOutcome {
    assert_eq!(front.len(), ctx.front_len(), "the context's front");
    let mut visited: HashSet<Vec<u8>, FnvBuild> = HashSet::with_hasher(FnvBuild);
    let mut metas: Vec<Meta> = Vec::new();
    let mut queue: VecDeque<Rec> = VecDeque::new();
    let mut out = ExploreOutcome {
        states: 0,
        transitions: 0,
        complete: true,
        max_misroutes: 0,
        deadlocks: 0,
        first_deadlock: None,
    };

    let root_pending: u32 = if front.len() == 32 {
        u32::MAX
    } else {
        (1u32 << front.len()) - 1
    };
    // Per-transition buffers, reused across the search.
    let mut canon = Vec::new();
    let mut scratch = Vec::new();
    let mut order: Vec<u32> = Vec::with_capacity(front.len());
    encode(engine, &order, root_pending, ctx, &mut canon, &mut scratch);
    visited.insert(canon.clone());
    metas.push(Meta {
        parent: u32::MAX,
        action: Action {
            inject: Vec::new(),
            digits: Vec::new(),
        },
    });
    queue.push_back(Rec {
        id: 0,
        snap: engine.snapshot(),
        order: Vec::new(),
        pending: root_pending,
        canon: canon.clone(),
    });
    out.states = 1;

    while let Some(rec) = queue.pop_front() {
        engine.restore(&rec.snap);
        if rec.pending == 0 && engine.is_idle() {
            continue; // everything delivered: a terminal success state
        }
        if out.states >= params.max_states {
            out.complete = false;
            break;
        }

        // Injection subsets, largest first so the all-at-once successor
        // (the one refutation mode uses exclusively) is expanded first:
        // the submask walk from `pending` down to the empty set.
        let mut any_progress = false;
        let mut mask = rec.pending;
        loop {
            let pending = rec.pending & !mask;
            let mut script = ChoiceScript::new(Vec::new());
            loop {
                engine.restore(&rec.snap);
                order.clear();
                order.extend_from_slice(&rec.order);
                for (i, p) in front.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        engine.inject_packet(p.src, p.dst, p.len);
                        order.push(i as u32);
                    }
                }
                engine.step_with_choices(&mut script);
                out.transitions += 1;
                encode(engine, &order, pending, ctx, &mut canon, &mut scratch);
                for p in &engine.packets()[..order.len()] {
                    out.max_misroutes = out.max_misroutes.max(p.misroutes);
                }
                if canon != rec.canon {
                    any_progress = true;
                    if !visited.contains(canon.as_slice()) {
                        visited.insert(canon.clone());
                        let id = metas.len() as u32;
                        metas.push(Meta {
                            parent: rec.id,
                            action: Action {
                                inject: order[rec.order.len()..].to_vec(),
                                digits: script.digits().to_vec(),
                            },
                        });
                        out.states += 1;
                        queue.push_back(Rec {
                            id,
                            snap: engine.snapshot(),
                            order: order.clone(),
                            pending,
                            canon: canon.clone(),
                        });
                    }
                }
                match script.next_script() {
                    Some(next) => script = next,
                    None => break,
                }
            }
            if !params.enumerate_injection || mask == 0 {
                break;
            }
            mask = (mask - 1) & rec.pending;
        }

        if rec.pending == 0 && !any_progress {
            // Nothing to inject, flits in flight, every successor is the
            // state itself: a reachable deadlock.
            out.deadlocks += 1;
            if out.first_deadlock.is_none() {
                engine.restore(&rec.snap);
                out.first_deadlock = Some(Deadlock {
                    cycle_slots: deadlock_cycle(engine),
                    trace: trace_to(&metas, rec.id),
                });
            }
            if params.stop_at_first_deadlock {
                out.complete = false;
                break;
            }
        }
    }
    out
}

/// The root-to-`id` action sequence.
fn trace_to(metas: &[Meta], id: u32) -> Vec<Action> {
    let mut trace = Vec::new();
    let mut cur = id;
    while cur != u32::MAX {
        let m = &metas[cur as usize];
        if m.parent == u32::MAX {
            break; // the root's empty action
        }
        trace.push(m.action.clone());
        cur = m.parent;
    }
    trace.reverse();
    trace
}
