//! The lowest-clock-first driver: which context it steps, from when, and
//! when it stops.

use bench::drive;
use simnet::{Ctx, Nanos};

/// Closed loop: each context makes `ops` steps of `cost` ns.
#[test]
fn lowest_clock_first_ties_to_the_lowest_index() {
    let mut contexts: Vec<(Ctx, (usize, Nanos, usize))> = vec![
        (Ctx::new(), (0, 300, 2)),
        (Ctx::new(), (1, 200, 3)),
        (Ctx::new(), (2, 200, 1)),
        (Ctx::new(), (3, 100, 0)),
    ];
    let mut order = Vec::new();
    let makespan = drive(
        &mut contexts,
        |_, (.., ops)| (*ops > 0).then_some(0),
        |ctx, (id, cost, ops)| {
            order.push((*id, ctx.now()));
            ctx.work(*cost);
            *ops -= 1;
        },
    );
    // All three start at 0 (ties in index order); then context 1 at 200
    // goes before context 0 at 300. Context 3 has nothing to do: its
    // `None` key means finished, so it never steps.
    assert_eq!(
        order,
        [(0, 0), (1, 0), (2, 0), (1, 200), (0, 300), (1, 400)]
    );
    assert_eq!(makespan, 600);
    assert_eq!(contexts[3].0.now(), 0);
}

/// Open loop: the key is `max(now, due)`, the context waits for its
/// due time, and every clock starts at the latest one.
#[test]
fn open_loop_waits_for_due_times_from_a_common_start() {
    let mut late = Ctx::new();
    late.work(500);
    let mut contexts: Vec<(Ctx, (usize, Vec<Nanos>))> = vec![
        (late, (0, vec![100, 900])),
        (Ctx::new(), (1, vec![700, 800])),
    ];
    let mut order = Vec::new();
    let makespan = drive(
        &mut contexts,
        |_, (_, dues)| dues.first().copied(),
        |ctx, (id, dues)| {
            order.push((*id, ctx.now()));
            ctx.work(50);
            dues.remove(0);
        },
    );
    // Context 0's set-up ends at 500, the common start: its op due at
    // 100 runs then. Context 1's ops run at their due times, both before
    // context 0's op due at 900.
    assert_eq!(order, [(0, 500), (1, 700), (1, 800), (0, 900)]);
    assert_eq!(makespan, 950 - 500);
    // Waiting is not work: context 1 was charged its two steps only.
    assert_eq!(contexts[1].0.cpu.total(), 100);
}
