//! The correctness gate: predicates over the history the client
//! observed and the state the replicas ended in — statements about
//! events, not a test script (after Abraham's *Kishon's poker game*).

use crate::driver::Outcome;
use crate::run::{EndToEnd, AUX_KEY_PREFIX};
use crate::workload::{key_name, value_origin, Kind, Op};
use bayou_types::Level;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Checks every predicate; each string names one violated.
pub fn check(run: &EndToEnd) -> Vec<String> {
    let mut bad = Vec::new();
    one_reply_per_tag(run, &mut bad);
    replicas_converged(run, &mut bad);
    if let Some((state, _)) = run.finals.first() {
        final_values_were_put(run, state, &mut bad);
    }
    if run.spec.lease {
        strong_reads_see_acked_strong_puts(run, &mut bad);
    }
    bad
}

/// Every tag sent got exactly one reply, no reply answered a tag not
/// outstanding, and `Err` came only where a replica is crashed.
fn one_reply_per_tag(run: &EndToEnd, bad: &mut Vec<String>) {
    for (c, log) in run.logs.iter().enumerate() {
        if log.stray_replies > 0 {
            bad.push(format!(
                "connection {c}: {} replies answered no outstanding tag",
                log.stray_replies
            ));
        }
        let mut unanswered = 0;
        let mut errs = 0u64;
        for rec in &log.records {
            if rec.attempts == 0 || rec.replies() != rec.attempts {
                unanswered += 1;
            }
            errs += u64::from(rec.errs);
        }
        if unanswered > 0 {
            bad.push(format!(
                "connection {c}: {unanswered} operations with a send that got no reply"
            ));
        }
        if errs > 0 && !run.spec.crash {
            bad.push(format!(
                "connection {c}: {errs} Err replies in a workload that crashes nothing"
            ));
        }
    }
}

/// After the settle, all replicas materialize to the same map and hold
/// no tentative request.
fn replicas_converged(run: &EndToEnd, bad: &mut Vec<String>) {
    let Some((first, _)) = run.finals.first() else {
        bad.push("Server::stop returned no replica".into());
        return;
    };
    for (r, (state, tentative)) in run.finals.iter().enumerate() {
        if state != first {
            bad.push(format!(
                "replica {r} materializes differently from replica 0"
            ));
        }
        if *tentative > 0 {
            bad.push(format!(
                "replica {r} still holds {tentative} tentative requests"
            ));
        }
    }
}

/// Each key's final value is one that was put to it, and every key with
/// an acknowledged put is present.
fn final_values_were_put(run: &EndToEnd, state: &BTreeMap<String, i64>, bad: &mut Vec<String>) {
    let mut never_put = 0;
    for (key, value) in state {
        if key.starts_with(AUX_KEY_PREFIX) {
            continue;
        }
        let (conn, idx) = value_origin(*value);
        let put_there = run
            .ops
            .get(conn)
            .and_then(|ops| ops.get(idx))
            .is_some_and(|op| op.kind == Kind::Put && key_name(op.key) == *key);
        if !put_there {
            never_put += 1;
        }
    }
    if never_put > 0 {
        bad.push(format!(
            "{never_put} keys end with a value never put to them"
        ));
    }
    let mut lost = 0;
    for (op, rec) in run.all() {
        if op.kind == Kind::Put
            && matches!(rec.outcome, Outcome::Ok(_))
            && !state.contains_key(&key_name(op.key))
        {
            lost += 1;
        }
    }
    if lost > 0 {
        bad.push(format!(
            "{lost} acknowledged puts to keys the final state lacks"
        ));
    }
}

/// A strong read sent after its connection received the acknowledgement
/// of its own strong put to that key returns that value or a later one.
/// (Every key has one writer, whose values rise in the order it sends;
/// a key with a put that was refused and sent again has lost that order
/// and is left out.)
fn strong_reads_see_acked_strong_puts(run: &EndToEnd, bad: &mut Vec<String>) {
    let strong = |op: &Op, kind| op.level == Level::Strong && op.kind == kind;
    let mut stale = 0;
    for (c, (ops, log)) in run.ops.iter().zip(&run.logs).enumerate() {
        // this connection's acknowledged strong puts by ack time, and
        // its strong reads by send time
        let mut acks: Vec<(u64, u16, i64)> = Vec::new();
        let mut reads: Vec<(u64, u16, Option<i64>)> = Vec::new();
        let mut reordered: HashSet<u16> = HashSet::new();
        for (i, (op, rec)) in ops.iter().zip(&log.records).enumerate() {
            if op.kind == Kind::Put && rec.attempts > 1 {
                reordered.insert(op.key);
            }
            let Outcome::Ok(got) = rec.outcome else {
                continue;
            };
            if strong(op, Kind::Put) {
                acks.push((rec.done_ns, op.key, crate::workload::put_value(c, i)));
            } else if strong(op, Kind::Get) {
                reads.push((rec.send_start_ns, op.key, got));
            }
        }
        acks.sort_unstable();
        reads.sort_unstable_by_key(|r| r.0);
        let mut floor: HashMap<u16, i64> = HashMap::new();
        let mut acked = acks.iter().peekable();
        for (sent_ns, key, got) in reads {
            while let Some((_, k, v)) = acked.next_if(|a| a.0 < sent_ns) {
                let f = floor.entry(*k).or_insert(*v);
                *f = (*f).max(*v);
            }
            let min = floor.get(&key);
            let fresh = min.is_none_or(|min| got.is_some_and(|g| g >= *min));
            if !fresh && !reordered.contains(&key) {
                stale += 1;
                if stale == 1 {
                    bad.push(format!(
                        "connection {c}: strong read of k{key} sent at {sent_ns} ns returned {got:?}, older than acknowledged {min:?}"
                    ));
                }
            }
        }
    }
    if stale > 0 {
        bad.push(format!(
            "{stale} strong reads older than a strong put their connection had acknowledged"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::stub::{self, Script};
    use crate::driver::{closed_loop, ClosedLoop, Conn, RunCtl};
    use crate::workload::{find, generate, CONNS};
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// A run of `weak_closed` against the stub server, which drops the
    /// reply to request `drop_no`; the replica states are made up to
    /// agree with the stream, so only the history predicates can fail.
    fn stub_run(drop_no: Option<usize>) -> EndToEnd {
        let spec = find("weak_closed").unwrap();
        let ops: Vec<Vec<Op>> = (0..CONNS).map(|c| generate(spec, 1, c, 40)).collect();
        let ctl = RunCtl {
            start: Instant::now(),
            drain: Duration::from_millis(300),
            traced: false,
        };
        let mut state = BTreeMap::new();
        let logs = ops
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let (addr, server) = stub::serve(Script {
                    drop_no,
                    ..Script::default()
                });
                let mut conn = Conn::connect(addr).unwrap();
                let how = ClosedLoop {
                    window: 4,
                    fenced: false,
                    budget: &AtomicUsize::new(ops.len()),
                };
                let log = closed_loop(&mut conn, c, ops, how, ctl).unwrap();
                drop(conn);
                server.join().unwrap();
                for (i, op) in ops.iter().enumerate() {
                    if op.kind == Kind::Put {
                        state.insert(key_name(op.key), crate::workload::put_value(c, i));
                    }
                }
                log
            })
            .collect();
        EndToEnd {
            spec,
            ops,
            logs,
            setup_s: 0.1,
            shed_count: 0,
            finals: vec![(state.clone(), 0), (state.clone(), 0), (state, 0)],
            disk: Default::default(),
            faults: Vec::new(),
            committed_ns: 1,
            data_dir: None,
        }
    }

    #[test]
    fn a_clean_history_passes() {
        assert_eq!(check(&stub_run(None)), Vec::<String>::new());
    }

    #[test]
    fn a_dropped_reply_fails_the_gate() {
        let bad = check(&stub_run(Some(7)));
        assert!(
            bad.iter().any(|b| b.contains("got no reply")),
            "violations: {bad:?}"
        );
    }

    #[test]
    fn divergence_tentative_leftovers_and_foreign_values_fail_the_gate() {
        let mut run = stub_run(None);
        run.finals[1].0.insert("k0".into(), 1);
        run.finals[2].1 = 3;
        // a value whose origin is a get, or no operation at all
        let get_at = run.ops[0]
            .iter()
            .position(|op| op.kind == Kind::Get)
            .unwrap();
        let key = key_name(run.ops[0][get_at].key);
        run.finals[0]
            .0
            .insert(key, crate::workload::put_value(0, get_at));
        run.finals[0].0.insert("k9".into(), 1 << 40);
        let bad = check(&run).join("; ");
        assert!(bad.contains("replica 1 materializes differently"), "{bad}");
        assert!(bad.contains("replica 2 still holds 3 tentative"), "{bad}");
        assert!(bad.contains("2 keys end with a value never put"), "{bad}");
    }

    #[test]
    fn a_stale_leased_read_fails_the_gate() {
        let spec = find("read_lease").unwrap();
        let mut run = stub_run(None);
        run.spec = spec;
        run.ops = (0..CONNS).map(|c| generate(spec, 1, c, 40)).collect();
        // connection 0: a strong put to k2 acknowledged at t=100, then a
        // strong read of k2 sent at t=200 that returns an older value
        let strong = |kind| Op {
            level: Level::Strong,
            kind,
            key: 2,
        };
        run.ops[0][20] = strong(Kind::Put);
        run.ops[0][21] = strong(Kind::Get);
        for log in &mut run.logs {
            for rec in &mut log.records {
                (rec.from_ns, rec.send_start_ns, rec.sent_ns, rec.done_ns) = (0, 0, 0, 50);
            }
        }
        run.logs[0].records[20].done_ns = 100;
        let read = &mut run.logs[0].records[21];
        (read.from_ns, read.send_start_ns, read.sent_ns, read.done_ns) = (200, 200, 210, 300);
        read.outcome = Outcome::Ok(Some(crate::workload::put_value(0, 20) - 2));
        let stale = |run: &EndToEnd| {
            let mut bad = Vec::new();
            strong_reads_see_acked_strong_puts(run, &mut bad);
            bad
        };
        assert_eq!(stale(&run).len(), 2, "{:?}", stale(&run));
        // unless a put to that key was refused and sent again
        run.logs[0].records[20].attempts = 2;
        assert!(stale(&run).is_empty());
        run.logs[0].records[20].attempts = 1;
        run.logs[0].records[21].outcome = Outcome::Ok(Some(crate::workload::put_value(0, 20)));
        assert!(stale(&run).is_empty());
        // a read sent before the acknowledgement arrived proves nothing
        let read = &mut run.logs[0].records[21];
        (read.from_ns, read.send_start_ns, read.sent_ns) = (90, 90, 95);
        read.outcome = Outcome::Ok(None);
        assert!(stale(&run).is_empty());
    }
}
