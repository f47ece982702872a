//! Property: for ANY interleaving of journal records — multiple apps,
//! interleaved transactions, arbitrary kinds in arbitrary order — the
//! reconstructor yields incident timelines that are fully ordered by
//! detection sequence and non-overlapping per app, with at most one
//! unresolved incident per app, and the result is a pure function of
//! the record set.

use legosdn_obs::{reconstruct, Journal, RecordKind, Resolution};
use legosdn_testkit::{forall, Rng};

const APPS: [&str; 4] = ["fwd", "lb", "fw", "mon"];

fn arb_kind(rng: &mut Rng, next_txn: &mut u64, open_txns: &mut Vec<u64>) -> RecordKind {
    let app = (*rng.pick(&APPS)).to_string();
    match rng.gen_range(0u32..14) {
        0 => RecordKind::AppCrash {
            app,
            detail: rng.gen_name(0..6),
        },
        1 => RecordKind::CommFailure { app },
        2 => RecordKind::ByzantineBlocked {
            app,
            violations: rng.gen_range(1u64..5),
        },
        3 => RecordKind::HeartbeatMiss { app },
        4 => RecordKind::CheckpointTaken {
            app,
            bytes: rng.gen_range(1u64..4096),
            dur_ns: rng.gen_range(1u64..100_000),
        },
        5 => RecordKind::CheckpointRestored {
            app,
            bytes: rng.gen_range(1u64..4096),
            dur_ns: rng.gen_range(1u64..100_000),
        },
        6 => RecordKind::ReplayDone {
            app,
            events_replayed: rng.gen_range(0u64..10),
            dur_ns: rng.gen_range(1u64..100_000),
        },
        7 => {
            let txn = *next_txn;
            *next_txn += 1;
            open_txns.push(txn);
            RecordKind::TxnBegin { txn, app }
        }
        8 | 9 if *next_txn > 0 => {
            // Mostly close an open transaction; sometimes close a stale
            // id again, so commits and rollbacks interleave across apps
            // out of any begin/end discipline.
            let txn = if !open_txns.is_empty() && rng.gen_bool(0.75) {
                open_txns.remove(rng.gen_range(0..open_txns.len()))
            } else {
                rng.gen_range(0..*next_txn)
            };
            if rng.gen_bool(0.5) {
                RecordKind::TxnCommit {
                    txn,
                    ops: rng.gen_range(0u64..8),
                }
            } else {
                RecordKind::TxnRollback {
                    txn,
                    undo_ops: rng.gen_range(0u64..8),
                }
            }
        }
        10 => RecordKind::PolicyDecision {
            app,
            policy: rng.gen_name(1..8),
            verdict: rng.gen_name(1..8),
        },
        11 => RecordKind::EventTransformed { app },
        12 => RecordKind::EventDropped { app },
        13 => RecordKind::TicketFiled {
            app,
            failure: rng.gen_name(1..8),
        },
        _ => RecordKind::AppDead { app },
    }
}

#[test]
fn any_interleaving_yields_ordered_non_overlapping_incidents() {
    forall(256, |rng| {
        let journal = Journal::new(512);
        let mut next_txn = 0u64;
        let mut open_txns = Vec::new();
        let n = rng.gen_range(0usize..120);
        let mut t = 0u64;
        for _ in 0..n {
            t += rng.gen_range(1u64..1000);
            journal.record_at(t, arb_kind(rng, &mut next_txn, &mut open_txns));
        }

        let records = journal.snapshot();
        let incidents = reconstruct(&records);

        // Fully ordered by detection seq, globally.
        for w in incidents.windows(2) {
            assert!(
                w[0].detection_seq < w[1].detection_seq,
                "incidents out of order: {} !< {}",
                w[0].detection_seq,
                w[1].detection_seq
            );
        }

        for inc in &incidents {
            // An incident's range is well-formed and time-consistent.
            assert!(inc.detection_seq <= inc.end_seq);
            assert!(inc.detection_at_ns <= inc.end_at_ns);
            // Every detection record actually opens an incident of its kind.
            let det = records.iter().find(|r| r.seq == inc.detection_seq).unwrap();
            assert!(det.kind.is_detection());
            assert_eq!(det.kind.app(), Some(inc.app.as_str()));
        }

        // Per app: non-overlapping [detection_seq, end_seq] ranges, and
        // at most one unresolved (Open) incident — the last one.
        for app in APPS {
            let per_app: Vec<_> = incidents.iter().filter(|i| i.app == app).collect();
            for w in per_app.windows(2) {
                assert!(
                    w[0].end_seq < w[1].detection_seq,
                    "app {app}: incident [{}, {}] overlaps [{}, {}]",
                    w[0].detection_seq,
                    w[0].end_seq,
                    w[1].detection_seq,
                    w[1].end_seq
                );
            }
            let open = per_app
                .iter()
                .filter(|i| i.resolution == Resolution::Open)
                .count();
            assert!(open <= 1, "app {app}: {open} open incidents");
            if open == 1 {
                assert_eq!(per_app.last().unwrap().resolution, Resolution::Open);
            }
        }

        // Incident count equals detection-record count (each detection
        // opens exactly one incident).
        let detections = records.iter().filter(|r| r.kind.is_detection()).count();
        assert_eq!(incidents.len(), detections);

        // Reconstruction is deterministic, and a pure function of the
        // record set: shuffling the input order changes nothing.
        assert_eq!(reconstruct(&records), incidents);
        let mut shuffled = records.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0usize..i + 1);
            shuffled.swap(i, j);
        }
        assert_eq!(reconstruct(&shuffled), incidents);
    });
}
