//! The run digest: the one deterministic description of what a run did.
//!
//! [`RunResult::fingerprint`](crate::runner::RunResult::fingerprint) and
//! [`ShardedRunResult::fingerprint`](crate::shard::ShardedRunResult::fingerprint)
//! both build on the per-world writer here, so "byte-identical
//! fingerprints" means the same thing for every suite, probe and golden
//! file. A digest is JSON holding nothing but objects, arrays and unsigned
//! integers — an `f64` appears as its bits (`*_f64bits`), a sequence as
//! `{"n": length, "hash": FNV-1a}` — and per world it covers, in order:
//! the switch history; per client the association timeline, MPDU
//! attempts/successes, delivered downlink/uplink bits, the accuracy oracle's
//! five fields and the failover samples; `dcf_collisions`; then every
//! [`SystemMetrics`] row in table order.
//!
//! Because every value has a key, a mismatch can say which one moved:
//! [`assert_same`] reports the first differing key instead of two strings.

use crate::metrics::{Counter, SystemMetrics};
use crate::shard::ShardedRunResult;
use crate::world::WgttWorld;
use std::fmt::Write as _;
use wgtt_sim::{SimDuration, SimTime};

/// FNV-1a over `u64` words: stable across processes and platforms (unlike
/// `DefaultHasher`), fed from raw nanoseconds and ids rather than `Debug`
/// text.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Writes the `,` an object member or array element needs unless it is the
/// first of its container.
fn sep(out: &mut String) {
    if !out.ends_with(['{', '[']) {
        out.push(',');
    }
}

fn key(out: &mut String, name: &str) {
    sep(out);
    let _ = write!(out, "\"{name}\":");
}

fn num(out: &mut String, name: &str, value: u64) {
    key(out, name);
    let _ = write!(out, "{value}");
}

fn hashed(out: &mut String, name: &str, n: usize, hash: Fnv) {
    key(out, name);
    let _ = write!(out, "{{\"n\":{n},\"hash\":{}}}", hash.0);
}

fn samples(out: &mut String, name: &str, samples: &[(SimTime, SimDuration)]) {
    let mut h = Fnv::new();
    for &(at, latency) in samples {
        h.mix(at.as_nanos());
        h.mix(latency.as_nanos());
    }
    hashed(out, name, samples.len(), h);
}

fn write_sys(out: &mut String, sys: &SystemMetrics) {
    out.push('{');
    sys.visit(|name, value| match value {
        Counter::Sum(n) => num(out, name, n),
        Counter::Samples(s) => samples(out, name, s),
    });
    out.push('}');
}

/// The per-world writer both result types share.
fn write_world(out: &mut String, w: &WgttWorld) {
    out.push('{');
    let history = w.ctrl.engine.history();
    let mut h = Fnv::new();
    for r in history {
        for v in [
            r.client.0 as u64,
            r.from.0 as u64,
            r.to.0 as u64,
            r.issued_at.as_nanos(),
            r.completed_at.as_nanos(),
            r.retries as u64,
            r.epoch as u64,
        ] {
            h.mix(v);
        }
    }
    hashed(out, "switch_history", history.len(), h);
    key(out, "clients");
    out.push('[');
    for c in &w.clients {
        let m = &c.metrics;
        sep(out);
        out.push('{');
        let mut h = Fnv::new();
        for &(at, ap) in &m.assoc_timeline {
            h.mix(at.as_nanos());
            h.mix(ap.map_or(0, |a| a.0 as u64 + 1));
        }
        hashed(out, "assoc_timeline", m.assoc_timeline.len(), h);
        num(out, "mpdu_attempts", m.mpdu_attempts);
        num(out, "mpdu_successes", m.mpdu_successes);
        num(out, "downlink_f64bits", m.downlink.total().to_bits());
        num(out, "uplink_f64bits", m.uplink.total().to_bits());
        num(out, "accuracy_total", m.accuracy_total);
        num(out, "accuracy_optimal", m.accuracy_optimal);
        num(out, "capacity_samples", m.capacity_samples);
        num(
            out,
            "capacity_best_f64bits",
            m.capacity_best_bps_sum.to_bits(),
        );
        num(
            out,
            "capacity_loss_f64bits",
            m.capacity_loss_bps_sum.to_bits(),
        );
        samples(out, "failovers", &m.failovers);
        out.push('}');
    }
    out.push(']');
    num(out, "dcf_collisions", w.dcf_collisions);
    key(out, "sys");
    write_sys(out, &w.sys);
    out.push('}');
}

/// `{"events":…,"world":{…}}`.
pub(crate) fn of_run(events: u64, world: &WgttWorld) -> String {
    let mut out = String::from("{");
    num(&mut out, "events", events);
    key(&mut out, "world");
    write_world(&mut out, world);
    out.push('}');
    out
}

/// `{"events":…,"migrations":[[at,from,to],…],"shards":[{…},…],"sys":{…}}`:
/// the worlds in ascending shard id, then the merged counters.
pub(crate) fn of_sharded(r: &ShardedRunResult) -> String {
    let mut out = String::from("{");
    num(&mut out, "events", r.events);
    key(&mut out, "migrations");
    out.push('[');
    for m in &r.migrations {
        sep(&mut out);
        let _ = write!(out, "[{},{},{}]", m.at.as_nanos(), m.from, m.to);
    }
    out.push(']');
    key(&mut out, "shards");
    out.push('[');
    for w in &r.worlds {
        sep(&mut out);
        write_world(&mut out, w);
    }
    out.push(']');
    key(&mut out, "sys");
    write_sys(&mut out, &r.sys);
    out.push('}');
    out
}

/// Flattens a digest into `(key path, value)` leaves in document order,
/// e.g. `("shards[1].clients[0].mpdu_successes", "1842")`. Understands
/// exactly what this module writes: objects, arrays, unsigned integers.
pub fn leaves(digest: &str) -> Vec<(String, &str)> {
    enum Frame<'a> {
        Key(&'a str),
        Index(usize),
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut out = Vec::new();
    let bytes = digest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => stack.push(Frame::Key("")),
            b'[' => stack.push(Frame::Index(0)),
            b'}' | b']' => {
                stack.pop();
            }
            b',' => {
                if let Some(Frame::Index(n)) = stack.last_mut() {
                    *n += 1;
                }
            }
            b'"' => {
                let end = digest[i + 1..]
                    .find('"')
                    .map_or(bytes.len(), |len| i + 1 + len);
                if let Some(Frame::Key(k)) = stack.last_mut() {
                    *k = &digest[i + 1..end];
                }
                i = end;
            }
            b':' => {}
            _ => {
                let end = digest[i..]
                    .find([',', '}', ']'])
                    .map_or(bytes.len(), |len| i + len);
                let mut path = String::new();
                for frame in &stack {
                    match frame {
                        Frame::Key(k) if path.is_empty() => path.push_str(k),
                        Frame::Key(k) => {
                            path.push('.');
                            path.push_str(k);
                        }
                        Frame::Index(n) => {
                            let _ = write!(path, "[{n}]");
                        }
                    }
                }
                out.push((path, &digest[i..end]));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Panics unless the two digests are byte-identical, naming the first key
/// whose value differs (`what` says which run, or which golden file).
#[track_caller]
pub fn assert_same(what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let (got, want) = (leaves(got), leaves(want));
    let absent = (String::new(), "<absent>");
    for i in 0..got.len().max(want.len()) {
        let (g, w) = (
            got.get(i).unwrap_or(&absent),
            want.get(i).unwrap_or(&absent),
        );
        if g != w {
            let path = if g.0.is_empty() { &w.0 } else { &g.0 };
            panic!(
                "{what}: digests differ, first at `{path}`: got {}, want {}",
                g.1, w.1
            );
        }
    }
    panic!("{what}: digests differ, though every key holds the same value");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_name_nested_values() {
        let digest =
            r#"{"events":7,"migrations":[[4,0,1],[5,1,0]],"shards":[{"a":{"n":2,"hash":9}}]}"#;
        let flat: Vec<(String, &str)> = leaves(digest);
        let flat: Vec<(&str, &str)> = flat.iter().map(|(p, v)| (p.as_str(), *v)).collect();
        assert_eq!(
            flat,
            [
                ("events", "7"),
                ("migrations[0][0]", "4"),
                ("migrations[0][1]", "0"),
                ("migrations[0][2]", "1"),
                ("migrations[1][0]", "5"),
                ("migrations[1][1]", "1"),
                ("migrations[1][2]", "0"),
                ("shards[0].a.n", "2"),
                ("shards[0].a.hash", "9"),
            ]
        );
    }

    #[test]
    #[should_panic(
        expected = "ring: digests differ, first at `world.sys.ap_crashes`: got 2, want 1"
    )]
    fn mismatch_names_the_first_key_that_moved() {
        assert_same(
            "ring",
            r#"{"events":7,"world":{"sys":{"ap_crashes":2,"ap_reboots":5}}}"#,
            r#"{"events":7,"world":{"sys":{"ap_crashes":1,"ap_reboots":6}}}"#,
        );
    }

    #[test]
    #[should_panic(expected = "first at `migrations[1][0]`: got <absent>, want 5")]
    fn mismatch_names_a_missing_element() {
        assert_same(
            "ring",
            r#"{"migrations":[[4]]}"#,
            r#"{"migrations":[[4],[5]]}"#,
        );
    }
}
