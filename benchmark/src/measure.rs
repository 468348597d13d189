//! The untraced wire run: set-up (launch + warm-up, repeated), the
//! single-caller phase, the capacity phase, and the check of every
//! distinct reply.
//!
//! Both phases are closed loops — each connection sends its next
//! request only after the previous reply arrived, with no think time —
//! because on a 2-core machine an open-loop generator's own wake-up
//! lateness and head-of-line waits dominated the tail (see README.md).

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

use kor::json::JsonValue;

use crate::check::check_reply;
use crate::stats::supports;
use crate::wire::{closed_loop, Conn, Replies, Server, Tally, Updater};
use crate::workload::UPDATE_INTERVAL_MS;
use crate::Prepared;

/// How long and how often the wire run does each part.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Server launches during set-up; the last one is measured.
    pub launches: usize,
    /// Single-caller phase length.
    pub single: Duration,
    /// Capacity phase length (`None`: skipped).
    pub capacity: Option<Duration>,
    /// Whether to keep both cores busy for [`SPIN`] before set-up and
    /// before the capacity phase.
    pub spin: bool,
}

/// How long [`spin`] keeps both cores busy.
pub const SPIN: Duration = Duration::from_millis(1500);

/// Keeps both cores busy for `length`, using two threads. On the 2-vCPU
/// virtual machine the README's numbers come from, wake-ups stay fast
/// for several seconds after both vCPUs were busy and then slow down:
/// `light-wire` capacity read 22,000 queries/s in the first state and
/// 11,000 in the second, depending only on what ran before. Spinning
/// before a phase starts every phase in the same state.
fn spin(length: Duration) {
    let until = Instant::now() + length;
    let work = || {
        let mut x = 0u64;
        while Instant::now() < until {
            for _ in 0..1000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(work);
        work();
    });
}

impl Profile {
    /// Number of `update_edges` batches the phases can send.
    pub fn batches(&self) -> usize {
        let total = self.single + self.capacity.unwrap_or_default();
        (total.as_millis() / u128::from(UPDATE_INTERVAL_MS)) as usize + 1
    }
}

/// The `update_edges` stream of `traffic-churn`.
#[derive(Debug, Default)]
pub struct Updates {
    /// Batches sent.
    pub sent: u64,
    /// Acknowledgement latencies of the single-caller phase, in ms.
    pub single_acks_ms: Vec<f64>,
    /// Batches acknowledged in either phase.
    pub acked: u64,
    /// Failed batches.
    pub failed: u64,
    /// The first failure, verbatim.
    pub first_error: Option<String>,
}

/// What the checker found.
#[derive(Debug, Default)]
pub struct CheckSummary {
    /// Distinct replies checked.
    pub distinct: usize,
    /// Replies (counted with multiplicity) that failed.
    pub failed: u64,
    /// The first failure, verbatim.
    pub first_error: Option<String>,
    /// Mean of served objective ÷ exact optimum over distinct feasible
    /// (query, algorithm) pairs at epoch 0.
    pub objective_ratio: f64,
    /// Number of such pairs.
    pub ratio_pairs: usize,
    /// Highest epoch any reply reported.
    pub max_epoch: u64,
}

/// Everything the wire run measured.
#[derive(Debug, Default)]
pub struct WireRun {
    /// Seconds from spawn to the end of the warm-up pass, per launch.
    pub setup_s: Vec<f64>,
    /// Warm-up passes of every launch.
    pub warmup: Tally,
    /// The single-caller phase.
    pub single: Tally,
    /// The capacity phase, when run.
    pub capacity: Option<Tally>,
    /// Replies per second in each of [`CAPACITY_WINDOWS`] equal slices of
    /// the capacity phase.
    pub capacity_window_qps: Vec<f64>,
    /// The update stream (`traffic-churn` only).
    pub updates: Option<Updates>,
    /// For each batch acknowledged during the single-caller phase, how
    /// many single-caller replies had arrived before its acknowledgement
    /// — where the traced replay interleaves it.
    pub batch_positions: Vec<usize>,
    /// Each launch's peak RSS at the end of its warm-up pass, in MB.
    pub warm_rss_mb: Vec<f64>,
    /// The measured server's peak RSS after the single-caller phase, in
    /// MB. Its interquartile range over ten runs reached 14 % of the
    /// median, against 0.3 % at the end of warm-up; a diagnostic only.
    pub single_rss_mb: f64,
    /// The server's `stats` result after the single-caller phase.
    pub stats: Option<JsonValue>,
    /// Failures outside requests (a server that did not stop cleanly).
    pub other_failures: Vec<String>,
    /// The checker's findings.
    pub check: CheckSummary,
}

impl WireRun {
    /// Operations attempted: queries and update batches.
    pub fn attempted(&self) -> u64 {
        self.warmup.sent
            + self.single.sent
            + self.capacity.as_ref().map_or(0, |t| t.sent)
            + self.updates.as_ref().map_or(0, |u| u.sent)
    }

    /// Operations that failed: error replies, I/O errors, replies the
    /// checker rejected, failed updates, and an unclean shutdown.
    pub fn failed(&self) -> u64 {
        self.warmup.failed
            + self.single.failed
            + self.capacity.as_ref().map_or(0, |t| t.failed)
            + self.updates.as_ref().map_or(0, |u| u.failed)
            + self.check.failed
            + self.other_failures.len() as u64
    }

    /// The first failure of any kind.
    pub fn first_error(&self) -> Option<&str> {
        [
            self.warmup.first_error.as_deref(),
            self.single.first_error.as_deref(),
            self.capacity
                .as_ref()
                .and_then(|t| t.first_error.as_deref()),
            self.updates.as_ref().and_then(|u| u.first_error.as_deref()),
            self.check.first_error.as_deref(),
            self.other_failures.first().map(String::as_str),
        ]
        .into_iter()
        .flatten()
        .next()
    }
}

/// The capacity phase is cut into this many equal windows, and
/// `capacity_qps` is the median of their throughputs, so that a short
/// stall moves one window rather than the metric. Over ten runs of
/// `cold-targets` this median spread by 15 % of its value (interquartile
/// range), the whole-phase rate by 20 %.
pub const CAPACITY_WINDOWS: u32 = 8;

/// Replies per second in each of [`CAPACITY_WINDOWS`] equal slices of
/// the phase that ran `length` from `began`, given when each reply
/// arrived.
fn window_rates(ends: &[Instant], began: Instant, length: Duration) -> Vec<f64> {
    let window = length / CAPACITY_WINDOWS;
    let last = CAPACITY_WINDOWS as usize - 1;
    let mut counts = vec![0u32; last + 1];
    for &end in ends {
        // A reply to a request sent just before the phase ended belongs
        // to the last window.
        let i = (end - began).as_nanos() / window.as_nanos().max(1);
        counts[usize::try_from(i).map_or(last, |i| i.min(last))] += 1;
    }
    counts
        .into_iter()
        .map(|c| f64::from(c) / window.as_secs_f64())
        .collect()
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs set-up and the phases against `kor serve` child processes.
/// `Err` means the run could not be carried out at all.
pub fn run(
    prep: &Prepared,
    server_bin: &Path,
    out: &Path,
    profile: &Profile,
    want_stats: bool,
) -> Result<WireRun, String> {
    let mutates = prep.workload.mutates();
    let journal = out.join("journal");
    let log = out.join(format!("serve-{}.log", prep.workload.name()));
    let n = prep.order.len();
    let warmup: Vec<usize> = (0..prep.workload.warmup_len(n)).collect();
    let mut run = WireRun::default();
    let mut replies = Replies::new();

    if profile.spin {
        spin(SPIN);
    }
    let mut measured = None;
    for launch in 0..profile.launches {
        if mutates {
            // Each launch starts from a fresh journal: nothing to recover.
            match std::fs::remove_dir_all(&journal) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("clearing the journal: {e}"))
                }
                _ => {}
            }
            std::fs::create_dir_all(&journal).map_err(io("creating the journal directory"))?;
        }
        let start = Instant::now();
        let server = Server::spawn(
            server_bin,
            &prep.korbin,
            mutates.then_some(journal.as_path()),
            &log,
        )
        .map_err(io("starting kor serve"))?;
        let mut conn = Conn::connect(server.addr).map_err(io("connecting"))?;
        let mut tally = Tally::default();
        let stop = |sent| sent >= warmup.len() as u64;
        closed_loop(
            &mut conn,
            &prep.queries,
            &warmup,
            0,
            stop,
            |_| {},
            &mut tally,
            &mut replies,
        );
        run.setup_s.push(start.elapsed().as_secs_f64());
        run.warm_rss_mb.push(
            server
                .peak_rss_mb()
                .map_err(io("reading the server's VmHWM"))?,
        );
        run.warmup.merge(tally);
        if launch + 1 < profile.launches {
            drop(conn);
            if let Err(e) = server.shutdown() {
                run.other_failures
                    .push(format!("set-up launch {launch}: {e}"));
            }
        } else {
            measured = Some((server, conn));
        }
    }
    let (server, mut conn_a) = measured.ok_or("no launches")?;
    let mut conn_b = Conn::connect(server.addr).map_err(io("connecting"))?;

    let interval = Duration::from_millis(UPDATE_INTERVAL_MS);
    let mut updater = Updater::new(&prep.script, interval);
    let until = Instant::now() + profile.single;
    std::thread::scope(|s| {
        if mutates {
            s.spawn(|| updater.run_until(&mut conn_b, until));
        }
        // Past its length, the phase goes on until it has enough replies
        // for a p95 (`cold-targets` in a 1 s smoke phase has not).
        let stop = |sent| Instant::now() >= until && supports(sent as usize, 0.95);
        closed_loop(
            &mut conn_a,
            &prep.queries,
            &prep.order,
            0,
            stop,
            |_| {},
            &mut run.single,
            &mut replies,
        );
    });
    let single_acks_ms = updater.acks_ms.clone();
    run.batch_positions = updater
        .acked_at
        .iter()
        .map(|&at| run.single.ends.partition_point(|&end| end <= at))
        .collect();
    run.single_rss_mb = server
        .peak_rss_mb()
        .map_err(io("reading the server's VmHWM"))?;
    if want_stats {
        let mut reply = String::new();
        conn_a
            .call("{\"id\":\"stats\",\"method\":\"stats\"}\n", &mut reply)
            .map_err(io("fetching stats"))?;
        let value = JsonValue::parse(reply.trim_end()).map_err(|e| format!("stats reply: {e}"))?;
        run.stats = value.get("result").cloned();
    }

    if let Some(length) = profile.capacity {
        if profile.spin {
            spin(SPIN);
        }
        let began = Instant::now();
        let until = began + length;
        let stop = |_| Instant::now() >= until;
        let (mut first, mut second) = (Tally::default(), Tally::default());
        let mut more = Replies::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                closed_loop(
                    &mut conn_a,
                    &prep.queries,
                    &prep.order,
                    prep.capacity_start,
                    stop,
                    |_| {},
                    &mut first,
                    &mut replies,
                )
            });
            // On `traffic-churn` the second connection also carries the
            // update stream, so capacity is measured under churn.
            let between = |c: &mut Conn| {
                if mutates {
                    updater.poll(c)
                }
            };
            let start = prep.capacity_start + n / 2;
            closed_loop(
                &mut conn_b,
                &prep.queries,
                &prep.order,
                start,
                stop,
                between,
                &mut second,
                &mut more,
            );
        });
        for (line, (q, count)) in more {
            replies.entry(line).or_insert((q, 0)).1 += count;
        }
        first.merge(second);
        run.capacity_window_qps = window_rates(&first.ends, began, length);
        run.capacity = Some(first);
    }
    if mutates {
        run.updates = Some(Updates {
            sent: updater.sent as u64,
            single_acks_ms,
            acked: updater.acks_ms.len() as u64,
            failed: updater.failed,
            first_error: updater.first_error.clone(),
        });
    }
    drop((conn_a, conn_b));
    if let Err(e) = server.shutdown() {
        run.other_failures.push(format!("shutdown: {e}"));
    }
    run.check = check_all(prep, &replies);
    Ok(run)
}

/// The epoch a reply reports, read from its fixed rendering.
fn epoch_of(line: &str) -> Option<u64> {
    let at = line.find("\"epoch\":")? + "\"epoch\":".len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Checks every distinct reply on the graph of its epoch, rebuilding the
/// epochs of `traffic-churn` by replaying the script in order.
pub fn check_all(prep: &Prepared, replies: &Replies) -> CheckSummary {
    let mut summary = CheckSummary {
        distinct: replies.len(),
        ..CheckSummary::default()
    };
    let fail = |summary: &mut CheckSummary, count: u64, what: String| {
        summary.failed += count;
        summary.first_error.get_or_insert(what);
    };
    let mut by_epoch: Vec<(u64, &str, usize, u64)> = Vec::with_capacity(replies.len());
    for (line, &(q, count)) in replies {
        match epoch_of(line) {
            Some(epoch) if epoch as usize <= prep.script.len() => {
                by_epoch.push((epoch, line, q, count))
            }
            _ => fail(
                &mut summary,
                count,
                format!("query {q}: reply names no known epoch: {line}"),
            ),
        }
    }
    by_epoch.sort_unstable_by_key(|&(epoch, line, _, _)| (epoch, line));
    let mut graph = prep.graph.clone();
    let mut answered: HashSet<(usize, u64)> = HashSet::new();
    let mut ratios: BTreeMap<usize, f64> = BTreeMap::new();
    for (epoch, line, q, count) in by_epoch {
        while graph.epoch() < epoch {
            graph = graph
                .apply_mutations(&prep.script[graph.epoch() as usize])
                .expect("the traffic script applies in order");
        }
        summary.max_epoch = epoch;
        if !answered.insert((q, epoch)) {
            fail(
                &mut summary,
                count,
                format!("query {q} got two different replies at epoch {epoch}"),
            );
            continue;
        }
        let optimum = (epoch == 0).then(|| prep.optimum[q]);
        match check_reply(line, &prep.queries[q], &graph, optimum) {
            Ok(v) if v.epoch != epoch => {
                fail(&mut summary, count, format!("query {q}: epoch mismatch"))
            }
            Ok(v) => {
                if let (Some(found), Some(Some(opt))) = (v.objective, optimum) {
                    ratios.insert(q, found / opt);
                }
            }
            Err(e) => fail(
                &mut summary,
                count,
                format!("query {q} at epoch {epoch}: {e}: {line}"),
            ),
        }
    }
    summary.ratio_pairs = ratios.len();
    if !ratios.is_empty() {
        summary.objective_ratio = ratios.values().sum::<f64>() / ratios.len() as f64;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_read_from_the_rendering() {
        assert_eq!(
            epoch_of(
                r#"{"id":3,"ok":true,"result":{"dataset":"bench","algo":"greedy","epoch":12,"feasible":true}}"#
            ),
            Some(12)
        );
        assert_eq!(epoch_of(r#"{"id":3,"ok":true}"#), None);
    }

    #[test]
    fn batches_cover_both_phases() {
        let p = Profile {
            launches: 1,
            single: Duration::from_secs(2),
            capacity: Some(Duration::from_secs(1)),
            spin: false,
        };
        assert_eq!(p.batches(), 31);
    }
}
