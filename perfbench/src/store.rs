//! The `store-fleet` workload: three replicas (collaboration ← group ←
//! personal) on a `SyncFabric` whose two links each follow their own seeded
//! chaos plan. A pass ingests in bulk at the root, fans out to the empty
//! peers, then runs small seeded write batches, each spread over the
//! replicas and followed by a `settle`. Both the ingest and the batches
//! follow the write mix of the `es-ingest` row in `crates/bench`.

use std::time::Instant;

use sciflow_core::fault::{FaultPlan, FaultProfile};
use sciflow_core::md5::md5;
use sciflow_core::units::SimDuration;
use sciflow_core::version::CalDate;
use sciflow_eventstore::{
    sync_once, FileRecord, GradeEntry, Replica, ReplicaError, ReplicaResult, RunRange, StoreTier,
    SyncFabric, SyncLink, SyncReport,
};

use crate::measure::{median, ms_since, Outcome, Rng, Samples};
use crate::spans::{self, span};
use crate::Config;

/// Size of a store-fleet pass.
#[derive(Clone, Copy)]
pub struct FleetScale {
    /// Records the bulk ingest registers at the root.
    pub records: u64,
    /// Writes per batch.
    pub batch: usize,
    /// Batches per pass.
    pub pass_batches: usize,
    /// Passes a run makes at least, however short `--seconds` is.
    pub min_passes: usize,
}

pub const FLEET: FleetScale =
    FleetScale { records: 1_000, batch: 8, pass_batches: 10, min_passes: 10 };

/// Round budget per `settle`; a fleet that needs more is a failed op.
const MAX_ROUNDS: usize = 200;
/// Link clock advance between batches: one batch of writes per hour. At
/// `FaultProfile::replica_chaos()` rates (15 fault events a day per link)
/// a settle meets about 0.6 fault events per link, so most settles are
/// clean and some drop, stall, corrupt, duplicate, reorder or partition.
const BATCH_GAP_MINS: u64 = 60;
/// Fault-timeline horizon of each link. A pass walks 10 one-hour gaps plus
/// at most one partition heal per round (4 h on average); a week leaves
/// every pass inside its plan.
const HORIZON_DAYS: u64 = 7;
/// Probe iterations of the traced run's direct replica and store calls.
const PROBES: usize = 20;
/// Fleets built per pass. Building one takes tens of microseconds, too
/// short for one sample to mean much on a shared host, so every pass times
/// a batch of builds and keeps the last.
const BUILDS_PER_PASS: usize = 50;
/// The steady-state write mix of a group store, as the `es-ingest` row
/// runs it: per registered file, a revision every 5th, a quarantine every
/// 64th, a release every 128th and a grade declaration every 500th. Here as
/// weights of register, revise, quarantine, release and grade, per 16,000
/// registrations (about 81.6%, 16.3%, 1.3%, 0.6% and 0.2% of writes).
const MIX: [u64; 5] = [16_000, 3_200, 250, 125, 32];

/// One local write, applied at one replica.
enum Write {
    Register(FileRecord),
    Revise(FileRecord),
    Quarantine(u64),
    Release(u64),
    Grade(u32),
}

/// Seeded record metadata: every field a function of the generator.
fn record(rng: &mut Rng, id: u64, revision: u64) -> FileRecord {
    const KINDS: [&str; 3] = ["recon", "postrecon", "mc"];
    const SITES: [&str; 3] = ["Cornell", "Wilson", "CESR"];
    FileRecord {
        id,
        runs: RunRange::single(10_000 + rng.below(40_000) as u32),
        kind: KINDS[rng.below(3) as usize].into(),
        version: format!("v{revision}"),
        site: SITES[rng.below(3) as usize].into(),
        registered: CalDate::new(2005, 1 + rng.below(12) as u8, 1 + rng.below(28) as u8)
            .expect("months 1-12 and days 1-28 are valid dates"),
        location: format!("/fleet/{id}/{revision}"),
        prov_digest: md5(format!("{id}:{revision}:{}", rng.next_u64()).as_bytes()),
    }
}

/// The k-th grade declaration's date: strictly increasing in `k`, so a
/// declaration never lands before one already replicated.
fn grade_date(k: u32) -> CalDate {
    CalDate::new(2005 + (k / 336) as u16, 1 + (k / 28 % 12) as u8, 1 + (k % 28) as u8)
        .expect("months 1-12 and days 1-28 are valid dates")
}

/// The replicas, their fabric, and the seeded generator of their writes.
struct Fleet {
    replicas: Vec<Replica>,
    fabric: SyncFabric,
    rng: Rng,
    /// Next file id to register; every id below it exists everywhere once
    /// the fleet has settled.
    next_id: u64,
    grades: u32,
    revisions: u64,
    /// Unit writes (everything but grade declarations) since the last
    /// settle, the base of the ship ratio.
    unit_writes: u64,
}

impl Fleet {
    fn new(seed: u64) -> Fleet {
        let replicas = vec![
            Replica::new(1, StoreTier::Collaboration),
            Replica::new(2, StoreTier::Group),
            Replica::new(3, StoreTier::Personal),
        ];
        let mut fabric = SyncFabric::new();
        for (a, b) in [(0, 1), (1, 2)] {
            let plan = FaultPlan::generate(
                Rng::new(seed, &format!("link-{a}-{b}")).next_u64(),
                SimDuration::from_days(HORIZON_DAYS),
                &FaultProfile::replica_chaos(),
            );
            fabric.connect(a, b, SyncLink::new(plan));
        }
        let rng = Rng::new(seed, "store-ops");
        Fleet { replicas, fabric, rng, next_id: 0, grades: 0, revisions: 0, unit_writes: 0 }
    }

    fn register(&mut self) -> Write {
        self.next_id += 1;
        Write::Register(record(&mut self.rng, self.next_id - 1, 0))
    }

    fn revise(&mut self, id: u64) -> Write {
        self.revisions += 1;
        Write::Revise(record(&mut self.rng, id, self.revisions))
    }

    fn grade(&mut self) -> Write {
        self.grades += 1;
        Write::Grade(self.grades)
    }

    /// The next seeded batch: each write's kind, drawn with the `MIX`
    /// weights, and its replica. Revisions and quarantine flags only touch
    /// ids registered before the batch, which the last settle put on every
    /// replica.
    fn batch(&mut self, n: usize) -> Vec<(usize, Write)> {
        let known = self.next_id;
        (0..n)
            .map(|_| {
                let at = self.rng.below(3) as usize;
                let mut pick = self.rng.below(MIX.iter().sum());
                let mut kind = 0;
                while pick >= MIX[kind] {
                    pick -= MIX[kind];
                    kind += 1;
                }
                let w = match kind {
                    0 => self.register(),
                    1 => {
                        let id = self.rng.below(known);
                        self.revise(id)
                    }
                    2 => Write::Quarantine(self.rng.below(known)),
                    3 => Write::Release(self.rng.below(known)),
                    _ => self.grade(),
                };
                (at, w)
            })
            .collect()
    }

    fn apply(&mut self, at: usize, w: &Write) -> ReplicaResult<()> {
        let r = &mut self.replicas[at];
        self.unit_writes += u64::from(!matches!(w, Write::Grade(_)));
        match w {
            Write::Register(rec) => r.register(rec),
            Write::Revise(rec) => r.revise(rec).map(|_| ()),
            Write::Quarantine(id) => r.quarantine(*id, "fleet integrity flag"),
            Write::Release(id) => r.release(*id),
            Write::Grade(k) => {
                let entry = GradeEntry {
                    runs: RunRange::new(1, 1 + *k).expect("1 <= 1 + k"),
                    kind: "recon".into(),
                    version: format!("g{k}"),
                };
                r.declare_snapshot("physics", grade_date(*k), vec![entry])
            }
        }
    }

    /// Apply `writes`, timing each into the loop's throughput.
    fn write_all(&mut self, writes: &[(usize, Write)], out: &mut Outcome, s: &mut Samples) {
        for (at, w) in writes {
            let t = Instant::now();
            let r = span("replica.write", || self.apply(*at, w));
            s.busy_s += t.elapsed().as_secs_f64();
            s.work += 1.0;
            out.op("Replica write", r);
        }
    }

    /// Bulk ingest at the root on the `es-ingest` row's schedule: every
    /// registration, plus a revision of every 5th file, a quarantine of
    /// every 64th, a release of every 128th and a grade declaration after
    /// every 500th.
    fn ingest(&mut self, records: u64, out: &mut Outcome, s: &mut Samples) {
        let mut writes = Vec::new();
        for id in 0..records {
            writes.push((0, self.register()));
            if id % 5 == 0 {
                writes.push((0, self.revise(id)));
            }
            if id % 64 == 0 {
                writes.push((0, Write::Quarantine(id)));
            }
            if id % 128 == 0 {
                writes.push((0, Write::Release(id)));
            }
            if id % 500 == 499 {
                writes.push((0, self.grade()));
            }
        }
        self.write_all(&writes, out, s);
    }

    /// Settle the fleet. Untraced, this is `SyncFabric::settle`; traced, the
    /// same loop (a round, then the convergence check over every replica's
    /// sealed content) is driven from here so each round and content read
    /// gets its own span and the sessions' reports can be tallied.
    fn settle(&mut self, name: &'static str, tally: Option<&mut Tally>) -> ReplicaResult<usize> {
        if !spans::enabled() {
            return self.fabric.settle(&mut self.replicas, MAX_ROUNDS);
        }
        let mut reports: Vec<Option<SyncReport>> = Vec::new();
        let rounds = span(name, || {
            for round in 1..=MAX_ROUNDS {
                reports.extend(span("replica.round", || self.fabric.round(&mut self.replicas))?);
                let first = span("replica.sealed_content", || self.replicas[0].sealed_content())?;
                let mut converged = true;
                for r in &self.replicas[1..] {
                    if span("replica.sealed_content", || r.sealed_content())? != first {
                        converged = false;
                        break;
                    }
                }
                if converged {
                    return Ok(round);
                }
            }
            Err(ReplicaError::NoQuiescence { rounds: MAX_ROUNDS })
        });
        if let (Some(t), Ok(n)) = (tally, &rounds) {
            t.rounds += *n as u64;
            t.unit_writes += self.unit_writes;
            for r in &reports {
                match r {
                    Some(r) => {
                        t.sessions += 1;
                        t.ranges_differing += r.ranges_differing as u64;
                        t.units_sent += r.units_sent as u64;
                        t.frames_sent += r.frames_sent;
                        t.bytes_sent += r.bytes_sent;
                        t.corrupt_frames += r.corrupt_frames as u64;
                    }
                    None => t.sessions_dropped += 1,
                }
            }
        }
        self.unit_writes = 0;
        rounds
    }

    /// End-of-pass output checks: identical sealed content everywhere, the
    /// expected unit count, and a digest-only session on every link.
    fn check(&mut self, out: &mut Outcome) {
        let contents: Vec<Option<Vec<u8>>> =
            self.replicas.iter().map(|r| r.sealed_content().ok()).collect();
        out.check(
            "every replica ends with identical sealed content",
            contents[0].is_some() && contents.iter().all(|c| *c == contents[0]),
        );
        let expect = self.next_id as usize;
        out.check(
            "every replica holds every registered unit",
            self.replicas.iter().all(|r| r.store().file_count() == expect),
        );
        let in_sync = [(0, 1), (1, 2)].iter().all(|&(a, b)| {
            let (left, right) = self.replicas.split_at_mut(b);
            sync_once(&mut left[a], &mut right[0], &mut SyncLink::clean())
                .is_ok_and(|r| r.in_sync && r.units_sent == 0)
        });
        out.check("a final session on every link is digest-only", in_sync);
    }
}

/// Work counters summed over the batch settles of the traced pass.
#[derive(Default)]
struct Tally {
    sessions: u64,
    sessions_dropped: u64,
    rounds: u64,
    ranges_differing: u64,
    units_sent: u64,
    frames_sent: u64,
    bytes_sent: u64,
    corrupt_frames: u64,
    unit_writes: u64,
}

/// Pass `pass` of a run: build the fleet, ingest, fan out (the pass's phase
/// sample), then run the batches, each followed by a timed settle. Every
/// pass draws its records, writes and link plans from its own seed, derived
/// from the run's, so a run averages over many batches and fault timelines
/// rather than repeating one. Returns the fleet as the pass left it.
fn fleet_pass(
    seed: u64,
    pass: usize,
    scale: &FleetScale,
    out: &mut Outcome,
    s: &mut Samples,
    mut tally: Option<&mut Tally>,
) -> Option<Fleet> {
    let pass_seed = Rng::new(seed, &format!("pass-{pass}")).next_u64();
    let mut fleet = (0..BUILDS_PER_PASS)
        .map(|_| {
            let t = Instant::now();
            let fleet = Fleet::new(pass_seed);
            s.setup_s.push(t.elapsed().as_secs_f64());
            fleet
        })
        .last()
        .expect("BUILDS_PER_PASS > 0");
    fleet.ingest(scale.records, out, s);
    let t = Instant::now();
    out.op("SyncFabric::settle (fan-out)", fleet.settle("replica.fanout", None))?;
    s.phase_s.push(t.elapsed().as_secs_f64());
    fleet.unit_writes = 0;
    for _ in 0..scale.pass_batches {
        span("host.batch", || {
            let batch = fleet.batch(scale.batch);
            fleet.write_all(&batch, out, s);
            fleet.fabric.advance(SimDuration::from_mins(BATCH_GAP_MINS));
            let t = Instant::now();
            let settled = fleet.settle("replica.settle", tally.as_deref_mut());
            s.steps_ms.push(ms_since(t));
            out.op("SyncFabric::settle", settled).map(|_| ())
        })?;
    }
    s.end_pass();
    fleet.check(out);
    Some(fleet)
}

pub fn store_fleet(cfg: &Config, scale: &FleetScale, out: &mut Outcome) {
    if cfg.trace {
        return traced_fleet(cfg.seed, scale, out);
    }
    let mut s = Samples::default();
    let deadline = Instant::now() + cfg.duration();
    while s.passes() < scale.min_passes || Instant::now() < deadline {
        if fleet_pass(cfg.seed, s.passes(), scale, out, &mut s, None).is_none() {
            break;
        }
    }
    out.note("ops_per_s: local writes (register, revise, quarantine, release, grade) per host second inside them");
    out.note(format!(
        "step_ms: one settle after a {}-write batch; phase_s: the fan-out settle of {} records to the empty peers",
        scale.batch, scale.records
    ));
    s.report(out);
}

fn traced_fleet(seed: u64, scale: &FleetScale, out: &mut Outcome) {
    let mut tally = Tally::default();
    let (fleet, overhead) = spans::with_overhead(|traced| {
        let tally = if traced { Some(&mut tally) } else { None };
        fleet_pass(seed, 0, scale, out, &mut Samples::default(), tally)
    });
    out.metric("host.trace_overhead_pct", overhead);
    let Some(fleet) = fleet else { return };

    // Direct calls the settle path makes internally, probed on the settled
    // fleet with seeded arguments.
    let mut rng = Rng::new(seed, "probes");
    for _ in 0..PROBES {
        let at = rng.below(3) as usize;
        let r = &fleet.replicas[at];
        out.op("Replica::summary", span("replica.summary", || r.summary()));
        let range = rng.below(64) as usize;
        out.op(
            "Replica::units_in_range",
            span("replica.units_in_range", || r.units_in_range(range)),
        );
        for _ in 0..8 {
            let id = rng.below(fleet.next_id);
            let found = span("store.file", || r.store().file(id));
            out.check("EventStore::file finds every registered id", matches!(found, Ok(Some(_))));
        }
    }

    let p50 = |name| median(&spans::durations_ms(name).0);
    let (write_ms, _) = spans::durations_ms("replica.write");
    let (settles, settle_allocs) = spans::durations_ms("replica.settle");
    let (rounds, _) = spans::durations_ms("replica.round");
    out.metric("replica.write_us_p50", median(&write_ms) * 1e3);
    out.metric("replica.summary_ms", p50("replica.summary"));
    out.metric("replica.units_in_range_ms", p50("replica.units_in_range"));
    out.metric("replica.sealed_content_ms", p50("replica.sealed_content"));
    out.metric("replica.round_ms_p50", median(&rounds));
    out.note_samples("replica.round_ms", &rounds, 0.5);
    out.metric("replica.sessions", tally.sessions as f64);
    out.metric("replica.sessions_dropped", tally.sessions_dropped as f64);
    out.metric("replica.rounds", tally.rounds as f64);
    out.metric("replica.ranges_differing", tally.ranges_differing as f64);
    out.metric("replica.units_sent", tally.units_sent as f64);
    out.metric("replica.frames_sent", tally.frames_sent as f64);
    out.metric("replica.bytes_sent", tally.bytes_sent as f64);
    out.metric("replica.corrupt_frames", tally.corrupt_frames as f64);
    out.metric("replica.ship_ratio", tally.units_sent as f64 / tally.unit_writes.max(1) as f64);
    out.note(format!(
        "replica.ship_ratio base: {} units sent / {} unit writes",
        tally.units_sent, tally.unit_writes
    ));
    out.metric("store.file_get_us_p50", p50("store.file") * 1e3);
    let rows: usize = fleet
        .replicas
        .iter()
        .map(|r| {
            let db = r.store().database();
            db.table_names().filter_map(|n| db.table(n).ok()).map(|t| t.len()).sum::<usize>()
        })
        .sum();
    out.metric("metastore.rows", rows as f64);
    out.metric("alloc.per_settle", settle_allocs as f64 / settles.len().max(1) as f64);
}
