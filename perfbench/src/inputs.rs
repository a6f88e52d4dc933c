//! Deterministic workload inputs, generated from the `--seed` argument
//! before any timed region. Every generated gaming session keeps its
//! gamesim ground truth for the accuracy metrics; the program under test
//! receives only the traffic.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};

use cgc_core::QoeInputs;
use cgc_domain::{ActivityPattern, Resolution, StreamSettings, CATALOG};
use gamesim::dataset::sample_lab_settings;
use gamesim::{Fidelity, Session, SessionConfig, SessionGenerator, StageTimeline, TitleKind};
use nettrace::pcap::PcapWriter;
use nettrace::{Direction, FiveTuple, Micros, Packet, VolSeries, MICROS_PER_SEC};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Stage slot width of the committed bundle (`I = 1 s`).
pub const SLOT: Micros = MICROS_PER_SEC;
/// Title window (`N = 5 s`).
pub const TITLE_WINDOW: Micros = 5 * MICROS_PER_SEC;

/// `steady-gameplay`: sessions on the tap. Their starts are staggered so
/// that about 16 play at once, and they last long enough (launch plus
/// 200 s of gameplay) for most pattern decisions to fire.
pub const STEADY_SESSIONS: usize = 32;
const STEADY_GAMEPLAY_SECS: f64 = 200.0;
const STEADY_STAGGER: Micros = 15 * MICROS_PER_SEC;

/// `fleet-volumetric`: sessions, and their gameplay length range in
/// seconds. With launch added, every session spans 1025–2047 one-second
/// slots, one power-of-two capacity class of the per-slot report
/// vectors.
pub const FLEET_SESSIONS: usize = 300;
const FLEET_GAMEPLAY_SECS: std::ops::Range<f64> = 1100.0..1900.0;

/// `multi-tap-capture`: vantage points, gaming sessions per vantage
/// point, and the share of records from non-gaming background flows.
pub const CAPTURE_TAPS: usize = 3;
const CAPTURE_SESSIONS_PER_TAP: usize = 2;
const CAPTURE_GAMEPLAY_SECS: f64 = 200.0;
const CAPTURE_STAGGER: Micros = 20 * MICROS_PER_SEC;
const BACKGROUND_SHARE: f64 = 0.15;
const BACKGROUND_FLOWS_PER_TAP: usize = 6;
/// Capture clocks start near a real epoch (pcap stores 32-bit seconds).
const CAPTURE_EPOCH: Micros = 1_700_000_000 * MICROS_PER_SEC;

/// Ground truth of one generated gaming session.
#[derive(Debug, Clone)]
pub struct Truth {
    /// What was played.
    pub kind: TitleKind,
    /// Five-tuple in downstream orientation.
    pub tuple: FiveTuple,
    /// Stage timeline, session-relative.
    pub timeline: StageTimeline,
    /// Session-relative time of the first packet (the monitor rebases
    /// each flow to its first record).
    pub first_rel: Micros,
    /// Tap time (on the shared, skew-corrected axis) of the first record.
    pub start: Micros,
    /// Tap time of the last record.
    pub last: Micros,
    /// Records the session put on the tap.
    pub records: u64,
}

impl Truth {
    /// Slots the streaming analyzer closes for this flow: one per started
    /// slot between its first and last record.
    pub fn expected_slots(&self) -> usize {
        ((self.last - self.start) / SLOT) as usize + 1
    }
}

/// One tap record in compact form: the five-tuple is an index into
/// [`TapFeed::tuples`], so a feed of millions of records stays small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Tap timestamp, µs.
    pub ts: Micros,
    /// RTP payload length, bytes.
    pub len: u32,
    /// Index into [`TapFeed::tuples`].
    pub tuple: u32,
}

/// An interleaved tap feed plus the truth of its gaming sessions.
#[derive(Debug, Default)]
pub struct TapFeed {
    /// Records in timestamp order.
    pub recs: Vec<Rec>,
    /// Wire five-tuples (src = sender).
    pub tuples: Vec<FiveTuple>,
    /// Per tuple: the gaming session it belongs to and the direction it
    /// carries; `None` for background flows.
    pub flow_of: Vec<Option<(usize, Direction)>>,
    /// Gaming sessions, in generation order.
    pub sessions: Vec<Truth>,
}

impl TapFeed {
    fn add_tuple(&mut self, tuple: FiveTuple, flow: Option<(usize, Direction)>) -> u32 {
        self.tuples.push(tuple);
        self.flow_of.push(flow);
        (self.tuples.len() - 1) as u32
    }

    /// Adds `session`'s packets shifted by `offset`.
    fn add_session(&mut self, session: &Session, offset: Micros) {
        let f = self.sessions.len();
        let down = self.add_tuple(session.tuple, Some((f, Direction::Downstream)));
        let up = self.add_tuple(session.tuple.reversed(), Some((f, Direction::Upstream)));
        for p in &session.packets {
            let tuple = match p.dir {
                Direction::Downstream => down,
                Direction::Upstream => up,
            };
            self.recs.push(Rec {
                ts: offset + p.ts,
                len: p.payload_len,
                tuple,
            });
        }
        self.sessions.push(truth(session, offset));
    }
}

fn truth(session: &Session, offset: Micros) -> Truth {
    let first = session.packets.first().map_or(0, |p| p.ts);
    let last = session.packets.last().map_or(0, |p| p.ts);
    Truth {
        kind: session.kind,
        tuple: session.tuple,
        timeline: session.timeline.clone(),
        first_rel: first,
        start: offset + first,
        last: offset + last,
        records: session.packets.len() as u64,
    }
}

/// Seed of session `i` of a workload.
fn session_seed(seed: u64, salt: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_add((i as u64).wrapping_mul(0x51ED_270B))
}

/// Seed of the workloads' session libraries. The libraries are fixed so
/// that every run classifies the same traffic: with a few dozen sessions,
/// per-seed session draws move the accuracy metrics by more than 10 %
/// between seeds. The run seed places a tap library on the tap instead
/// (addresses and, for the capture, arrival jitter, clock skews and the
/// background flows), which changes the flow hashing and, on the
/// capture, the interleaving the monitor and merge work on. Session
/// order and vantage points stay fixed: they set the flow table's and
/// the decoder's memory high-water marks, which would otherwise move
/// with the seed. The fleet library has no tap, so the seed orders it.
const LIBRARY_SEED: u64 = 0x006C_6962_7261_7279;

/// Gives `session` a fresh client and server address and client port
/// drawn from `rng` (the platform's server port is kept, so the flow is
/// still recognised), unique among the workload's flows.
fn place(session: &mut Session, rng: &mut StdRng, used: &mut HashSet<FiveTuple>) {
    loop {
        let tuple = FiveTuple::udp_v4(
            [10, rng.gen(), rng.gen(), rng.gen_range(1..=254)],
            session.tuple.src_port,
            [
                100,
                rng.gen_range(64..128),
                rng.gen(),
                rng.gen_range(1..=254),
            ],
            rng.gen_range(50_000..60_000),
        );
        if used.insert(tuple.normalized()) {
            session.tuple = tuple;
            return;
        }
    }
}

/// Generates library session `i` of a tap workload (`salt` tells the
/// workloads' libraries apart).
fn library_session(
    generator: &mut SessionGenerator,
    settings: StreamSettings,
    salt: u64,
    i: usize,
    gameplay_secs: f64,
) -> Session {
    generator.generate(&SessionConfig {
        kind: tap_kind(i),
        settings,
        gameplay_secs,
        fidelity: Fidelity::FullPackets,
        seed: session_seed(LIBRARY_SEED, salt, i),
    })
}

/// The tap workloads' title mix: every catalog title in turn, with every
/// fourth session playing a non-catalog title. The mix is fixed so that
/// the seed varies the traffic, not the population being classified.
fn tap_kind(i: usize) -> TitleKind {
    if i % 4 == 3 {
        let n = i / 4;
        let pattern = if n.is_multiple_of(2) {
            ActivityPattern::SpectateAndPlay
        } else {
            ActivityPattern::ContinuousPlay
        };
        return TitleKind::Other {
            pattern,
            variant: (n % 8) as u32,
        };
    }
    let known = i - i / 4;
    TitleKind::Known(CATALOG[known % CATALOG.len()].title)
}

/// The fleet's title mix for session `i`: every fourth session plays a
/// non-catalog title, the rest are drawn by deployment
/// popularity with a 10 % uniform floor so rare catalog titles still
/// appear.
fn fleet_kind(i: usize, rng: &mut StdRng) -> TitleKind {
    if i % 4 == 3 {
        let pattern = if rng.gen_bool(0.6) {
            ActivityPattern::SpectateAndPlay
        } else {
            ActivityPattern::ContinuousPlay
        };
        return TitleKind::Other {
            pattern,
            variant: rng.gen_range(0..8u32),
        };
    }
    if rng.gen_bool(0.10) {
        return TitleKind::Known(CATALOG[rng.gen_range(0..CATALOG.len())].title);
    }
    let total: f64 = CATALOG.iter().map(|e| e.popularity).sum();
    let mut pick = rng.gen_range(0.0..total);
    for e in &CATALOG {
        if pick < e.popularity {
            return TitleKind::Known(e.title);
        }
        pick -= e.popularity;
    }
    TitleKind::Known(CATALOG[0].title)
}

/// `steady-gameplay`: the session library interleaved on one tap, with
/// seeded addresses. Start times are fixed: jittering them moved which
/// sessions overlap at the heap high-water, and so `peak_heap_mb`.
pub fn steady_gameplay(seed: u64) -> TapFeed {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5354_4541_4459);
    let mut settings_rng = StdRng::seed_from_u64(LIBRARY_SEED ^ 1);
    let mut generator = SessionGenerator::new();
    let mut library: Vec<Session> = (0..STEADY_SESSIONS)
        .map(|i| {
            let settings = sample_lab_settings(&mut settings_rng);
            library_session(&mut generator, settings, 1, i, STEADY_GAMEPLAY_SECS)
        })
        .collect();
    let mut used = HashSet::new();
    let mut feed = TapFeed::default();
    for (k, session) in library.iter_mut().enumerate() {
        place(session, &mut rng, &mut used);
        let offset = k as u64 * STEADY_STAGGER;
        feed.add_session(session, offset);
    }
    feed.recs.sort_by_key(|r| r.ts);
    feed
}

/// One `fleet-volumetric` session: what the deployment's per-session
/// analyzer receives.
#[derive(Debug, Clone)]
pub struct FleetSession {
    /// What was played.
    pub kind: TitleKind,
    /// Launch packets inside the title window.
    pub window: Vec<Packet>,
    /// 1 s volumetric series over the whole session.
    pub vol: VolSeries,
    /// QoS context for QoE labelling.
    pub qoe: QoeInputs,
    /// Stage timeline, session-relative.
    pub timeline: StageTimeline,
}

/// `fleet-volumetric`: a fixed library of launch-only sessions with a
/// fleet title mix, in an order the seed draws. As on the tap workloads,
/// the library is fixed so that the accuracies and the heap high-water
/// repeat exactly: drawing the sessions from the seed moved title
/// accuracy by up to 2.4 % between seeds. The analyzer's cost depends on
/// the order only through cache and allocator state.
pub fn fleet_volumetric(seed: u64) -> Vec<FleetSession> {
    let mut rng = StdRng::seed_from_u64(LIBRARY_SEED ^ 2);
    let mut generator = SessionGenerator::new();
    let mut library: Vec<FleetSession> = (0..FLEET_SESSIONS)
        .map(|i| {
            let kind = fleet_kind(i, &mut rng);
            let settings = sample_lab_settings(&mut rng);
            let gameplay_secs = rng.gen_range(FLEET_GAMEPLAY_SECS);
            let session = generator.generate(&SessionConfig {
                kind,
                settings,
                gameplay_secs,
                fidelity: Fidelity::LaunchOnly,
                seed: session_seed(LIBRARY_SEED, 2, i),
            });
            FleetSession {
                kind,
                window: session
                    .packets
                    .iter()
                    .copied()
                    .filter(|p| p.ts < TITLE_WINDOW)
                    .collect(),
                vol: session.vol_at(SLOT),
                qoe: QoeInputs {
                    nominal_fps: f64::from(settings.fps),
                    ..QoeInputs::default()
                },
                timeline: session.timeline,
            }
        })
        .collect();
    library.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0046_4C45_4554));
    library
}

/// One vantage point's capture file.
#[derive(Debug, Clone)]
pub struct TapFile {
    /// Merge source label.
    pub label: String,
    /// The pcap file.
    pub path: PathBuf,
    /// How far this vantage point's clock runs ahead of the shared axis,
    /// µs; the merge corrects it with offset `-skew_us`.
    pub skew_us: i64,
    /// Records in the file.
    pub records: u64,
}

/// `multi-tap-capture`: one pcap file per vantage point, removed again
/// when dropped.
#[derive(Debug)]
pub struct Capture {
    dir: PathBuf,
    /// The vantage points' files.
    pub taps: Vec<TapFile>,
    /// Gaming sessions across all vantage points (ground truth, on the
    /// skew-corrected axis).
    pub sessions: Vec<Truth>,
    /// Records of non-gaming background flows.
    pub background_records: u64,
    /// Bytes written.
    pub bytes: u64,
}

impl Capture {
    /// All records across the files.
    pub fn records(&self) -> u64 {
        self.taps.iter().map(|t| t.records).sum()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless, a panic in drop
        // is not.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Writes the `multi-tap-capture` files under `dir` (cleared first, so a
/// killed run's files do not pile up; removed when the returned
/// [`Capture`] drops). Each vantage point sees its own
/// subscribers' gaming sessions plus QUIC-like background flows on port
/// 443, at full frame size, stamped by its own skewed clock.
pub fn multi_tap_capture(seed: u64, dir: &Path) -> io::Result<Capture> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)?;
    let mut capture = Capture {
        dir: dir.to_path_buf(),
        taps: Vec::new(),
        sessions: Vec::new(),
        background_records: 0,
        bytes: 0,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4341_5054_5552);
    let mut settings_rng = StdRng::seed_from_u64(LIBRARY_SEED ^ 3);
    let mut generator = SessionGenerator::new();
    let n = CAPTURE_TAPS * CAPTURE_SESSIONS_PER_TAP;
    let mut library: Vec<Session> = (0..n)
        .map(|i| {
            // Low-rate subscribers (30 fps, at most 720p) keep one run's
            // capture near 1 GB.
            let mut settings = sample_lab_settings(&mut settings_rng);
            settings.fps = 30;
            if !matches!(settings.resolution, Resolution::Sd | Resolution::Hd) {
                settings.resolution = Resolution::Hd;
            }
            library_session(&mut generator, settings, 3, i, CAPTURE_GAMEPLAY_SECS)
        })
        .collect();
    let mut used = HashSet::new();
    for t in 0..CAPTURE_TAPS {
        let skew_us: i64 = rng.gen_range(-5_000..=5_000);
        // (tap time on the shared axis, downstream tuple, packet)
        let mut frames: Vec<(Micros, FiveTuple, Packet)> = Vec::new();
        let mut span_end = 0;
        for k in 0..CAPTURE_SESSIONS_PER_TAP {
            let session = &mut library[t * CAPTURE_SESSIONS_PER_TAP + k];
            place(session, &mut rng, &mut used);
            let offset =
                CAPTURE_EPOCH + k as u64 * CAPTURE_STAGGER + rng.gen_range(0..2 * MICROS_PER_SEC);
            for p in &session.packets {
                frames.push((offset + p.ts, session.tuple, *p));
            }
            let truth = truth(session, offset);
            span_end = span_end.max(truth.last);
            capture.sessions.push(truth);
        }
        let gaming = frames.len() as f64;
        let background = (gaming * BACKGROUND_SHARE / (1.0 - BACKGROUND_SHARE)) as usize;
        for b in 0..BACKGROUND_FLOWS_PER_TAP {
            // Server side on 443 (no platform signature), client on an
            // ephemeral port outside every platform range.
            let tuple = FiveTuple::udp_v4(
                [142, 250, rng.gen(), rng.gen_range(1..=254)],
                443,
                [192, 168, t as u8, b as u8 + 1],
                rng.gen_range(50_000..60_000),
            );
            for _ in 0..background / BACKGROUND_FLOWS_PER_TAP {
                let ts = rng.gen_range(CAPTURE_EPOCH..span_end);
                let (dir, len) = if rng.gen_bool(0.75) {
                    (Direction::Downstream, rng.gen_range(1_000..1_350))
                } else {
                    (Direction::Upstream, rng.gen_range(40..120))
                };
                frames.push((ts, tuple, Packet::new(ts, dir, len)));
                capture.background_records += 1;
            }
        }
        frames.sort_by_key(|f| f.0);

        let path = dir.join(format!("tap{t}.pcap"));
        let mut writer = PcapWriter::create(&path)?;
        let shift = |ts: Micros| nettrace::clock::shift_micros(ts, skew_us);
        for (ts, tuple, packet) in &frames {
            let mut p = *packet;
            p.ts = shift(*ts);
            writer.write_packet(tuple, &p)?;
        }
        // An empty session write flushes the buffered writer; the sync
        // then finishes the write-back before any timing starts.
        writer.write_session(&frames[0].1, &[])?;
        drop(writer);
        std::fs::File::open(&path)?.sync_all()?;
        capture.bytes += std::fs::metadata(&path)?.len();
        capture.taps.push(TapFile {
            label: format!("tap{t}"),
            path,
            skew_us,
            records: frames.len() as u64,
        });
    }
    Ok(capture)
}

/// Rebuilds a compact [`TapFeed`] from a merged live feed, mapping each
/// wire tuple to its gaming session (or to none, for background flows).
pub fn compact_feed(merged: &[(Micros, FiveTuple, u32)], sessions: &[Truth]) -> TapFeed {
    let mut feed = TapFeed::default();
    let mut index = std::collections::HashMap::new();
    for (f, s) in sessions.iter().enumerate() {
        index.insert(
            s.tuple,
            feed.add_tuple(s.tuple, Some((f, Direction::Downstream))),
        );
        let up = s.tuple.reversed();
        index.insert(up, feed.add_tuple(up, Some((f, Direction::Upstream))));
    }
    feed.recs.reserve(merged.len());
    for (ts, tuple, len) in merged {
        let idx = match index.get(tuple) {
            Some(&i) => i,
            None => {
                let i = feed.add_tuple(*tuple, None);
                index.insert(*tuple, i);
                i
            }
        };
        feed.recs.push(Rec {
            ts: *ts,
            len: *len,
            tuple: idx,
        });
    }
    feed.sessions = sessions.to_vec();
    feed
}
