//! The traced run: per-layer costs measured from outside the program.
//!
//! Nothing here changes the simulator. Three techniques, one per kind of
//! layer:
//!
//! - **`workloads`, exact.** The traced cell is built with
//!   `System::build_with_sources` over the same `TraceGenerator`s that
//!   `System::try_build` makes, each wrapped in [`TimedSource`], and run
//!   on the normal event/span path. Its digest must equal the untraced
//!   build's.
//! - **Capture.** An untimed pass of the same cell ticks `System::tick`
//!   with observation armed and stamps every drained `ObsEvent` with
//!   `System::now`. A recording source pairs each L3 access with the
//!   program counter and core that generated it.
//! - **`core.l3`, `core.l4`, `dram`, by replay.** Only `System` calls
//!   these layers, so the captured boundary streams are replayed into
//!   standalone `L3Cache`, `build_controller(cfg)` and `DramDevice`
//!   instances and the replay loops are timed. These are *estimates*:
//!   the L4 replay reconstructs the request stream (L3 misses become
//!   reads `l3_latency` later unless a fetch of the line is pending), and
//!   the DRAM replay derives device requests from L4 decisions through
//!   the public `SetPlacement` / `AddressMapper`.

use crate::cells::{self, Cell, CellRun};
use bear_core::events::ObsEvent;
use bear_core::l3::L3Cache;
use bear_core::l4::placement::SetPlacement;
use bear_core::l4::{build_controller, L4Outputs};
use bear_core::ntc::NtcAnswer;
use bear_core::system::{translate, System};
use bear_dram::mapping::{AddressMapper, Interleave};
use bear_dram::{DramDevice, DramLocation, DramRequest, TrafficClass};
use bear_sim::time::Cycle;
use bear_workloads::{TraceEvent, TraceGenerator, TraceSource};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Mirrors `System::try_build`'s per-core address stride.
const CORE_ADDR_STRIDE: u64 = 1 << 40;
/// Beats per Alloy tag-and-data transfer (80 B on a 16 B bus).
const TAD_BEATS: u64 = 5;

/// The trace generators `System::try_build` makes for `workload`.
fn generators(cell: &Cell) -> Vec<TraceGenerator> {
    let cfg = &cell.cfg;
    cell.workload
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            TraceGenerator::new(
                *profile,
                i as u64 * CORE_ADDR_STRIDE,
                cfg.scale_shift,
                cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        })
        .collect()
}

/// References produced and host nanoseconds spent producing them.
#[derive(Debug, Default, Clone, Copy)]
struct SourceClock {
    /// `next_event` calls.
    refs: u64,
    /// Nanoseconds inside `next_event`, timer cost included.
    ns: u64,
}

/// A trace source that times every `next_event` call of the generator it
/// wraps.
struct TimedSource {
    inner: TraceGenerator,
    clock: Rc<RefCell<SourceClock>>,
}

impl TraceSource for TimedSource {
    fn next_event(&mut self) -> TraceEvent {
        let t0 = Instant::now();
        let ev = self.inner.next_event();
        let ns = t0.elapsed().as_nanos() as u64;
        let mut c = self.clock.borrow_mut();
        c.refs += 1;
        c.ns += ns;
        ev
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Mean cost of an `Instant::now` pair plus `elapsed`, in ns, which
/// [`TimedSource`] adds to every reference it times.
fn timer_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        acc += black_box(t.elapsed().as_nanos());
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64 / N as f64
}

/// Builds and runs `cell` over timed sources on the normal run path.
fn run_timed(cell: &Cell) -> Result<(CellRun, SourceClock), String> {
    let clock = Rc::new(RefCell::new(SourceClock::default()));
    let sources: Vec<Box<dyn TraceSource>> = generators(cell)
        .into_iter()
        .map(|inner| {
            Box::new(TimedSource {
                inner,
                clock: clock.clone(),
            }) as Box<dyn TraceSource>
        })
        .collect();
    let t0 = Instant::now();
    let sys = System::build_with_sources(&cell.cfg, sources).map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let run = cells::run_built(cell, sys, setup_s)?;
    let c = *clock.borrow();
    Ok((run, c))
}

/// Per-line FIFO of (pc, core) for generated-but-unissued references.
type PcQueue = Rc<RefCell<HashMap<u64, VecDeque<(u64, u32)>>>>;

/// A trace source that remembers which pc and core generated each line.
struct RecordingSource {
    inner: TraceGenerator,
    core: u32,
    pending: PcQueue,
}

impl TraceSource for RecordingSource {
    fn next_event(&mut self) -> TraceEvent {
        let ev = self.inner.next_event();
        let line = translate(ev.addr) / 64;
        self.pending
            .borrow_mut()
            .entry(line)
            .or_default()
            .push_back((ev.pc, self.core));
        ev
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One stamped boundary event; `pc`/`core` are set for L3 accesses.
#[derive(Debug, Clone, Copy)]
struct Stamped {
    at: u64,
    ev: ObsEvent,
    pc: u64,
    core: u32,
}

/// Everything the capture pass records for one cell.
struct Capture {
    events: Vec<Stamped>,
    cycles: u64,
    /// Whole-run L4 lookups of the captured system (no stats reset).
    read_lookups: u64,
    wb_lookups: u64,
    /// Whole-run device requests completed (cache + memory).
    dram_requests: u64,
    /// Whole-run L4 read hits.
    read_hits: u64,
}

fn capture(cell: &Cell) -> Result<Capture, String> {
    let pending: PcQueue = Rc::default();
    let sources: Vec<Box<dyn TraceSource>> = generators(cell)
        .into_iter()
        .enumerate()
        .map(|(i, inner)| {
            Box::new(RecordingSource {
                inner,
                core: i as u32,
                pending: pending.clone(),
            }) as Box<dyn TraceSource>
        })
        .collect();
    let mut sys = System::build_with_sources(&cell.cfg, sources).map_err(|e| e.to_string())?;
    sys.set_observe(true);
    let total = cells::cycles(cell);
    let mut events = Vec::new();
    for _ in 0..total {
        let at = sys.now().0;
        sys.tick();
        for ev in sys.drain_events() {
            let (mut pc, mut core) = (0, 0);
            if let ObsEvent::L3Access { line, .. } = ev {
                let mut map = pending.borrow_mut();
                if let Some(q) = map.get_mut(&line) {
                    if let Some((p, c)) = q.pop_front() {
                        (pc, core) = (p, c);
                    }
                    if q.is_empty() {
                        map.remove(&line);
                    }
                }
            }
            events.push(Stamped { at, ev, pc, core });
        }
    }
    let stats = sys.l4_stats();
    let h = sys.l4_cache().harness();
    let requests = |d: &DramDevice| -> u64 {
        d.channel_stats()
            .map(|s| s.reads_completed + s.writes_completed)
            .sum()
    };
    Ok(Capture {
        events,
        cycles: total,
        read_lookups: stats.read_lookups,
        wb_lookups: stats.wb_lookups,
        dram_requests: requests(&h.cache) + requests(&h.mem),
        read_hits: stats.read_hits,
    })
}

/// Host time and operation count of one replay.
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    /// Operations replayed.
    ops: u64,
    /// Nanoseconds in the replay loop, loop overhead subtracted.
    ns: f64,
}

impl Replay {
    fn add(&mut self, other: Replay) {
        self.ops += other.ops;
        self.ns += other.ns;
    }

    /// Nanoseconds per operation.
    fn ns_per_op(&self) -> f64 {
        self.ns / self.ops.max(1) as f64
    }
}

/// Replays the L3 boundary stream into a standalone `L3Cache`. Returns
/// the replay and the number of accesses whose hit/miss answer differed
/// from the captured one (an exact replay has none).
fn replay_l3(cell: &Cell, events: &[Stamped]) -> (Replay, u64) {
    let cfg = &cell.cfg;
    let mut l3 = L3Cache::new(cfg.l3_capacity(), cfg.l3_ways);
    let mut mismatches = 0u64;
    let mut ops = 0u64;
    let t0 = Instant::now();
    for s in events {
        match s.ev {
            ObsEvent::L3Access {
                line,
                is_store,
                hit,
            } => {
                ops += 1;
                let got = matches!(l3.access(line, is_store), bear_core::l3::L3Result::Hit);
                mismatches += u64::from(got != hit);
            }
            ObsEvent::Delivered {
                line,
                in_l4,
                filled_l3: true,
                dirty,
                ..
            } => {
                ops += 1;
                black_box(l3.fill(line, dirty, in_l4));
            }
            ObsEvent::L3BackInvalidate { line, .. } => {
                ops += 1;
                black_box(l3.back_invalidate(line));
            }
            ObsEvent::DcpCleared { line } => {
                ops += 1;
                black_box(l3.clear_dcp(line));
            }
            _ => {}
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 - scan_ns(events);
    (
        Replay {
            ops,
            ns: ns.max(0.0),
        },
        mismatches,
    )
}

/// Cost of walking `events` with no layer calls (the replay loops'
/// overhead, subtracted from their timings).
fn scan_ns(events: &[Stamped]) -> f64 {
    let t0 = Instant::now();
    let mut n = 0u64;
    for s in events {
        n = n.wrapping_add(black_box(s).at);
    }
    black_box(n);
    t0.elapsed().as_nanos() as f64
}

#[derive(Debug, Clone, Copy)]
enum L4Op {
    Read { line: u64, pc: u64, core: u32 },
    Writeback { line: u64, hint: Option<bool> },
    Direct { line: u64 },
}

/// Reconstructs the L4 request stream, ordered as `System::tick` issues
/// it: wheel submissions before the controller tick, direct memory
/// writes after it.
fn l4_requests(cell: &Cell, events: &[Stamped]) -> Vec<(u64, u8, L4Op)> {
    let lat = cell.cfg.l3_latency;
    let mut pending = HashSet::new();
    let mut ops = Vec::new();
    for s in events {
        match s.ev {
            // A miss on a line whose fetch is pending merges into it.
            ObsEvent::L3Access {
                line, hit: false, ..
            } if pending.insert(line) => {
                let op = L4Op::Read {
                    line,
                    pc: s.pc,
                    core: s.core,
                };
                ops.push((s.at + lat, 0, op));
            }
            ObsEvent::Delivered { line, .. } => {
                pending.remove(&line);
            }
            ObsEvent::WbSubmitted { line, hint } => {
                ops.push((s.at, 0, L4Op::Writeback { line, hint }))
            }
            ObsEvent::DirectMemWrite { line } => ops.push((s.at, 1, L4Op::Direct { line })),
            _ => {}
        }
    }
    ops.sort_by_key(|&(at, phase, _)| (at, phase));
    ops
}

/// What the standalone L4 replay reports.
struct L4Replay {
    replay: Replay,
    reads: u64,
    writebacks: u64,
    read_lookups: u64,
    wb_lookups: u64,
    read_hits: u64,
}

/// Replays the reconstructed request stream into `build_controller(cfg)`
/// (engine, technique stack and its own DRAM devices), ticking it at the
/// cycles its busy hint names, exactly as the event-driven loop does.
fn replay_l4(cell: &Cell, cycles: u64, ops: &[(u64, u8, L4Op)]) -> L4Replay {
    let mut l4 = build_controller(&cell.cfg);
    l4.harness_mut().set_event_gating(true);
    let mut out = L4Outputs::default();
    let (mut reads, mut writebacks) = (0, 0);
    let mut i = 0;
    let t0 = Instant::now();
    for now in 0..cycles {
        let at = Cycle(now);
        while i < ops.len() && ops[i].0 == now && ops[i].1 == 0 {
            match ops[i].2 {
                L4Op::Read { line, pc, core } => {
                    reads += 1;
                    l4.submit_read(line, pc, core, at);
                }
                L4Op::Writeback { line, hint } => {
                    writebacks += 1;
                    l4.submit_writeback(line, hint, at);
                }
                L4Op::Direct { .. } => unreachable!("direct writes sort after the tick"),
            }
            i += 1;
        }
        if l4.next_busy_cycle(at) <= at {
            out.clear();
            l4.tick(at, &mut out);
        }
        while i < ops.len() && ops[i].0 == now {
            if let L4Op::Direct { line } = ops[i].2 {
                l4.submit_direct_mem_write(line, at);
            }
            i += 1;
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let s = l4.stats();
    L4Replay {
        replay: Replay { ops: i as u64, ns },
        reads,
        writebacks,
        read_lookups: s.read_lookups,
        wb_lookups: s.wb_lookups,
        read_hits: s.read_hits,
    }
}

/// One derived device request.
#[derive(Debug, Clone, Copy)]
struct DevOp {
    at: u64,
    mem: bool,
    write: bool,
    loc: DramLocation,
    beats: u64,
}

/// Derives per-device DRAM requests from the captured L4 decisions:
/// tag-and-data reads and writes at the set's `SetPlacement` row, memory
/// reads and writes at the line's `AddressMapper` location.
fn dram_requests(cell: &Cell, events: &[Stamped], l4_ops: &[(u64, u8, L4Op)]) -> Vec<DevOp> {
    let cfg = &cell.cfg;
    let placement = SetPlacement::alloy(cfg.cache_dram.topology);
    let mapper = AddressMapper::new(cfg.mem_dram.topology, Interleave::ChannelFirst);
    let sets = cfg.l4_lines().max(1);
    let line_beats = (64 / cfg.mem_dram.topology.beat_bytes).max(1);
    let cache = |at, write, line: u64| DevOp {
        at,
        mem: false,
        write,
        loc: placement.locate(line % sets),
        beats: TAD_BEATS,
    };
    let mem = |at, write, line: u64| DevOp {
        at,
        mem: true,
        write,
        loc: mapper.map(line * 64),
        beats: line_beats,
    };
    let mut out = Vec::new();
    for &(at, _, op) in l4_ops {
        if let L4Op::Read { line, .. } = op {
            out.push(cache(at, false, line));
        }
    }
    for s in events {
        let at = s.at;
        match s.ev {
            ObsEvent::ReadClassified { line, hit: false } => out.push(mem(at, false, line)),
            ObsEvent::Filled { line, .. } => out.push(cache(at, true, line)),
            ObsEvent::WbResolved {
                line,
                hit,
                probe_skipped,
                allocated,
            } => {
                if !probe_skipped {
                    out.push(cache(at, false, line));
                }
                if hit || allocated {
                    out.push(cache(at, true, line));
                }
            }
            ObsEvent::Evicted { line, dirty: true } | ObsEvent::DirectMemWrite { line } => {
                out.push(mem(at, true, line));
            }
            _ => {}
        }
    }
    out.sort_by_key(|o| o.at);
    out
}

/// Replays derived requests into standalone cache and memory devices,
/// retrying rejected enqueues the next cycle, until every request has
/// completed. Returns the replay and the completions observed.
fn replay_dram(cell: &Cell, ops: &[DevOp]) -> (Replay, u64) {
    let mut devs = [
        DramDevice::new(cell.cfg.cache_dram),
        DramDevice::new(cell.cfg.mem_dram),
    ];
    let mut retry: [VecDeque<DramRequest>; 2] = Default::default();
    let mut done = Vec::new();
    let mut completed = 0u64;
    let mut i = 0;
    let mut now = 0u64;
    let t0 = Instant::now();
    loop {
        let at = Cycle(now);
        while i < ops.len() && ops[i].at <= now {
            let o = ops[i];
            let id = i as u64;
            let req = if o.write {
                DramRequest::write(id, o.loc, o.beats, TrafficClass(0), at)
            } else {
                DramRequest::read(id, o.loc, o.beats, TrafficClass(0), at)
            };
            retry[usize::from(o.mem)].push_back(req);
            i += 1;
        }
        for (dev, q) in devs.iter_mut().zip(retry.iter_mut()) {
            while let Some(req) = q.pop_front() {
                if let Err(req) = dev.try_enqueue(req) {
                    q.push_front(req);
                    break;
                }
            }
            if dev.next_busy_cycle(at) <= at {
                done.clear();
                dev.tick_gated(at, &mut done);
                completed += done.len() as u64;
            }
        }
        let idle = retry.iter().all(VecDeque::is_empty) && devs.iter().all(|d| d.pending() == 0);
        if i == ops.len() && idle {
            break;
        }
        now += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (
        Replay {
            ops: ops.len() as u64,
            ns,
        },
        completed,
    )
}

/// Per-layer totals over every traced cell of a workload.
#[derive(Debug, Default)]
pub struct Layers {
    /// Untraced `run_monitored` seconds.
    untraced_run_s: f64,
    /// `run_monitored` seconds over timed sources.
    traced_run_s: f64,
    /// Trace references and their timed cost.
    refs: SourceClock,
    /// Timer overhead per timed reference, ns.
    timer_ns: f64,
    /// Retired instructions in the measured windows.
    insts: u64,
    /// Measured cycles × cores.
    core_cycles: u64,
    /// Live ticks (`System::loop_counters`).
    live_ticks: u64,
    /// Cycles fast-forwarded.
    skipped: u64,
    /// Cycles inside span advances.
    spans: u64,
    /// L3 accesses in the measured windows.
    l3_accesses: u64,
    /// L3 hits in the measured windows.
    l3_hits: u64,
    /// L3 replay (exact, so its op count is the real run's).
    l3: Replay,
    /// L4 replay.
    l4: Replay,
    /// Whole-run read hits of the L4 replay (replay fidelity).
    l4_replay_hits: u64,
    /// Whole-run read hits of the captured run.
    l4_captured_hits: u64,
    /// Measured-window read lookups.
    read_lookups: u64,
    /// Measured-window writeback lookups.
    wb_lookups: u64,
    /// Measured-window read hits.
    read_hits: u64,
    /// Measured-window bypasses.
    bypasses: u64,
    /// Measured-window wasted parallel memory reads.
    wasted_parallel: u64,
    /// Read-hit-weighted hit latency sum.
    hit_latency_sum: f64,
    /// NTC consultations (whole run).
    ntc_consulted: u64,
    /// NTC answers other than `Unknown`.
    ntc_known: u64,
    /// DRAM replay.
    dram: Replay,
    /// Whole-run device requests of the captured run.
    dram_real_ops: u64,
    /// Cache-device data-bus busy cycles.
    bus_busy: u64,
    /// Cache-device channel-cycles in the measured windows.
    channel_cycles: u64,
    /// Read-weighted cache read-queue latency sum.
    read_queue_sum: f64,
    /// Cache reads behind `read_queue_sum`.
    read_queue_n: u64,
    /// Cache-device bytes in the measured windows.
    cache_bytes: u64,
    /// Memory-device bytes in the measured windows.
    mem_bytes: u64,
    /// Merged bloat breakdown.
    bloat: bear_core::metrics::BloatBreakdown,
}

/// Traces one cell into `layers`; `checks` receives the correctness
/// checks (digest equality and replay op counts).
pub fn trace_cell(
    cell: &Cell,
    layers: &mut Layers,
    checks: &mut crate::Checks,
) -> Result<(), String> {
    let name = format!("{} × {}", cell.label, cell.workload.name);
    let plain = cells::run(cell)?;
    let (timed, clock) = run_timed(cell)?;
    checks.check(
        cells::digest([&plain.stats]) == cells::digest([&timed.stats]),
        || format!("{name}: traced build_with_sources digest differs from try_build"),
    );
    if layers.timer_ns == 0.0 {
        layers.timer_ns = timer_cost_ns();
    }
    layers.untraced_run_s += plain.run_s;
    layers.traced_run_s += timed.run_s;
    layers.refs.refs += clock.refs;
    layers.refs.ns += clock.ns;
    collect_stats(cell, &plain, layers);

    let cap = capture(cell)?;
    let (l3, mismatches) = replay_l3(cell, &cap.events);
    checks.check(mismatches == 0, || {
        format!("{name}: L3 replay answered {mismatches} accesses differently")
    });
    layers.l3.add(l3);

    let l4_ops = l4_requests(cell, &cap.events);
    let l4 = replay_l4(cell, cap.cycles, &l4_ops);
    checks.check(
        l4.reads == cap.read_lookups && l4.read_lookups == l4.reads,
        || {
            format!(
                "{name}: L4 replay issued {} reads, captured {}",
                l4.reads, cap.read_lookups
            )
        },
    );
    checks.check(
        l4.writebacks == cap.wb_lookups && l4.wb_lookups == l4.writebacks,
        || {
            format!(
                "{name}: L4 replay issued {} writebacks, captured {}",
                l4.writebacks, cap.wb_lookups
            )
        },
    );
    layers.l4.add(l4.replay);
    layers.l4_replay_hits += l4.read_hits;
    layers.l4_captured_hits += cap.read_hits;

    let dev_ops = dram_requests(cell, &cap.events, &l4_ops);
    let (dram, completed) = replay_dram(cell, &dev_ops);
    checks.check(completed == dram.ops, || {
        format!(
            "{name}: DRAM replay completed {completed} of {} requests",
            dram.ops
        )
    });
    layers.dram.add(dram);
    layers.dram_real_ops += cap.dram_requests;

    for s in &cap.events {
        if let ObsEvent::NtcConsulted { answer, .. } = s.ev {
            layers.ntc_consulted += 1;
            layers.ntc_known += u64::from(answer != NtcAnswer::Unknown);
        }
    }
    Ok(())
}

fn collect_stats(cell: &Cell, run: &CellRun, layers: &mut Layers) {
    let s = &run.stats;
    let (skipped, live) = run.sys.loop_counters();
    layers.live_ticks += live;
    layers.skipped += skipped;
    layers.spans += run.sys.span_cycles();
    layers.insts += cells::insts(s);
    layers.core_cycles += s.cycles * s.ipc_per_core.len() as u64;
    let l3 = run.sys.l3();
    layers.l3_accesses += l3.hits() + l3.misses();
    layers.l3_hits += l3.hits();
    layers.read_lookups += s.l4.read_lookups;
    layers.read_hits += s.l4.read_hits;
    layers.bypasses += s.l4.bypasses;
    layers.hit_latency_sum += s.l4.hit_latency * s.l4.read_hits as f64;
    let l4 = run.sys.l4_stats();
    layers.wb_lookups += l4.wb_lookups;
    layers.wasted_parallel += l4.wasted_parallel;
    let dev = &run.sys.l4_cache().harness().cache;
    let reads: u64 = dev.channel_stats().map(|c| c.reads_completed).sum();
    layers.bus_busy += dev.bus_busy_cycles();
    layers.channel_cycles += s.cycles * cell.cfg.cache_dram.topology.channels as u64;
    layers.read_queue_sum += s.cache_read_queue_latency * reads as f64;
    layers.read_queue_n += reads;
    layers.cache_bytes += s.bloat.total_bytes();
    layers.mem_bytes += s.mem_bytes;
    layers.bloat.merge(&s.bloat);
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl Layers {
    /// The simulator-layer metrics, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let refs = self.refs.refs as f64;
        let ref_ns = (ratio(self.refs.ns as f64, refs) - self.timer_ns).max(0.0);
        let run_ns = self.traced_run_s * 1e9;
        let cycles = (self.live_ticks + self.skipped) as f64;
        let est =
            |r: &Replay, real: u64| ratio(r.ns_per_op() * real as f64, self.untraced_run_s * 1e9);
        vec![
            ("workloads.refs", refs),
            ("workloads.ns_per_ref", ref_ns),
            ("workloads.est_frac", ratio(ref_ns * refs, run_ns)),
            ("cpu.retired_insts", self.insts as f64),
            ("cpu.ipc", ratio(self.insts as f64, self.core_cycles as f64)),
            ("core.system.live_ticks", self.live_ticks as f64),
            ("core.system.skipped_cycles", self.skipped as f64),
            ("core.system.span_cycles", self.spans as f64),
            (
                "core.system.elided_frac",
                ratio(self.skipped as f64, cycles),
            ),
            (
                "core.system.run_ns_per_live_tick",
                ratio(self.untraced_run_s * 1e9, self.live_ticks as f64),
            ),
            ("core.l3.accesses", self.l3_accesses as f64),
            (
                "core.l3.hit_rate",
                ratio(self.l3_hits as f64, self.l3_accesses as f64),
            ),
            ("core.l3.ns_per_access", self.l3.ns_per_op()),
            ("core.l3.est_frac", est(&self.l3, self.l3.ops)),
            ("core.l4.read_lookups", self.read_lookups as f64),
            ("core.l4.wb_lookups", self.wb_lookups as f64),
            ("core.l4.ns_per_request", self.l4.ns_per_op()),
            ("core.l4.est_frac", est(&self.l4, self.l4.ops)),
            (
                "core.l4.hit_rate",
                ratio(self.read_hits as f64, self.read_lookups as f64),
            ),
            (
                "core.l4.replay_hit_ratio",
                ratio(self.l4_replay_hits as f64, self.l4_captured_hits as f64),
            ),
            (
                "core.l4.bypass_frac",
                ratio(self.bypasses as f64, self.read_lookups as f64),
            ),
            (
                "core.l4.ntc_known_frac",
                ratio(self.ntc_known as f64, self.ntc_consulted as f64),
            ),
            (
                "core.l4.wasted_parallel_frac",
                ratio(self.wasted_parallel as f64, self.read_lookups as f64),
            ),
            (
                "core.l4.hit_latency_cycles",
                ratio(self.hit_latency_sum, self.read_hits as f64),
            ),
            ("dram.ns_per_request", self.dram.ns_per_op()),
            ("dram.est_frac", est(&self.dram, self.dram_real_ops)),
            (
                "dram.bus_busy_frac",
                ratio(self.bus_busy as f64, self.channel_cycles as f64),
            ),
            (
                "dram.read_queue_cycles",
                ratio(self.read_queue_sum, self.read_queue_n as f64),
            ),
            ("dram.cache_bytes", self.cache_bytes as f64),
            ("dram.mem_bytes", self.mem_bytes as f64),
            ("dram.bloat_factor", self.bloat.factor()),
            (
                "trace_overhead_frac",
                ratio(self.traced_run_s, self.untraced_run_s) - 1.0,
            ),
        ]
    }
}
