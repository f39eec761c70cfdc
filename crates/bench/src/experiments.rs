//! Every paper artefact, defined once.
//!
//! Each function runs one of the paper's evaluation artefacts (Figs 9 and
//! 11–16, Tables 1–2) and returns its [`Table`]s: the title with the
//! paper's quoted values, the headers and the rows of typed cells.
//! The figure binaries and `all_experiments` only [`print()`] them.
//! `Scale` shrinks virtual durations so tests can run the identical code
//! quickly.
//!
//! Each quoted paper value is also one row of [`LEDGER`], below the
//! artefacts: the paper's value or band, its class and provenance, and
//! the verdict the model gives at each load point. [`check`] computes
//! every point from the tables' own values.

use std::fmt;

use palladium_core::driver::chain::{ChainReport, ChainSim, Station};
use palladium_core::driver::channel::{ChannelSim, ChannelSimConfig};
use palladium_core::driver::echo::{EchoConfig, EchoSim, PathMode, Primitive};
use palladium_core::driver::fairness::{FairnessSim, FairnessSimConfig};
use palladium_core::driver::ingress_sweep::{IngressSim, IngressSimConfig};
use palladium_core::dwrr::SchedPolicy;
use palladium_core::price::demand;
use palladium_core::system::{IngressKind, SystemKind};
use palladium_ipc::ChannelKind;
use palladium_simnet::{LoadReport, Nanos};
use palladium_workloads::boutique::{self, ChainKind};

/// How much virtual time an experiment runs for (1.0 = harness default).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Full harness runs.
    pub const FULL: Scale = Scale(1.0);

    fn ms(&self, base: u64) -> Nanos {
        Nanos::from_nanos((base as f64 * self.0 * 1e6).max(1e6) as u64)
    }
}

/// One table cell: text, or a number printed with a fixed count of
/// decimal places. A number keeps the run's own value, so a ratio of two
/// cells is a ratio of what the run measured, not of what it printed.
#[derive(Clone, Debug, PartialEq)]
enum Cell {
    /// Printed as is.
    Text(String),
    /// A value and its decimal places.
    Num(f64, usize),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Num(v, places) => write!(f, "{v:.places$}"),
        }
    }
}

fn text(s: impl Into<String>) -> Cell {
    Cell::Text(s.into())
}

/// One printed table: a title, its column headers and one row of cells
/// per line, every row exactly as wide as the headers.
pub struct Table {
    title: String,
    headers: &'static [&'static str],
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Panics if a row does not have one cell per header.
    fn new(
        title: impl Into<String>,
        headers: &'static [&'static str],
        rows: Vec<Vec<Cell>>,
    ) -> Self {
        let title = title.into();
        let width = headers.len();
        for row in &rows {
            assert_eq!(row.len(), width, "{title}: row {row:?} does not match the headers");
        }
        Table { title, headers, rows }
    }

    /// The number under `header` in the row whose leading cells print as
    /// `key`.
    pub fn value(&self, key: &[&str], header: &str) -> Result<f64, String> {
        let col = self
            .headers
            .iter()
            .position(|&h| h == header)
            .ok_or_else(|| format!("{}: no column {header:?}", self.title))?;
        let row = self
            .rows
            .iter()
            .find(|row| row.iter().zip(key).all(|(cell, k)| cell.to_string() == *k))
            .ok_or_else(|| format!("{}: no row {key:?}", self.title))?;
        match row[col] {
            Cell::Num(v, _) => Ok(v),
            Cell::Text(ref s) => Err(format!("{}: {key:?} {header:?} is text {s:?}", self.title)),
        }
    }
}

/// A blank line, `== title ==`, then the headers and rows, each column
/// right-aligned to its widest cell and columns two spaces apart.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        fn line<'a>(widths: &[usize], cells: impl Iterator<Item = &'a str>) -> String {
            let cells: Vec<String> = cells.zip(widths).map(|(c, &w)| format!("{c:>w$}")).collect();
            cells.join("  ")
        }
        writeln!(f, "\n== {} ==", self.title)?;
        writeln!(f, "{}", line(&widths, self.headers.iter().copied()))?;
        for row in &rows {
            writeln!(f, "{}", line(&widths, row.iter().map(String::as_str)))?;
        }
        Ok(())
    }
}

/// Print `tables` to stdout, in order.
pub fn print(tables: &[Table]) {
    for table in tables {
        print!("{table}");
    }
}

/// Fig 9: channel kind × function count → (RT latency, RPS).
pub fn fig09(scale: Scale) -> Vec<Table> {
    let mut rows = Vec::new();
    for kind in [ChannelKind::ComchE, ChannelKind::ComchP, ChannelKind::Tcp] {
        for fns in [1usize, 20, 40, 60, 80, 100] {
            let mut cfg = ChannelSimConfig::new(kind, fns);
            cfg.duration = scale.ms(120);
            cfg.warmup = scale.ms(20);
            let r = ChannelSim::new(cfg).run();
            rows.push(vec![
                text(format!("{kind:?}")),
                text(fns.to_string()),
                Cell::Num(r.mean_latency.as_millis_f64(), 3),
                Cell::Num(r.rps / 1e6, 3),
            ]);
        }
    }
    vec![Table::new(
        "Fig 9 — DPU<->host descriptor channels (paper: Comch-P >8x faster than TCP until ~6 fns; Comch-E 2.7-3.8x faster than TCP, stable)",
        &["channel", "#functions", "RT latency (ms)", "RPS (x1M)"],
        rows,
    )]
}

/// Connection counts of Fig 11 (2)'s sweep.
const FIG11_CONNECTIONS: [usize; 6] = [1, 10, 20, 30, 40, 50];

/// Fig 11: off-path vs on-path DNE, (1) over payload at one connection
/// and (2) over connections at a 1 KB payload. Each run's throughput is
/// X = N ÷ R, its N connections over its own mean latency R: exact for a
/// closed loop with no think time, where a window's completion count is
/// off by up to N ÷ T. From 10 connections both modes saturate the
/// function core, so off ÷ on reads 1, the band's lower edge.
pub fn fig11() -> Vec<Table> {
    let row = |axis: String, cfg: EchoConfig| {
        let off = EchoSim::new(cfg).run_path_mode(PathMode::OffPath);
        let on = EchoSim::new(cfg).run_path_mode(PathMode::OnPath);
        let krps = |r: &LoadReport| cfg.connections as f64 / r.mean_latency.as_secs_f64() / 1e3;
        vec![
            text(axis),
            Cell::Num(krps(&off), 1),
            Cell::Num(krps(&on), 1),
            Cell::Num(off.mean_latency.as_micros_f64(), 2),
            Cell::Num(on.mean_latency.as_micros_f64(), 2),
        ]
    };
    vec![
        Table::new(
            "Fig 11 (1) — payload sweep, 1 connection (paper: close at low load)",
            &["payload (B)", "off RPS (K)", "on RPS (K)", "off lat (µs)", "on lat (µs)"],
            [1u32, 1024, 2048, 4096, 6144, 8192]
                .iter()
                .map(|&p| row(p.to_string(), EchoConfig::new(p)))
                .collect(),
        ),
        Table::new(
            "Fig 11 (2) — concurrency sweep, 1 KB (paper: off-path up to +30% RPS)",
            &["#conns", "off RPS (K)", "on RPS (K)", "off lat (µs)", "on lat (µs)"],
            FIG11_CONNECTIONS
                .iter()
                .map(|&c| row(c.to_string(), EchoConfig::new(1024).connections(c)))
                .collect(),
        ),
    ]
}

/// Fig 12: primitive × message size → (E2E latency µs, BW MB/s).
pub fn fig12(scale: Scale) -> Vec<Table> {
    let mut rows = Vec::new();
    for size in [1u32, 1024, 2048, 4096, 6144, 8192] {
        let mut cfg = EchoConfig::new(size);
        cfg.duration = scale.ms(60);
        cfg.warmup = scale.ms(10);
        let mut row = vec![text(size.to_string())];
        for prim in Primitive::ALL {
            let r = EchoSim::new(cfg).run_primitive(prim);
            row.push(Cell::Num(r.mean_latency.as_micros_f64(), 1));
            row.push(Cell::Num(r.rps * size.max(1) as f64 / 1e6, 0));
        }
        rows.push(row);
    }
    vec![Table::new(
        "Fig 12 — RDMA primitives (paper @4KB: two-sided 11.6µs < OWRC-B 15 < OWRC-W 16.7 < OWDL 26.1µs; BW: two-sided highest)",
        &[
            "msg (B)",
            "2-sided µs", "2-sided MB/s",
            "OWRC-B µs", "OWRC-B MB/s",
            "OWRC-W µs", "OWRC-W MB/s",
            "OWDL µs", "OWDL MB/s",
        ],
        rows,
    )]
}

/// The ingress designs of Figs 13 and 14, in print order.
const INGRESSES: [IngressKind; 3] = [
    IngressKind::KernelDeferred,
    IngressKind::FStackDeferred,
    IngressKind::Palladium,
];

/// Client counts of Fig 13's sweep.
const FIG13_CLIENTS: [usize; 6] = [1, 20, 40, 60, 80, 100];

/// Fig 13's measurement window at `scale`, after a quarter as much warm-up.
fn fig13_window(scale: Scale) -> Nanos {
    scale.ms(400)
}

/// Fig 13: ingress design × clients → (E2E latency ms, RPS ×1K).
pub fn fig13(scale: Scale) -> Vec<Table> {
    let mut rows = Vec::new();
    for kind in INGRESSES {
        for clients in FIG13_CLIENTS {
            let mut cfg = IngressSimConfig::fig13(kind, clients);
            cfg.duration = fig13_window(scale);
            cfg.warmup = scale.ms(100);
            let r = IngressSim::new(cfg).sweep();
            rows.push(vec![
                text(label_of(kind)),
                text(clients.to_string()),
                Cell::Num(r.mean_latency.as_millis_f64(), 3),
                Cell::Num(r.rps / 1e3, 1),
            ]);
        }
    }
    vec![Table::new(
        "Fig 13 — ingress designs (paper: Palladium 3.2x F-Ingress RPS, 11.4x K-Ingress; 3.4x lower latency than F-Ingress)",
        &["ingress", "#clients", "E2E latency (ms)", "RPS (K)"],
        rows,
    )]
}

fn label_of(kind: IngressKind) -> &'static str {
    match kind {
        IngressKind::Palladium => "Palladium",
        IngressKind::FStackDeferred => "F-Ingress",
        IngressKind::KernelDeferred => "K-Ingress",
    }
}

/// Figs 14 and 15 run their 4-minute schedules compressed 10x.
const TIME_SCALE: f64 = 0.1;

/// Fig 14: the autoscaling time series (cores and RPS) of each ingress
/// design as a saturating client joins every 10 s.
pub fn fig14() -> Vec<Table> {
    INGRESSES
        .into_iter()
        .map(|kind| {
            let r = IngressSim::scaling_run(kind, TIME_SCALE, 24);
            let rows = r
                .cores_series
                .iter()
                .zip(&r.rps_series)
                .map(|(&(t, cores), &(_, rps))| {
                    vec![
                        Cell::Num(t.as_secs_f64() / TIME_SCALE, 0),
                        Cell::Num(cores, 1),
                        Cell::Num(rps / 1e3, 1),
                    ]
                })
                .collect();
            Table::new(
                format!("Fig 14 — {kind:?} (ups={}, downs={})", r.scale_ups, r.scale_downs),
                &["t (s)", "cores", "RPS (K)"],
                rows,
            )
        })
        .collect()
}

/// Fig 15: per-tenant RPS time series under FCFS, then under DWRR.
pub fn fig15() -> Vec<Table> {
    let rows = |policy: SchedPolicy| {
        let report = FairnessSim::new(FairnessSimConfig::paper(policy, TIME_SCALE)).run();
        let n = report.series[0].1.len();
        (0..n)
            .map(|i| {
                let (end, _) = report.series[0].1[i];
                let mut row = vec![Cell::Num(end.as_secs_f64() / TIME_SCALE, 1)];
                for (_, series) in &report.series {
                    row.push(Cell::Num(series[i].1 / 1e3, 1));
                }
                row
            })
            .collect()
    };
    let headers = &["t (s)", "T1 w=6 (K)", "T2 w=1 (K)", "T3 w=2 (K)"];
    vec![
        Table::new(
            "Fig 15 (1) — FCFS DNE (no multi-tenancy support)",
            headers,
            rows(SchedPolicy::Fcfs),
        ),
        Table::new(
            "Fig 15 (2) — Palladium DNE with DWRR (paper: 6:1:2 split, 115->90/15K on T2 arrival, 65/11/22K with all three)",
            headers,
            rows(SchedPolicy::Dwrr),
        ),
    ]
}

/// The station of `walk` (a [`demand`]) with the highest demand per
/// server, D ÷ c: the one a closed loop saturates first.
fn walked_bottleneck(walk: &[Station]) -> &Station {
    let per_server = |s: &Station| (u128::from(s.busy.as_nanos()), s.cores as u128);
    walk.iter()
        .max_by(|a, b| {
            let ((da, ca), (db, cb)) = (per_server(a), per_server(b));
            (da * cb).cmp(&(db * ca))
        })
        .expect("the walk covers stations")
}

/// The warm-up and measurement window of a Fig 16 / Table 2 run of
/// `system` on `chain` at `scale`, in whole milliseconds, floored by the
/// run's own longest request R. At the sweep's largest client count N
/// every request queues behind the walk's bottleneck, so R ≈ N × D ÷ c (D
/// that station's walked demand, c its servers). The clients start
/// together, so the loop completes its requests in waves R apart. The
/// warm-up lasts at least R, and the window holds at least 2 ÷ tolerance
/// of them ([`Paper::POINT_TOLERANCE`]), so the mean latency a run's X =
/// N ÷ R reads averages over that many waves. A run whose floor is above
/// the full-scale window runs at full scale, which is above every other
/// floor.
fn boutique_window_ms(scale: Scale, system: SystemKind, chain: ChainKind) -> (u64, u64) {
    let walk = demand(system, &boutique::app(), chain.index());
    let top = walked_bottleneck(&walk);
    let n = FIG16_CLIENTS.iter().max().copied().unwrap_or(1);
    let longest_ms = n as f64 * top.busy.as_millis_f64() / top.cores as f64;
    let floor = |k: f64| (k * longest_ms).ceil() as u64;
    let (warmup_floor, window_floor) = (floor(1.0), floor(2.0 / Paper::POINT_TOLERANCE));
    let window_at = |scale: Scale| {
        let ms = |base| scale.ms(base).as_nanos() / 1_000_000;
        (ms(60), ms(240))
    };
    let (full, (warmup, duration)) = (window_at(Scale::FULL), window_at(scale));
    if window_floor > full.1 {
        return full;
    }
    (warmup.max(warmup_floor), duration.max(window_floor))
}

/// One Fig 16 / Table 2 cluster run.
fn boutique_run(
    system: SystemKind,
    chain: ChainKind,
    clients: usize,
    scale: Scale,
) -> ChainReport {
    let (warmup, duration) = boutique_window_ms(scale, system, chain);
    let cfg = boutique::config(system, chain)
        .clients(clients)
        .warmup_ms(warmup)
        .duration_ms(duration);
    ChainSim::new(cfg).run()
}

/// Client counts of Fig 16's RPS panels.
pub const FIG16_CLIENTS: [usize; 5] = [1, 20, 40, 60, 80];

/// Client counts of Fig 16's utilization panels and of Table 2.
pub const TABLE2_CLIENTS: [usize; 3] = [20, 60, 80];

/// The client count from which every system of the Fig 16 / Table 2
/// sweep saturates its bottleneck station.
const SATURATED_FROM: usize = 20;

/// The Fig 16 / Table 2 cluster runs: every system × chain at each of a
/// set of client counts, each configuration run once and read by every
/// table that shows it.
pub struct BoutiqueSweep {
    scale: Scale,
    clients: Vec<usize>,
    /// In `SystemKind::ALL` × `ChainKind::ALL` × `clients` order.
    runs: Vec<ChainReport>,
}

impl BoutiqueSweep {
    /// Run every system and chain at each of `clients`.
    pub fn run(clients: &[usize], scale: Scale) -> Self {
        let mut runs = Vec::new();
        for system in SystemKind::ALL {
            for chain in ChainKind::ALL {
                for &c in clients {
                    runs.push(boutique_run(system, chain, c, scale));
                }
            }
        }
        BoutiqueSweep { scale, clients: clients.to_vec(), runs }
    }

    /// The run of `system` on `chain` at `clients`.
    fn get(&self, system: SystemKind, chain: ChainKind, clients: usize) -> &ChainReport {
        let s = SystemKind::ALL.iter().position(|&k| k == system).expect("system swept");
        let k = ChainKind::ALL.iter().position(|&k| k == chain).expect("chain swept");
        let c = self.clients.iter().position(|&n| n == clients).expect("client count swept");
        &self.runs[(s * ChainKind::ALL.len() + k) * self.clients.len() + c]
    }

    /// One row per system: its label, then `cell` of its run on each of
    /// `chains` at each of `clients`, given the run's client count.
    fn rows(
        &self,
        chains: &[ChainKind],
        clients: &[usize],
        cell: impl Fn(usize, &ChainReport) -> Cell,
    ) -> Vec<Vec<Cell>> {
        SystemKind::ALL
            .iter()
            .map(|&system| {
                let mut row = vec![text(system.label())];
                for &chain in chains {
                    row.extend(clients.iter().map(|&c| cell(c, self.get(system, chain, c))));
                }
                row
            })
            .collect()
    }

    /// Fig 16: per chain, the RPS panel at [`FIG16_CLIENTS`] and the
    /// CPU/DPU utilization panel at [`TABLE2_CLIENTS`]. Needs a sweep at
    /// [`FIG16_CLIENTS`]. Each run's throughput is X = N ÷ R, its N
    /// clients over its own mean latency R, as in [`fig11`]: the clients
    /// start together and finish in waves, so a window's completion count
    /// is off by up to a wave.
    pub fn fig16(&self) -> Vec<Table> {
        let mut tables = Vec::new();
        for chain in ChainKind::ALL {
            tables.push(Table::new(
                format!("Fig 16 — {} RPS x1K (paper: DNE 5.1-20.9x NightCore, 2.1-4.1x FUYAO-F, 2.4-4.1x SPRIGHT, 1.3-1.8x CNE)", chain.label()),
                &["system", "c=1", "c=20", "c=40", "c=60", "c=80"],
                self.rows(&[chain], &FIG16_CLIENTS, |c, r| {
                    Cell::Num(c as f64 / r.mean_latency.as_secs_f64() / 1e3, 1)
                }),
            ));
            tables.push(Table::new(
                format!("Fig 16 — {} CPU/DPU utilization % (cpu/dpu)", chain.label()),
                &["system", "c=20", "c=60", "c=80"],
                self.rows(&[chain], &TABLE2_CLIENTS, |_, r| {
                    text(format!("{:.0}/{:.0}", r.cpu_util_pct, r.dpu_util_pct))
                }),
            ));
        }
        tables
    }

    /// The measured bottleneck of the run of `system` on `chain` at
    /// `clients`: the station with the highest utilisation U = busy ÷
    /// (servers × horizon), unclamped, with U in percent and its demand D =
    /// busy ÷ (horizon × X) in µs per request (the utilisation law, with X
    /// the measured throughput). Busy time counts the whole horizon,
    /// warm-up included.
    fn measured_bottleneck(&self, system: SystemKind, chain: ChainKind, clients: usize) -> (&Station, f64, f64) {
        let (warmup, duration) = boutique_window_ms(self.scale, system, chain);
        let horizon_s = (warmup + duration) as f64 / 1e3;
        let r = self.get(system, chain, clients);
        let busy_cores = |st: &Station| st.busy.as_secs_f64() / horizon_s;
        let util = |st: &Station| busy_cores(st) / st.cores as f64;
        let top = r.stations.iter().max_by(|a, b| util(a).total_cmp(&util(b)));
        let top = top.expect("a cluster run has stations");
        (top, 100.0 * util(top), 1e6 * busy_cores(top) / r.rps)
    }

    /// The bottleneck of every run, named twice: one line per system ×
    /// chain giving the walk's bottleneck and its demand D
    /// ([`demand`], µs per request), then at each client count the
    /// measured one (`measured_bottleneck`: station, U and D).
    pub fn bottlenecks(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for system in SystemKind::ALL {
            for chain in ChainKind::ALL {
                let walk = demand(system, &boutique::app(), chain.index());
                let top = walked_bottleneck(&walk);
                let mut cells = vec![format!("walked {}@{} D={:.2}us", top.name, top.node, top.busy.as_micros_f64())];
                for &c in &self.clients {
                    let (top, u, d) = self.measured_bottleneck(system, chain, c);
                    cells.push(format!("c={c} {}@{} U={u:.1}% D={d:.2}us", top.name, top.node));
                }
                lines.push(format!("bottleneck {} / {}: {}", chain.label(), system.label(), cells.join(" | ")));
            }
        }
        lines
    }

    /// One line per run at `SATURATED_FROM` (20) clients or more whose
    /// measured bottleneck is a station the walk covers but not the walk's
    /// bottleneck. At those loads every system saturates, so the station
    /// it saturates is the walk's arg-max of D ÷ servers, or the walk has
    /// mispriced a station. (A measured bottleneck the walk does not cover,
    /// an RNIC, is not judged.)
    pub fn bottleneck_mismatches(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for system in SystemKind::ALL {
            for chain in ChainKind::ALL {
                let walk = demand(system, &boutique::app(), chain.index());
                let walked = walked_bottleneck(&walk);
                let key = |s: &Station| (s.name, s.node);
                for &c in self.clients.iter().filter(|&&c| c >= SATURATED_FROM) {
                    let (top, ..) = self.measured_bottleneck(system, chain, c);
                    if key(top) != key(walked) && walk.iter().any(|w| key(w) == key(top)) {
                        lines.push(format!(
                            "{} / {} at c={c}: measured {}@{}, walked {}@{}",
                            chain.label(),
                            system.label(),
                            top.name,
                            top.node,
                            walked.name,
                            walked.node
                        ));
                    }
                }
            }
        }
        lines
    }

    /// Table 2: mean latency (ms) of every chain at [`TABLE2_CLIENTS`].
    pub fn table2(&self) -> Vec<Table> {
        vec![Table::new(
            "Table 2 — mean latency (ms); columns: Home{20,60,80} ViewCart{20,60,80} Product{20,60,80} (paper: DNE 1.12/2.55/3.19 ... NightCore 10.77/32.4/42.8)",
            &[
                "system",
                "H20", "H60", "H80",
                "V20", "V60", "V80",
                "P20", "P60", "P80",
            ],
            self.rows(&ChainKind::ALL, &TABLE2_CLIENTS, |_, r| {
                Cell::Num(r.mean_latency.as_millis_f64(), 2)
            }),
        )]
    }
}

/// Every artefact the ledger reads, in README order: Figs 9, 11–13, 15,
/// 16 and Table 2, at the scale of `boutique`, a sweep at
/// [`FIG16_CLIENTS`]. Fig 14 and Table 1 quote no number.
pub fn quoted_artefacts(boutique: &BoutiqueSweep) -> Vec<Table> {
    let scale = boutique.scale;
    [fig09(scale), fig11(), fig12(scale), fig13(scale), fig15(), boutique.fig16(), boutique.table2()]
        .into_iter()
        .flatten()
        .collect()
}

/// Table 1 as the paper prints it: a quote, not a property of the model.
/// Every system runs one tenant, and the model runs FUYAO's engine on host
/// cores (390 % CPU in Fig 16) where the paper credits it with DPU
/// offloading.
const TABLE1: [(&str, [bool; 4]); 4] = [
    ("NightCore", [false, false, false, false]),
    ("SPRIGHT", [false, false, false, false]),
    ("FUYAO-F", [false, false, true, false]),
    ("Palladium (DNE)", [true, true, true, true]),
];

/// Table 1: the capability matrix.
pub fn table1() -> Vec<Table> {
    let rows = TABLE1
        .iter()
        .map(|(system, marks)| {
            let mut row = vec![text(*system)];
            row.extend(marks.map(|y| text(if y { "Y" } else { "x" })));
            row
        })
        .collect();
    vec![Table::new(
        "Table 1 — capability matrix (Y = supported)",
        &[
            "system",
            "multi-tenancy",
            "distributed zero-copy",
            "DPU offloading",
            "no proto. in cluster",
        ],
        rows,
    )]
}

/// Where a model value sits against the paper's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Under the band.
    Below,
    /// Inside it, either edge included.
    In,
    /// Over it.
    Above,
}

/// A quoted value: a band the model must land in, or a point it must
/// land within ±10 % of (`Paper::POINT_TOLERANCE`).
#[derive(Clone, Copy, Debug)]
pub enum Paper {
    /// `lo..=hi`; `hi` may be infinite (a "> lo" quote).
    Band(f64, f64),
    /// One value.
    Point(f64),
}

impl Paper {
    /// The relative spread a point quote allows, both ways. The calibrated
    /// Fig 12 latencies land in −8 … +10 % of theirs.
    const POINT_TOLERANCE: f64 = 0.10;

    /// `lo..=hi` of the quote.
    fn band(self) -> (f64, f64) {
        match self {
            Paper::Band(lo, hi) => (lo, hi),
            Paper::Point(p) => (p * (1.0 - Self::POINT_TOLERANCE), p * (1.0 + Self::POINT_TOLERANCE)),
        }
    }

    /// The verdict on `model`; a model value that is not a finite number
    /// has none.
    fn verdict(self, model: f64) -> Result<Verdict, String> {
        if !model.is_finite() {
            return Err(format!("model value {model} is not a finite number"));
        }
        let (lo, hi) = self.band();
        Ok(if model < lo {
            Verdict::Below
        } else if model > hi {
            Verdict::Above
        } else {
            Verdict::In
        })
    }

    /// `model`'s signed distance from the quote, relative: from a point
    /// to its value, from a band to its nearer edge (0 inside).
    fn error(self, model: f64) -> f64 {
        let reference = match self {
            Paper::Point(p) => p,
            Paper::Band(lo, _) if model < lo => lo,
            Paper::Band(_, hi) if model > hi => hi,
            Paper::Band(..) => return 0.0,
        };
        model / reference - 1.0
    }
}

impl fmt::Display for Paper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Paper::Band(lo, hi) if hi.is_infinite() => write!(f, "≥ {lo}"),
            Paper::Band(lo, hi) => write!(f, "{lo}–{hi}"),
            // A quoted value prints as quoted, a derived one to 3 digits.
            Paper::Point(p) if p.to_string().len() > 6 => write!(f, "{} ± 10 %", sig3(p)),
            Paper::Point(p) => write!(f, "{p} ± 10 %"),
        }
    }
}

/// What kind of number a quote is.
#[derive(Clone, Copy, Debug)]
pub enum Class {
    /// Palladium ÷ a baseline, or one design ÷ another.
    Ratio,
    /// A hardware number, set by the named calibration constant.
    Absolute(&'static str),
    /// A quoted number put through an operational law.
    Derived,
}

/// Where a quote comes from.
#[derive(Clone, Copy, Debug)]
pub enum Provenance {
    /// These words of the title of the table the quote's points read.
    Title(&'static str),
    /// The paper's section and words, or the law and the numbers it takes.
    Text(&'static str),
}

/// One cell of the artefacts' tables: in the table whose title starts
/// with `table`, the row whose leading cells print as `row`, column `col`.
#[derive(Clone, Copy, Debug)]
pub struct CellRef {
    /// A prefix of exactly one table's title.
    pub table: &'static str,
    /// The printed leading cells of the row.
    pub row: &'static [&'static str],
    /// The column header.
    pub col: &'static str,
}

const fn cell(table: &'static str, row: &'static [&'static str], col: &'static str) -> CellRef {
    CellRef { table, row, col }
}

/// The one table among `tables` whose title starts with `prefix`.
fn titled<'a>(tables: &'a [Table], prefix: &str) -> Result<&'a Table, String> {
    let mut found = tables.iter().filter(|t| t.title.starts_with(prefix));
    match (found.next(), found.next()) {
        (Some(t), None) => Ok(t),
        (None, _) => Err(format!("no table titled {prefix:?}")),
        (Some(_), Some(_)) => Err(format!("more than one table titled {prefix:?}")),
    }
}

impl CellRef {
    /// The one table among `tables` this cell is in.
    fn table<'a>(&self, tables: &'a [Table]) -> Result<&'a Table, String> {
        titled(tables, self.table)
    }

    /// This cell's number in `tables`.
    pub fn read(&self, tables: &[Table]) -> Result<f64, String> {
        self.table(tables)?.value(self.row, self.col)
    }
}

/// One load point of a quote: the model value is `num`, or `num ÷ den`.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// The load point, as `EXPERIMENTS.md` labels it.
    pub at: &'static str,
    num: CellRef,
    den: Option<CellRef>,
    /// The verdict a run gives, at full or reduced scale.
    pub declared: Verdict,
}

const fn value(at: &'static str, num: CellRef, declared: Verdict) -> Point {
    Point { at, num, den: None, declared }
}

const fn ratio(at: &'static str, num: CellRef, den: CellRef, declared: Verdict) -> Point {
    Point { at, num, den: Some(den), declared }
}

/// One quoted paper value and the load points it is checked at.
#[derive(Clone, Copy, Debug)]
pub struct Quote {
    /// Stable name, cited by comments and `CHANGES.md`.
    pub id: &'static str,
    /// The paper's value or band.
    pub paper: Paper,
    /// Ratio, absolute or derived.
    pub class: Class,
    /// Where the paper (or the law) gives it.
    pub provenance: Provenance,
    /// The load points it is checked at.
    pub points: &'static [Point],
}

// Title prefixes and row keys the ledger reads.
const FIG09: &str = "Fig 9 —";
const FIG11_PAYLOAD: &str = "Fig 11 (1) —";
const FIG11_CONNS: &str = "Fig 11 (2) —";
const FIG12: &str = "Fig 12 —";
const FIG13: &str = "Fig 13 —";
const FIG15_DWRR: &str = "Fig 15 (2) —";
const HOME: &str = "Fig 16 — Home Query RPS";
const VIEWCART: &str = "Fig 16 — ViewCart RPS";
const PRODUCT: &str = "Fig 16 — Product Query RPS";
const TABLE2: &str = "Table 2 —";
const DNE: &[&str] = &["Palladium (DNE)"];
const CNE: &[&str] = &["Palladium (CNE)"];
const FUYAO_F: &[&str] = &["FUYAO-F"];
const SPRIGHT: &[&str] = &["SPRIGHT"];
const NIGHTCORE: &[&str] = &["NightCore"];

/// Fig 9: how many times lower the `fast` row's latency is than `slow`'s.
const fn fig09_faster(
    at: &'static str,
    fast: &'static [&'static str],
    slow: &'static [&'static str],
    v: Verdict,
) -> Point {
    ratio(at, cell(FIG09, slow, "RT latency (ms)"), cell(FIG09, fast, "RT latency (ms)"), v)
}

/// Fig 11 (2): off-path RPS over on-path RPS at `conns` connections.
const fn fig11_off_over_on(at: &'static str, conns: &'static [&'static str], v: Verdict) -> Point {
    ratio(at, cell(FIG11_CONNS, conns, "off RPS (K)"), cell(FIG11_CONNS, conns, "on RPS (K)"), v)
}

/// Fig 12: two-sided bandwidth over the one-sided column `col` at 8 KB.
const fn fig12_bw_over(at: &'static str, col: &'static str, v: Verdict) -> Point {
    ratio(at, cell(FIG12, &["8192"], "2-sided MB/s"), cell(FIG12, &["8192"], col), v)
}

/// Fig 13 `col` of row `a` over row `b`.
const fn fig13_ratio(
    at: &'static str,
    a: &'static [&'static str],
    b: &'static [&'static str],
    col: &'static str,
    v: Verdict,
) -> Point {
    ratio(at, cell(FIG13, a, col), cell(FIG13, b, col), v)
}

/// Fig 15 (2): tenant column `col` at window end `t`.
const fn fig15_tenant(at: &'static str, t: &'static [&'static str], col: &'static str, v: Verdict) -> Point {
    value(at, cell(FIG15_DWRR, t, col), v)
}

/// Fig 16: the DNE's RPS over `den`'s, in the RPS panel `chain`, at `col`.
const fn dne_over(
    at: &'static str,
    chain: &'static str,
    den: &'static [&'static str],
    col: &'static str,
    v: Verdict,
) -> Point {
    ratio(at, cell(chain, DNE, col), cell(chain, den, col), v)
}

/// Table 2's quoted Home means (ms) at 20 / 60 / 80 clients.
const DNE_HOME_MS: [f64; 3] = [1.12, 2.55, 3.19];
const NIGHTCORE_HOME_MS: [f64; 3] = [10.77, 32.4, 42.8];

/// Every number the artefacts' titles quote, and the few the paper states
/// elsewhere that a figure's run measures. Each point declares the verdict
/// the model gives today; `paper_check` (full scale) and
/// `tests/figure_shapes.rs` (at a reduced scale) fail when a run gives
/// another, so a change that moves a verdict edits this table.
///
/// Figs 11 (2), 13 and 16 are checked at their loaded points: at one
/// connection or client no design is saturated, and those ratios describe
/// the saturated regime. Fig 9's "until ~6 fns" bounds the Comch-P row to
/// the one function count below it. Fig 12's "two-sided highest" is a
/// ratio of at least 1 over each one-sided primitive. Fig 11 (1)'s "close
/// at low load" is the one quote with no row: it gives no number.
pub const LEDGER: &[Quote] = {
    use Verdict::{Above, Below, In};
    const COMCH_P: &[&str] = &["ComchP", "1"];
    const TCP: &[&str] = &["Tcp", "1"];
    &[
        Quote {
            id: "fig09.comch_p_over_tcp",
            paper: Paper::Band(8.0, f64::INFINITY),
            class: Class::Ratio,
            provenance: Provenance::Title("Comch-P >8x faster than TCP until ~6 fns"),
            points: &[fig09_faster("1 fn", COMCH_P, TCP, In)],
        },
        Quote {
            id: "fig09.comch_e_over_tcp",
            paper: Paper::Band(2.7, 3.8),
            class: Class::Ratio,
            provenance: Provenance::Title("Comch-E 2.7-3.8x faster than TCP, stable"),
            points: &[
                fig09_faster("1 fn", &["ComchE", "1"], TCP, Above),
                fig09_faster("20 fns", &["ComchE", "20"], &["Tcp", "20"], Above),
                fig09_faster("40 fns", &["ComchE", "40"], &["Tcp", "40"], Above),
                fig09_faster("60 fns", &["ComchE", "60"], &["Tcp", "60"], Above),
                fig09_faster("80 fns", &["ComchE", "80"], &["Tcp", "80"], Above),
                fig09_faster("100 fns", &["ComchE", "100"], &["Tcp", "100"], Above),
            ],
        },
        Quote {
            id: "fig11.on_over_off_latency",
            paper: Paper::Band(1.33, 1.54),
            class: Class::Ratio,
            provenance: Provenance::Text("§1, §4.1.1: on-path costs 1.33-1.54x the off-path latency"),
            points: &[ratio(
                "1 KB, 1 conn",
                cell(FIG11_PAYLOAD, &["1024"], "on lat (µs)"),
                cell(FIG11_PAYLOAD, &["1024"], "off lat (µs)"),
                In,
            )],
        },
        Quote {
            id: "fig11.off_over_on_rps",
            paper: Paper::Band(1.0, 1.3),
            class: Class::Ratio,
            provenance: Provenance::Title("off-path up to +30% RPS"),
            points: &[
                fig11_off_over_on("10 conns", &["10"], In),
                fig11_off_over_on("20 conns", &["20"], In),
                fig11_off_over_on("30 conns", &["30"], In),
                fig11_off_over_on("40 conns", &["40"], In),
                fig11_off_over_on("50 conns", &["50"], In),
            ],
        },
        Quote {
            id: "fig12.two_sided_4k_us",
            paper: Paper::Point(11.6),
            class: Class::Absolute("RdmaConfig::per_byte"),
            provenance: Provenance::Title("two-sided 11.6µs"),
            points: &[value("4 KB", cell(FIG12, &["4096"], "2-sided µs"), In)],
        },
        Quote {
            id: "fig12.owrc_best_4k_us",
            paper: Paper::Point(15.0),
            class: Class::Absolute("CostModel::copy_per_byte_hot"),
            provenance: Provenance::Title("OWRC-B 15"),
            points: &[value("4 KB", cell(FIG12, &["4096"], "OWRC-B µs"), In)],
        },
        Quote {
            id: "fig12.owrc_worst_4k_us",
            paper: Paper::Point(16.7),
            class: Class::Absolute("CostModel::copy_per_byte_cold"),
            provenance: Provenance::Title("OWRC-W 16.7"),
            points: &[value("4 KB", cell(FIG12, &["4096"], "OWRC-W µs"), In)],
        },
        Quote {
            id: "fig12.owdl_4k_us",
            paper: Paper::Point(26.1),
            class: Class::Absolute("CostModel::owdl_lock_proc"),
            provenance: Provenance::Title("OWDL 26.1µs"),
            points: &[value("4 KB", cell(FIG12, &["4096"], "OWDL µs"), Above)],
        },
        Quote {
            id: "fig12.two_sided_bw_highest",
            paper: Paper::Band(1.0, f64::INFINITY),
            class: Class::Ratio,
            provenance: Provenance::Title("BW: two-sided highest"),
            points: &[
                fig12_bw_over("8 KB, ÷ OWRC-B", "OWRC-B MB/s", In),
                fig12_bw_over("8 KB, ÷ OWRC-W", "OWRC-W MB/s", In),
                fig12_bw_over("8 KB, ÷ OWDL", "OWDL MB/s", In),
            ],
        },
        Quote {
            id: "fig12.two_sided_8k_mbps",
            paper: Paper::Point(600.0),
            class: Class::Absolute("RdmaConfig::per_byte"),
            provenance: Provenance::Text("Fig 12 (2), §4.1.2: two-sided reaches ≈600 MB/s at 8 KB"),
            points: &[value("8 KB", cell(FIG12, &["8192"], "2-sided MB/s"), In)],
        },
        Quote {
            id: "fig13.palladium_over_f_rps",
            paper: Paper::Point(3.2),
            class: Class::Ratio,
            provenance: Provenance::Title("Palladium 3.2x F-Ingress RPS"),
            points: &[
                fig13_ratio("20 clients", &["Palladium", "20"], &["F-Ingress", "20"], "RPS (K)", In),
                fig13_ratio("40 clients", &["Palladium", "40"], &["F-Ingress", "40"], "RPS (K)", In),
                fig13_ratio("60 clients", &["Palladium", "60"], &["F-Ingress", "60"], "RPS (K)", In),
                fig13_ratio("80 clients", &["Palladium", "80"], &["F-Ingress", "80"], "RPS (K)", In),
                fig13_ratio("100 clients", &["Palladium", "100"], &["F-Ingress", "100"], "RPS (K)", In),
            ],
        },
        Quote {
            id: "fig13.palladium_over_k_rps",
            paper: Paper::Point(11.4),
            class: Class::Ratio,
            provenance: Provenance::Title("11.4x K-Ingress"),
            points: &[
                fig13_ratio("20 clients", &["Palladium", "20"], &["K-Ingress", "20"], "RPS (K)", In),
                fig13_ratio("40 clients", &["Palladium", "40"], &["K-Ingress", "40"], "RPS (K)", In),
                fig13_ratio("60 clients", &["Palladium", "60"], &["K-Ingress", "60"], "RPS (K)", In),
                fig13_ratio("80 clients", &["Palladium", "80"], &["K-Ingress", "80"], "RPS (K)", In),
                fig13_ratio("100 clients", &["Palladium", "100"], &["K-Ingress", "100"], "RPS (K)", In),
            ],
        },
        Quote {
            id: "fig13.f_over_palladium_latency",
            paper: Paper::Point(3.4),
            class: Class::Ratio,
            provenance: Provenance::Title("3.4x lower latency than F-Ingress"),
            points: &[
                fig13_ratio("20 clients", &["F-Ingress", "20"], &["Palladium", "20"], "E2E latency (ms)", Below),
                fig13_ratio("40 clients", &["F-Ingress", "40"], &["Palladium", "40"], "E2E latency (ms)", Below),
                fig13_ratio("60 clients", &["F-Ingress", "60"], &["Palladium", "60"], "E2E latency (ms)", Below),
                fig13_ratio("80 clients", &["F-Ingress", "80"], &["Palladium", "80"], "E2E latency (ms)", Below),
                fig13_ratio("100 clients", &["F-Ingress", "100"], &["Palladium", "100"], "E2E latency (ms)", Below),
            ],
        },
        Quote {
            id: "fig13.palladium_rps_per_core",
            paper: Paper::Point(250.0),
            class: Class::Absolute("TcpCosts::for_kind(StackKind::FStack)"),
            provenance: Provenance::Text("§4.1.3: ≈250 K rps per ingress core"),
            points: &[value("60 clients", cell(FIG13, &["Palladium", "60"], "RPS (K)"), Below)],
        },
        Quote {
            id: "fig15.t1_over_t2",
            paper: Paper::Point(6.0),
            class: Class::Ratio,
            provenance: Provenance::Title("6:1:2 split"),
            points: &[ratio(
                "t=96 s, all three",
                cell(FIG15_DWRR, &["96.0"], "T1 w=6 (K)"),
                cell(FIG15_DWRR, &["96.0"], "T2 w=1 (K)"),
                In,
            )],
        },
        Quote {
            id: "fig15.t3_over_t2",
            paper: Paper::Point(2.0),
            class: Class::Ratio,
            provenance: Provenance::Title("6:1:2 split"),
            points: &[ratio(
                "t=96 s, all three",
                cell(FIG15_DWRR, &["96.0"], "T3 w=2 (K)"),
                cell(FIG15_DWRR, &["96.0"], "T2 w=1 (K)"),
                Below,
            )],
        },
        Quote {
            id: "fig15.t1_alone_k",
            paper: Paper::Point(115.0),
            class: Class::Absolute("DneOps::FAIRNESS_REQUEST"),
            provenance: Provenance::Title("115->90/15K on T2 arrival"),
            points: &[fig15_tenant("t=20 s, T1 alone", &["20.0"], "T1 w=6 (K)", In)],
        },
        Quote {
            id: "fig15.t1_with_t2_k",
            paper: Paper::Point(90.0),
            class: Class::Absolute("DneOps::FAIRNESS_REQUEST"),
            provenance: Provenance::Title("115->90/15K on T2 arrival"),
            points: &[fig15_tenant("t=24 s, T1+T2", &["24.0"], "T1 w=6 (K)", In)],
        },
        Quote {
            id: "fig15.t2_with_t1_k",
            paper: Paper::Point(15.0),
            class: Class::Absolute("DneOps::FAIRNESS_REQUEST"),
            provenance: Provenance::Title("115->90/15K on T2 arrival"),
            points: &[fig15_tenant("t=24 s, T1+T2", &["24.0"], "T2 w=1 (K)", In)],
        },
        Quote {
            id: "fig15.t1_with_all_k",
            paper: Paper::Point(65.0),
            class: Class::Absolute("DneOps::FAIRNESS_REQUEST"),
            provenance: Provenance::Title("65/11/22K with all three"),
            points: &[fig15_tenant("t=96 s, all three", &["96.0"], "T1 w=6 (K)", Above)],
        },
        Quote {
            id: "fig15.t2_with_all_k",
            paper: Paper::Point(11.0),
            class: Class::Absolute("DneOps::FAIRNESS_REQUEST"),
            provenance: Provenance::Title("65/11/22K with all three"),
            points: &[fig15_tenant("t=96 s, all three", &["96.0"], "T2 w=1 (K)", Above)],
        },
        Quote {
            id: "fig15.t3_with_all_k",
            paper: Paper::Point(22.0),
            class: Class::Absolute("DneOps::FAIRNESS_REQUEST"),
            provenance: Provenance::Title("65/11/22K with all three"),
            points: &[fig15_tenant("t=96 s, all three", &["96.0"], "T3 w=2 (K)", Below)],
        },
        Quote {
            id: "fig16.dne_over_nightcore",
            paper: Paper::Band(5.1, 20.9),
            class: Class::Ratio,
            provenance: Provenance::Title("DNE 5.1-20.9x NightCore"),
            points: &[
                dne_over("Home c=20", HOME, NIGHTCORE, "c=20", In),
                dne_over("Home c=40", HOME, NIGHTCORE, "c=40", In),
                dne_over("Home c=60", HOME, NIGHTCORE, "c=60", In),
                dne_over("Home c=80", HOME, NIGHTCORE, "c=80", In),
                dne_over("ViewCart c=20", VIEWCART, NIGHTCORE, "c=20", In),
                dne_over("ViewCart c=40", VIEWCART, NIGHTCORE, "c=40", In),
                dne_over("ViewCart c=60", VIEWCART, NIGHTCORE, "c=60", In),
                dne_over("ViewCart c=80", VIEWCART, NIGHTCORE, "c=80", In),
                dne_over("Product c=20", PRODUCT, NIGHTCORE, "c=20", In),
                dne_over("Product c=40", PRODUCT, NIGHTCORE, "c=40", In),
                dne_over("Product c=60", PRODUCT, NIGHTCORE, "c=60", In),
                dne_over("Product c=80", PRODUCT, NIGHTCORE, "c=80", In),
            ],
        },
        Quote {
            id: "fig16.dne_over_fuyao_f",
            paper: Paper::Band(2.1, 4.1),
            class: Class::Ratio,
            provenance: Provenance::Title("2.1-4.1x FUYAO-F"),
            points: &[
                dne_over("Home c=20", HOME, FUYAO_F, "c=20", Below),
                dne_over("Home c=40", HOME, FUYAO_F, "c=40", Below),
                dne_over("Home c=60", HOME, FUYAO_F, "c=60", Below),
                dne_over("Home c=80", HOME, FUYAO_F, "c=80", Below),
                dne_over("ViewCart c=20", VIEWCART, FUYAO_F, "c=20", Below),
                dne_over("ViewCart c=40", VIEWCART, FUYAO_F, "c=40", Below),
                dne_over("ViewCart c=60", VIEWCART, FUYAO_F, "c=60", Below),
                dne_over("ViewCart c=80", VIEWCART, FUYAO_F, "c=80", Below),
                dne_over("Product c=20", PRODUCT, FUYAO_F, "c=20", Below),
                dne_over("Product c=40", PRODUCT, FUYAO_F, "c=40", Below),
                dne_over("Product c=60", PRODUCT, FUYAO_F, "c=60", Below),
                dne_over("Product c=80", PRODUCT, FUYAO_F, "c=80", Below),
            ],
        },
        Quote {
            id: "fig16.dne_over_spright",
            paper: Paper::Band(2.4, 4.1),
            class: Class::Ratio,
            provenance: Provenance::Title("2.4-4.1x SPRIGHT"),
            points: &[
                dne_over("Home c=20", HOME, SPRIGHT, "c=20", Below),
                dne_over("Home c=40", HOME, SPRIGHT, "c=40", Below),
                dne_over("Home c=60", HOME, SPRIGHT, "c=60", Below),
                dne_over("Home c=80", HOME, SPRIGHT, "c=80", Below),
                dne_over("ViewCart c=20", VIEWCART, SPRIGHT, "c=20", Below),
                dne_over("ViewCart c=40", VIEWCART, SPRIGHT, "c=40", Below),
                dne_over("ViewCart c=60", VIEWCART, SPRIGHT, "c=60", Below),
                dne_over("ViewCart c=80", VIEWCART, SPRIGHT, "c=80", Below),
                dne_over("Product c=20", PRODUCT, SPRIGHT, "c=20", Below),
                dne_over("Product c=40", PRODUCT, SPRIGHT, "c=40", Below),
                dne_over("Product c=60", PRODUCT, SPRIGHT, "c=60", Below),
                dne_over("Product c=80", PRODUCT, SPRIGHT, "c=80", Below),
            ],
        },
        Quote {
            id: "fig16.dne_over_cne",
            paper: Paper::Band(1.3, 1.8),
            class: Class::Ratio,
            provenance: Provenance::Title("1.3-1.8x CNE"),
            points: &[
                dne_over("Home c=20", HOME, CNE, "c=20", Below),
                dne_over("Home c=40", HOME, CNE, "c=40", Below),
                dne_over("Home c=60", HOME, CNE, "c=60", Below),
                dne_over("Home c=80", HOME, CNE, "c=80", Below),
                dne_over("ViewCart c=20", VIEWCART, CNE, "c=20", Below),
                dne_over("ViewCart c=40", VIEWCART, CNE, "c=40", Below),
                dne_over("ViewCart c=60", VIEWCART, CNE, "c=60", Below),
                dne_over("ViewCart c=80", VIEWCART, CNE, "c=80", Below),
                dne_over("Product c=20", PRODUCT, CNE, "c=20", Below),
                dne_over("Product c=40", PRODUCT, CNE, "c=40", Below),
                dne_over("Product c=60", PRODUCT, CNE, "c=60", Below),
                dne_over("Product c=80", PRODUCT, CNE, "c=80", Below),
            ],
        },
        Quote {
            id: "table2.home_dne_ms_20",
            paper: Paper::Point(DNE_HOME_MS[0]),
            class: Class::Absolute("CostModel::engine_tx"),
            provenance: Provenance::Title("DNE 1.12/2.55/3.19"),
            points: &[value("Home c=20", cell(TABLE2, DNE, "H20"), Below)],
        },
        Quote {
            id: "table2.home_dne_ms_60",
            paper: Paper::Point(DNE_HOME_MS[1]),
            class: Class::Absolute("CostModel::engine_tx"),
            provenance: Provenance::Title("DNE 1.12/2.55/3.19"),
            points: &[value("Home c=60", cell(TABLE2, DNE, "H60"), Below)],
        },
        Quote {
            id: "table2.home_dne_ms_80",
            paper: Paper::Point(DNE_HOME_MS[2]),
            class: Class::Absolute("CostModel::engine_tx"),
            provenance: Provenance::Title("DNE 1.12/2.55/3.19"),
            points: &[value("Home c=80", cell(TABLE2, DNE, "H80"), Below)],
        },
        Quote {
            id: "table2.home_nightcore_ms_20",
            paper: Paper::Point(NIGHTCORE_HOME_MS[0]),
            class: Class::Absolute("CostModel::nightcore_dispatch"),
            provenance: Provenance::Title("NightCore 10.77/32.4/42.8"),
            points: &[value("Home c=20", cell(TABLE2, NIGHTCORE, "H20"), In)],
        },
        Quote {
            id: "table2.home_nightcore_ms_60",
            paper: Paper::Point(NIGHTCORE_HOME_MS[1]),
            class: Class::Absolute("CostModel::nightcore_dispatch"),
            provenance: Provenance::Title("NightCore 10.77/32.4/42.8"),
            points: &[value("Home c=60", cell(TABLE2, NIGHTCORE, "H60"), In)],
        },
        Quote {
            id: "table2.home_nightcore_ms_80",
            paper: Paper::Point(NIGHTCORE_HOME_MS[2]),
            class: Class::Absolute("CostModel::nightcore_dispatch"),
            provenance: Provenance::Title("NightCore 10.77/32.4/42.8"),
            points: &[value("Home c=80", cell(TABLE2, NIGHTCORE, "H80"), In)],
        },
        Quote {
            id: "derived.home_dne_krps_20",
            paper: Paper::Point(20.0 / DNE_HOME_MS[0]),
            class: Class::Derived,
            provenance: Provenance::Text(LITTLE),
            points: &[value("Home c=20", cell(HOME, DNE, "c=20"), Above)],
        },
        Quote {
            id: "derived.home_dne_krps_60",
            paper: Paper::Point(60.0 / DNE_HOME_MS[1]),
            class: Class::Derived,
            provenance: Provenance::Text(LITTLE),
            points: &[value("Home c=60", cell(HOME, DNE, "c=60"), Above)],
        },
        Quote {
            id: "derived.home_dne_krps_80",
            paper: Paper::Point(80.0 / DNE_HOME_MS[2]),
            class: Class::Derived,
            provenance: Provenance::Text(LITTLE),
            points: &[value("Home c=80", cell(HOME, DNE, "c=80"), Above)],
        },
        Quote {
            id: "derived.home_nightcore_krps_20",
            paper: Paper::Point(20.0 / NIGHTCORE_HOME_MS[0]),
            class: Class::Derived,
            provenance: Provenance::Text(LITTLE),
            points: &[value("Home c=20", cell(HOME, NIGHTCORE, "c=20"), In)],
        },
        Quote {
            id: "derived.home_nightcore_krps_60",
            paper: Paper::Point(60.0 / NIGHTCORE_HOME_MS[1]),
            class: Class::Derived,
            provenance: Provenance::Text(LITTLE),
            points: &[value("Home c=60", cell(HOME, NIGHTCORE, "c=60"), In)],
        },
        Quote {
            id: "derived.home_nightcore_krps_80",
            paper: Paper::Point(80.0 / NIGHTCORE_HOME_MS[2]),
            class: Class::Derived,
            provenance: Provenance::Text(LITTLE),
            points: &[value("Home c=80", cell(HOME, NIGHTCORE, "c=80"), In)],
        },
    ]
};

/// The provenance of the derived rows.
const LITTLE: &str = "X = N / R on the quoted Table 2 Home mean at the same N (closed loop, no think time)";

/// A point's verdict, as one run computed it.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// The ledger row.
    pub quote: &'static Quote,
    /// Its load point.
    pub point: &'static Point,
    /// The model value (the cell, or the ratio of the two cells).
    pub model: f64,
    /// Where `model` sits against the quote.
    pub verdict: Verdict,
}

/// Every ledger point with its model value and verdict, read from
/// `tables` (those of [`quoted_artefacts`]). Errors on a cell `tables`
/// lack, on a point whose value is not a finite number, and on a quote
/// whose title words are missing from its table's title.
pub fn check(tables: &[Table]) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::new();
    for quote in LEDGER {
        for point in quote.points {
            let table = point.num.table(tables)?;
            if let Provenance::Title(words) = quote.provenance {
                if !table.title.contains(words) {
                    return Err(format!("{}: {words:?} is not in the title {:?}", quote.id, table.title));
                }
            }
            let mut model = table.value(point.num.row, point.num.col)?;
            if let Some(den) = point.den {
                model /= den.read(tables)?;
            }
            let verdict = quote.paper.verdict(model).map_err(|e| format!("{} @ {}: {e}", quote.id, point.at))?;
            outcomes.push(Outcome { quote, point, model, verdict });
        }
    }
    Ok(outcomes)
}

/// Closed-loop throughput must not fall as clients are added (ROADMAP
/// 13d): with stations whose service does not depend on load, X(N) does
/// not decrease in N (mean-value analysis). A run reads X as the
/// completions in its window T ÷ T; at most N requests straddle each edge
/// of the window, so a run at N clients reads its steady rate to within
/// N ÷ T, and runs at c > c′ must read X(c) ≥ X(c′) − (c + c′) ÷ T (Figs
/// 11 and 16 read X = N ÷ R, which needs no slack; they get their
/// window's).
/// Returns one line per pair that does not, over every closed-loop sweep
/// in `tables`, those of [`quoted_artefacts`] at `scale`: Fig 11 (2)
/// (each path mode, over connections), Fig 13 (each ingress) and Fig 16
/// (each system × chain).
pub fn throughput_drops(tables: &[Table], scale: Scale) -> Result<Vec<String>, String> {
    // (sweep, window in seconds, (clients, K rps) in client order)
    let mut sweeps = Vec::new();
    let read = |clients: &[usize], x: &dyn Fn(String) -> Result<f64, String>| {
        clients.iter().map(|&c| Ok((c, x(c.to_string())?))).collect::<Result<Vec<_>, String>>()
    };
    let fig11 = titled(tables, FIG11_CONNS)?;
    for col in ["off RPS (K)", "on RPS (K)"] {
        let xs = read(&FIG11_CONNECTIONS, &|c| fig11.value(&[&c], col))?;
        sweeps.push((format!("Fig 11 (2) {col}"), EchoConfig::new(1024).duration.as_secs_f64(), xs));
    }
    let fig13 = titled(tables, FIG13)?;
    for kind in INGRESSES {
        let label = label_of(kind);
        let xs = read(&FIG13_CLIENTS, &|c| fig13.value(&[label, &c], "RPS (K)"))?;
        sweeps.push((format!("Fig 13 {label}"), fig13_window(scale).as_secs_f64(), xs));
    }
    for (chain, title) in ChainKind::ALL.into_iter().zip([HOME, VIEWCART, PRODUCT]) {
        let table = titled(tables, title)?;
        for system in SystemKind::ALL {
            let xs = read(&FIG16_CLIENTS, &|c| table.value(&[system.label()], &format!("c={c}")))?;
            let window = boutique_window_ms(scale, system, chain).1 as f64 / 1e3;
            sweeps.push((format!("{title} {}", system.label()), window, xs));
        }
    }
    let mut drops = Vec::new();
    for (sweep, window, xs) in &sweeps {
        for (i, &(c0, x0)) in xs.iter().enumerate() {
            for &(c, x) in &xs[i + 1..] {
                let slack = (c + c0) as f64 / window / 1e3;
                if x < x0 - slack {
                    drops.push(format!("{sweep}: X({c}) = {x:.2} K < X({c0}) = {x0:.2} K − {slack:.2} K"));
                }
            }
        }
    }
    Ok(drops)
}

/// `EXPERIMENTS.md`: one line per ledger point, then the count of ratio
/// points in tolerance.
pub fn ledger_markdown(outcomes: &[Outcome]) -> String {
    let mut md = String::from(
        "# Paper ledger\n\n\
         Every number the paper quotes that a figure of this repo measures, one\n\
         line per load point, at full scale. Written by\n\
         `cargo run --release -p palladium-bench --bin paper_check`, which fails\n\
         when a verdict moves; do not edit by hand. The ledger itself (paper\n\
         values, load points, declared verdicts) is `LEDGER` in\n\
         `crates/bench/src/experiments.rs`.\n\n\
         A point quote is in tolerance within ±10 %; a band, edges included.\n\
         *Error* is the model's relative distance from the paper's value, or\n\
         from the band's nearer edge (0 inside it).\n\n\
         | id | at | paper | model | error | class | verdict | source |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for o in outcomes {
        let class = match o.quote.class {
            Class::Ratio => "ratio".to_string(),
            Class::Absolute(constant) => format!("absolute (`{constant}`)"),
            Class::Derived => "derived".to_string(),
        };
        let source = match o.quote.provenance {
            Provenance::Title(words) => format!("title: \"{words}\""),
            Provenance::Text(text) => text.to_string(),
        };
        let error = match o.quote.paper.error(o.model) {
            0.0 => "0".to_string(),
            e => format!("{:+.1} %", e * 100.0),
        };
        md += &format!(
            "| {} | {} | {} | {} | {error} | {class} | {:?} | {source} |\n",
            o.quote.id,
            o.point.at,
            o.quote.paper,
            sig3(o.model),
            o.verdict,
        );
    }
    let ratios: Vec<&Outcome> = outcomes.iter().filter(|o| matches!(o.quote.class, Class::Ratio)).collect();
    let in_band = ratios.iter().filter(|o| o.verdict == Verdict::In).count();
    md += &format!("\n{in_band} of {} ratio rows in tolerance\n", ratios.len());
    md
}

/// `v` to three significant digits (for |v| ≥ 0.1).
fn sig3(v: f64) -> String {
    match v.abs() {
        a if a >= 100.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.1}"),
        a if a >= 1.0 => format!("{v:.2}"),
        _ => format!("{v:.3}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scale small enough for a unit test.
    const REDUCED: Scale = Scale(0.12);

    #[test]
    fn table_display_is_the_figure_format() {
        let t = Table::new(
            "t",
            &["a", "b", "ms"],
            vec![
                vec![text("1"), text("2"), Cell::Num(3_600e-6, 3)],
                vec![text("33"), Cell::Num(4.0, 0), Cell::Num(31_000e-6, 3)],
            ],
        );
        assert_eq!(t.to_string(), "\n== t ==\n a  b     ms\n 1  2  0.004\n33  4  0.031\n");
        // A lookup reads the run's value, not the printed one.
        assert_eq!(t.value(&["1"], "ms"), Ok(3_600e-6));
        assert!(t.value(&["1"], "a").is_err(), "a text cell is not a number");
        assert!(t.value(&["9"], "ms").is_err());
    }

    #[test]
    #[should_panic(expected = "does not match the headers")]
    fn ragged_row_is_rejected() {
        Table::new("t", &["a", "b"], vec![vec![text("1")]]);
    }

    #[test]
    fn verdict_includes_both_band_edges() {
        let band = Paper::Band(2.7, 3.8);
        assert_eq!(band.verdict(2.7), Ok(Verdict::In));
        assert_eq!(band.verdict(3.8), Ok(Verdict::In));
        assert_eq!(band.verdict(2.69), Ok(Verdict::Below));
        assert_eq!(band.verdict(3.81), Ok(Verdict::Above));
        let point = Paper::Point(10.0);
        assert_eq!(point.verdict(9.0), Ok(Verdict::In));
        assert_eq!(point.verdict(11.0), Ok(Verdict::In));
        assert_eq!(point.verdict(8.9), Ok(Verdict::Below));
        assert_eq!(Paper::Band(8.0, f64::INFINITY).verdict(1e9), Ok(Verdict::In));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(band.verdict(bad).is_err(), "{bad} has no verdict");
        }
    }

    fn paper(id: &str) -> f64 {
        match LEDGER.iter().find(|q| q.id == id).expect("ledger id").paper {
            Paper::Point(p) => p,
            Paper::Band(..) => panic!("{id} is a band"),
        }
    }

    #[test]
    fn derived_rows_are_table2_through_n_equals_x_r() {
        // X = N / R: clients over mean latency (ms) is K rps.
        let rows = [
            ("derived.home_dne_krps_20", 17.9),
            ("derived.home_dne_krps_60", 23.5),
            ("derived.home_dne_krps_80", 25.1),
            ("derived.home_nightcore_krps_20", 1.86),
            ("derived.home_nightcore_krps_60", 1.85),
            ("derived.home_nightcore_krps_80", 1.87),
        ];
        for (id, want) in rows {
            assert_eq!(sig3(paper(id)), want.to_string(), "{id}");
        }
        // Table 2's own DNE ÷ NightCore sits inside Fig 16's quoted band.
        let Paper::Band(lo, hi) = LEDGER.iter().find(|q| q.id == "fig16.dne_over_nightcore").unwrap().paper
        else {
            panic!("a band")
        };
        for (c, want) in [(20, "9.6"), (60, "12.7"), (80, "13.4")] {
            let r = paper(&format!("table2.home_nightcore_ms_{c}")) / paper(&format!("table2.home_dne_ms_{c}"));
            assert_eq!(format!("{r:.1}"), want);
            assert!((lo..=hi).contains(&r), "{r:.1} in {lo}-{hi}");
        }
    }

    #[test]
    fn ledger_ids_are_unique_and_title_rows_write_their_numbers() {
        let mut ids: Vec<&str> = LEDGER.iter().map(|q| q.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), LEDGER.len(), "duplicate ledger id");
        // A title row's paper value is written in its title words, which
        // `check` finds in the title, so the two cannot drift apart. Two
        // rows restate their words: a percentage gain and an ordering.
        for q in LEDGER {
            let Provenance::Title(words) = q.provenance else { continue };
            if ["fig11.off_over_on_rps", "fig12.two_sided_bw_highest"].contains(&q.id) {
                continue;
            }
            let numbers = match q.paper {
                Paper::Point(p) => vec![p],
                Paper::Band(lo, hi) => vec![lo, hi],
            };
            for n in numbers.into_iter().filter(|n| n.is_finite()) {
                assert!(words.contains(&n.to_string()), "{}: {n} is not in {words:?}", q.id);
            }
        }
    }

    #[test]
    fn fig09_rows_shape() {
        let [t] = &fig09(REDUCED)[..] else { panic!("one table") };
        assert_eq!(t.rows.len(), 3 * 6);
    }

    #[test]
    fn fig12_rows_shape() {
        let [t] = &fig12(REDUCED)[..] else { panic!("one table") };
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.headers.len(), 1 + 2 * 4);
    }

    #[test]
    fn table1_matches_paper() {
        let [t] = &table1()[..] else { panic!("one table") };
        // Every cell: Palladium is the only row with all four
        // capabilities, and FUYAO's one mark is DPU offloading.
        let want = [
            ["NightCore", "x", "x", "x", "x"],
            ["SPRIGHT", "x", "x", "x", "x"],
            ["FUYAO-F", "x", "x", "Y", "x"],
            ["Palladium (DNE)", "Y", "Y", "Y", "Y"],
        ];
        assert_eq!(t.rows, want.map(|row| row.map(text).to_vec()));
    }

    #[test]
    fn boutique_quick_run_sane() {
        let r = boutique_run(SystemKind::PalladiumDne, ChainKind::HomeQuery, 20, REDUCED);
        assert!(r.rps > 1_000.0, "rps {}", r.rps);
        assert_eq!(r.software_copy_bytes, 0);
    }
}
