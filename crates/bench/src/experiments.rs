//! Every paper artefact, defined once.
//!
//! Each function runs one of the paper's evaluation artefacts (Figs 9 and
//! 11–16, Tables 1–2) and returns its [`Table`]s: the title with the
//! paper's quoted values, the headers and the rows. The figure binaries
//! and `all_experiments` only [`print`] them, so a quoted paper value has
//! exactly one source line, here. `Scale` shrinks virtual durations so
//! tests can run the identical code quickly.

use std::fmt;

use palladium_core::driver::chain::{ChainReport, ChainSim};
use palladium_core::driver::channel::{ChannelSim, ChannelSimConfig};
use palladium_core::driver::echo::{EchoConfig, EchoSim, PathMode, Primitive};
use palladium_core::driver::fairness::{FairnessSim, FairnessSimConfig};
use palladium_core::driver::ingress_sweep::{IngressSim, IngressSimConfig};
use palladium_core::dwrr::SchedPolicy;
use palladium_core::system::{IngressKind, SystemKind};
use palladium_ipc::ChannelKind;
use palladium_simnet::Nanos;
use palladium_workloads::boutique::{self, ChainKind};

/// How much virtual time an experiment runs for (1.0 = harness default).
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub f64);

impl Scale {
    /// Full harness runs.
    pub const FULL: Scale = Scale(1.0);

    fn ms(&self, base: u64) -> Nanos {
        Nanos::from_nanos((base as f64 * self.0 * 1e6).max(1e6) as u64)
    }
}

/// One printed table: a title, its column headers and one row of cells
/// per line, every row exactly as wide as the headers.
pub struct Table {
    title: String,
    headers: &'static [&'static str],
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Panics if a row does not have one cell per header.
    fn new(
        title: impl Into<String>,
        headers: &'static [&'static str],
        rows: Vec<Vec<String>>,
    ) -> Self {
        let title = title.into();
        let width = headers.len();
        for row in &rows {
            assert_eq!(row.len(), width, "{title}: row {row:?} does not match the headers");
        }
        Table { title, headers, rows }
    }
}

/// A blank line, `== title ==`, then the headers and rows, each column
/// right-aligned to its widest cell and columns two spaces apart.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
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
        for row in &self.rows {
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
                format!("{kind:?}"),
                fns.to_string(),
                format!("{:.3}", r.mean_latency.as_millis_f64()),
                format!("{:.3}", r.rps / 1e6),
            ]);
        }
    }
    vec![Table::new(
        "Fig 9 — DPU<->host descriptor channels (paper: Comch-P >8x faster than TCP until ~6 fns; Comch-E 2.7-3.8x faster than TCP, stable)",
        &["channel", "#functions", "RT latency (ms)", "RPS (x1M)"],
        rows,
    )]
}

/// Fig 11: off-path vs on-path DNE, (1) over payload at one connection
/// and (2) over connections at a 1 KB payload.
pub fn fig11(scale: Scale) -> Vec<Table> {
    let row = |axis: String, mut cfg: EchoConfig| {
        cfg.duration = scale.ms(60);
        cfg.warmup = scale.ms(10);
        let off = EchoSim::new(cfg).run_path_mode(PathMode::OffPath);
        let on = EchoSim::new(cfg).run_path_mode(PathMode::OnPath);
        vec![
            axis,
            format!("{:.1}", off.rps / 1e3),
            format!("{:.1}", on.rps / 1e3),
            format!("{:.2}", off.mean_latency.as_micros_f64()),
            format!("{:.2}", on.mean_latency.as_micros_f64()),
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
            [1usize, 10, 20, 30, 40, 50]
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
        let mut row = vec![size.to_string()];
        for prim in Primitive::ALL {
            let r = EchoSim::new(cfg).run_primitive(prim);
            row.push(format!("{:.1}", r.mean_latency.as_micros_f64()));
            row.push(format!("{:.0}", r.rps * size.max(1) as f64 / 1e6));
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

/// Fig 13: ingress design × clients → (E2E latency ms, RPS ×1K).
pub fn fig13(scale: Scale) -> Vec<Table> {
    let mut rows = Vec::new();
    for kind in [
        IngressKind::KernelDeferred,
        IngressKind::FStackDeferred,
        IngressKind::Palladium,
    ] {
        for clients in [1usize, 20, 40, 60, 80, 100] {
            let mut cfg = IngressSimConfig::fig13(kind, clients);
            cfg.duration = scale.ms(400);
            cfg.warmup = scale.ms(100);
            let r = IngressSim::new(cfg).sweep();
            rows.push(vec![
                label_of(kind).to_string(),
                clients.to_string(),
                format!("{:.3}", r.mean_latency.as_millis_f64()),
                format!("{:.1}", r.rps / 1e3),
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
    [
        IngressKind::KernelDeferred,
        IngressKind::FStackDeferred,
        IngressKind::Palladium,
    ]
    .into_iter()
    .map(|kind| {
        let r = IngressSim::scaling_run(kind, TIME_SCALE, 24);
        let rows = r
            .cores_series
            .iter()
            .zip(&r.rps_series)
            .map(|(&(t, cores), &(_, rps))| {
                vec![
                    format!("{:.0}", t.as_secs_f64() / TIME_SCALE),
                    format!("{cores:.1}"),
                    format!("{:.1}", rps / 1e3),
                ]
            })
            .collect();
        Table::new(
            format!(
                "Fig 14 — {kind:?} (ups={}, downs={}, disconnected clients={})",
                r.scale_ups, r.scale_downs, r.disconnected
            ),
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
                let mut row = vec![format!("{:.1}", end.as_secs_f64() / TIME_SCALE)];
                for (_, series) in &report.series {
                    row.push(format!("{:.1}", series[i].1 / 1e3));
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

/// One Fig 16 / Table 2 cluster run.
fn boutique_run(
    system: SystemKind,
    chain: ChainKind,
    clients: usize,
    scale: Scale,
) -> ChainReport {
    let cfg = boutique::config(system, chain)
        .clients(clients)
        .warmup_ms(scale.ms(60).as_nanos() / 1_000_000)
        .duration_ms(scale.ms(240).as_nanos() / 1_000_000);
    ChainSim::new(cfg).run()
}

/// Client counts of Fig 16's RPS panels.
pub const FIG16_CLIENTS: [usize; 5] = [1, 20, 40, 60, 80];

/// Client counts of Fig 16's utilization panels and of Table 2.
pub const TABLE2_CLIENTS: [usize; 3] = [20, 60, 80];

/// The Fig 16 / Table 2 cluster runs: every system × chain at each of a
/// set of client counts, each configuration run once and read by every
/// table that shows it.
pub struct BoutiqueSweep {
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
        BoutiqueSweep { clients: clients.to_vec(), runs }
    }

    /// The run of `system` on `chain` at `clients`.
    fn get(&self, system: SystemKind, chain: ChainKind, clients: usize) -> &ChainReport {
        let s = SystemKind::ALL.iter().position(|&k| k == system).expect("system swept");
        let k = ChainKind::ALL.iter().position(|&k| k == chain).expect("chain swept");
        let c = self.clients.iter().position(|&n| n == clients).expect("client count swept");
        &self.runs[(s * ChainKind::ALL.len() + k) * self.clients.len() + c]
    }

    /// One row per system: its label, then `cell` of its run on each of
    /// `chains` at each of `clients`.
    fn rows(
        &self,
        chains: &[ChainKind],
        clients: &[usize],
        cell: impl Fn(&ChainReport) -> String,
    ) -> Vec<Vec<String>> {
        SystemKind::ALL
            .iter()
            .map(|&system| {
                let mut row = vec![system.label().to_string()];
                for &chain in chains {
                    row.extend(clients.iter().map(|&c| cell(self.get(system, chain, c))));
                }
                row
            })
            .collect()
    }

    /// Fig 16: per chain, the RPS panel at [`FIG16_CLIENTS`] and the
    /// CPU/DPU utilization panel at [`TABLE2_CLIENTS`]. Needs a sweep at
    /// [`FIG16_CLIENTS`].
    pub fn fig16(&self) -> Vec<Table> {
        let mut tables = Vec::new();
        for chain in ChainKind::ALL {
            tables.push(Table::new(
                format!("Fig 16 — {} RPS x1K (paper: DNE 5.1-20.9x NightCore, 2.1-4.1x FUYAO-F, 2.4-4.1x SPRIGHT, 1.3-1.8x CNE)", chain.label()),
                &["system", "c=1", "c=20", "c=40", "c=60", "c=80"],
                self.rows(&[chain], &FIG16_CLIENTS, |r| format!("{:.1}", r.rps / 1e3)),
            ));
            tables.push(Table::new(
                format!("Fig 16 — {} CPU/DPU utilization % (cpu/dpu)", chain.label()),
                &["system", "c=20", "c=60", "c=80"],
                self.rows(&[chain], &TABLE2_CLIENTS, |r| {
                    format!("{:.0}/{:.0}", r.cpu_util_pct, r.dpu_util_pct)
                }),
            ));
        }
        tables
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
            self.rows(&ChainKind::ALL, &TABLE2_CLIENTS, |r| {
                format!("{:.2}", r.mean_latency.as_millis_f64())
            }),
        )]
    }
}

/// Table 1: the capability matrix.
pub fn table1() -> Vec<Table> {
    let mark = |b: bool| if b { "Y" } else { "x" }.to_string();
    let rows = [
        SystemKind::NightCore,
        SystemKind::Spright,
        SystemKind::FuyaoF,
        SystemKind::PalladiumDne,
    ]
    .iter()
    .map(|s| {
        let c = s.capabilities();
        vec![
            s.label().to_string(),
            mark(c.multi_tenancy),
            mark(c.distributed_zero_copy),
            mark(c.dpu_offloading),
            mark(c.eliminates_proto_in_cluster),
        ]
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

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale(0.12);

    #[test]
    fn table_display_is_the_figure_format() {
        let t = Table::new(
            "t",
            &["a", "b"],
            vec![vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
        assert_eq!(t.to_string(), "\n== t ==\n a  b\n 1  2\n33  4\n");
    }

    #[test]
    #[should_panic(expected = "does not match the headers")]
    fn ragged_row_is_rejected() {
        Table::new("t", &["a", "b"], vec![vec!["1".into()]]);
    }

    #[test]
    fn fig09_rows_shape() {
        let [t] = &fig09(TINY)[..] else { panic!("one table") };
        assert_eq!(t.rows.len(), 3 * 6);
    }

    #[test]
    fn fig12_rows_shape() {
        let [t] = &fig12(TINY)[..] else { panic!("one table") };
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.headers.len(), 1 + 2 * 4);
    }

    #[test]
    fn table1_matches_paper() {
        let [t] = &table1()[..] else { panic!("one table") };
        // Palladium: all capabilities; NightCore: none.
        assert_eq!(t.rows[3][1..], ["Y", "Y", "Y", "Y"].map(String::from));
        assert_eq!(t.rows[0][1..], ["x", "x", "x", "x"].map(String::from));
    }

    #[test]
    fn boutique_quick_run_sane() {
        let r = boutique_run(SystemKind::PalladiumDne, ChainKind::HomeQuery, 20, TINY);
        assert!(r.rps > 1_000.0, "rps {}", r.rps);
        assert_eq!(r.software_copy_bytes, 0);
    }
}
