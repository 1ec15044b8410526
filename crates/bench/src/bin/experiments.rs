//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p kspr-bench --bin experiments -- <experiment> [scale]
//! ```
//!
//! * `<experiment>` is one of `fig9`, `fig10a`, `fig10b`, `fig11`, `fig12`,
//!   `fig13`, `fig14`, `fig15`, `fig16`, `fig17`, `fig18`, `fig19`, `fig20`,
//!   `fig22`, `fig23`, `fig24`, `batch` (beyond-the-paper: sequential loop
//!   vs `QueryEngine::run_batch`), `update` (beyond-the-paper: incremental
//!   insert/delete + re-query vs full rebuild), `serve` (beyond-the-paper:
//!   sharded serving front-end vs a single engine), `monitor`
//!   (beyond-the-paper: standing-query patching vs naive re-run), `approx`
//!   (beyond-the-paper: the guaranteed-error approximate tier — the
//!   speed/quality frontier and Auto routing), `recovery` (beyond-the-paper:
//!   WAL commit overhead and crash-recovery replay time of the durable
//!   serving store), or `all`.  The `approx`, `batch`, `monitor`,
//!   `recovery`, `serve`, and `update` experiments each update their own
//!   section of `BENCH_perf.json` (tagged with the scale and the host's core
//!   count), and exit with status 1 when that write fails.
//!   Per-stage and per-phase latency percentiles of the serving pipeline
//!   come from the client-side benchmark (`perfbench --trace 1`).
//! * `[scale]` is `quick` (default) or `full`; the parameter values for each
//!   scale are documented in `EXPERIMENTS.md`.
//!
//! Every experiment prints the same rows / series the corresponding figure of
//! the paper reports (response time, result size, processed records, …), so
//! the output can be compared shape-for-shape with the published plots.

use kspr::{Algorithm, BoundMode, Dataset, KsprConfig, PreferenceSpace};
use kspr_bench::{fmt_secs, measure, measure_batch, Scale, Workload};
use kspr_datagen::Distribution;
use kspr_geometry::{ConstraintSystem, Hyperplane, Polytope, Sign};
use kspr_spatial::{AggregateRTree, IoCostModel, Record};
use kspr_telemetry::JsonValue;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(|s| s.as_str()).unwrap_or("all");
    let scale = Scale::parse(args.get(2).map(|s| s.as_str()).unwrap_or("quick"));
    let start = Instant::now();
    run_experiment(which, scale);
    eprintln!(
        "\n[experiments] total wall-clock: {:.1}s",
        start.elapsed().as_secs_f64()
    );
}

fn run_experiment(which: &str, scale: Scale) {
    match which {
        "fig9" => fig9(scale),
        "fig10a" => fig10a(scale),
        "fig10b" => fig10b(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(scale),
        "fig14" => fig14(scale),
        "fig15" => fig15(scale),
        "fig16" => fig16(scale),
        "fig17" => fig17(scale),
        "fig18" => fig18(scale),
        "fig19" => fig19(scale),
        "fig20" => fig20(scale),
        "fig22" => fig22(scale),
        "fig23" => fig23(scale),
        "fig24" => fig24(scale),
        "batch" => batch(scale),
        "update" => update(scale),
        "serve" => serve(scale),
        "monitor" => monitor(scale),
        "approx" => approx(scale),
        "recovery" => recovery(scale),
        "all" => {
            for e in [
                "fig9", "fig10a", "fig10b", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
                "fig17", "fig18", "fig19", "fig20", "fig22", "fig23", "fig24", "batch", "update",
                "serve", "monitor", "approx", "recovery",
            ] {
                run_experiment(e, scale);
                println!();
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

/// Shared parameter sets per scale.
struct Params {
    n_default: usize,
    d_default: usize,
    k_default: usize,
    k_values: Vec<usize>,
    n_values: Vec<usize>,
    d_values: Vec<usize>,
    queries: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Quick => Params {
            n_default: 1_500,
            d_default: 4,
            k_default: 10,
            k_values: vec![5, 10, 15, 20],
            n_values: vec![500, 1_000, 2_000, 4_000],
            d_values: vec![2, 3, 4, 5],
            queries: 3,
        },
        Scale::Full => Params {
            n_default: 20_000,
            d_default: 4,
            k_default: 30,
            k_values: vec![10, 30, 50, 70, 90],
            n_values: vec![2_000, 5_000, 10_000, 20_000, 50_000],
            d_values: vec![2, 3, 4, 5, 6],
            queries: 10,
        },
    }
}

fn header(title: &str, paper_item: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {paper_item})");
    println!("================================================================");
}

// ---------------------------------------------------------------------------
// Section 7.2 — case study
// ---------------------------------------------------------------------------

fn fig9(_scale: Scale) {
    header(
        "Case study: focal player's kSPR regions across two seasons",
        "Figure 9 (Section 7.2), on surrogate NBA data",
    );
    let k = 3;
    let league = kspr_datagen::nba_seasons(250, 42);
    for (label, season) in [
        ("2014-2015", &league.season1),
        ("2015-2016", &league.season2),
    ] {
        let focal = season[league.focal].clone();
        let competitors: Vec<Vec<f64>> = season
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != league.focal)
            .map(|(_, v)| v.clone())
            .collect();
        let dataset = Dataset::new(competitors);
        let result = kspr::run(
            Algorithm::LpCta,
            &dataset,
            &focal,
            k,
            &KsprConfig::default(),
        );
        // Area-weighted centroid over (points weight, rebounds weight).
        let mut area = 0.0;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for r in &result.regions {
            if let Some(p) = &r.polytope {
                let a = p.volume(0, 0);
                let c = p.centroid();
                area += a;
                cx += a * c[0];
                cy += a * c[1];
            }
        }
        let (cx, cy) = if area > 0.0 {
            (cx / area, cy / area)
        } else {
            (0.0, 0.0)
        };
        println!(
            "season {label}: regions={:>4}  impact={:>6.2}%  region-centre (w_points, w_rebounds) = ({:.2}, {:.2})",
            result.num_regions(),
            100.0 * result.impact(50_000, 1),
            cx,
            cy
        );
    }
    println!(
        "expected shape: both seasons competitive; centre moves from high w_points to high w_rebounds"
    );
}

// ---------------------------------------------------------------------------
// Section 7.3 — performance evaluation
// ---------------------------------------------------------------------------

fn fig10a(scale: Scale) {
    header(
        "LP-CTA vs RTOPK on 2-dimensional data, varying k",
        "Figure 10(a)",
    );
    let p = params(scale);
    println!("{:<6} {:>14} {:>14}", "k", "LP-CTA (s)", "RTOPK (s)");
    for &k in &p.k_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, 2, k, 11);
        let focals = w.focals(p.queries);
        let config = KsprConfig::default();
        let lp = measure(Algorithm::LpCta, &w.dataset, &focals, k, &config);
        let rt = measure(Algorithm::Rtopk, &w.dataset, &focals, k, &config);
        println!(
            "{:<6} {:>14} {:>14}",
            k,
            fmt_secs(lp.avg_time),
            fmt_secs(rt.avg_time)
        );
    }
    println!(
        "expected shape: both fast; RTOPK scans every non-dominated record, LP-CTA a small subset"
    );
}

fn fig10b(scale: Scale) {
    header(
        "CTA / P-CTA / LP-CTA / iMaxRank, varying k (IND, d = 4)",
        "Figure 10(b)",
    );
    let p = params(scale);
    // The iMaxRank baseline explodes quickly; the paper itself fails to finish
    // it beyond small settings.  We run it on a reduced dataset.
    let baseline_n = match scale {
        Scale::Quick => 60,
        Scale::Full => 150,
    };
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>20}",
        "k", "CTA (s)", "P-CTA (s)", "LP-CTA (s)", "iMaxRank (s)"
    );
    for &k in &p.k_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, p.d_default, k, 12);
        let focals = w.focals(p.queries);
        let config = KsprConfig::default();
        let cta = measure(Algorithm::Cta, &w.dataset, &focals, k, &config);
        let pcta = measure(Algorithm::Pcta, &w.dataset, &focals, k, &config);
        let lpcta = measure(Algorithm::LpCta, &w.dataset, &focals, k, &config);
        let wb = Workload::synthetic(Distribution::Independent, baseline_n, 3, k, 12);
        let bfocals = wb.focals(p.queries.min(2));
        let imax = measure(Algorithm::IMaxRank, &wb.dataset, &bfocals, k, &config);
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>12} (n={})",
            k,
            fmt_secs(cta.avg_time),
            fmt_secs(pcta.avg_time),
            fmt_secs(lpcta.avg_time),
            fmt_secs(imax.avg_time),
            baseline_n,
        );
    }
    println!(
        "expected shape: LP-CTA <= P-CTA << CTA; iMaxRank slowest even on a much smaller dataset"
    );
}

fn fig11(scale: Scale) {
    header(
        "Processed records and CellTree nodes, varying k (IND, d = 4)",
        "Figure 11",
    );
    let p = params(scale);
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "k", "rec CTA", "rec P", "rec LP", "nodes CTA", "nodes P", "nodes LP"
    );
    for &k in &p.k_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, p.d_default, k, 13);
        let focals = w.focals(p.queries);
        let config = KsprConfig::default();
        let cta = measure(Algorithm::Cta, &w.dataset, &focals, k, &config);
        let pcta = measure(Algorithm::Pcta, &w.dataset, &focals, k, &config);
        let lpcta = measure(Algorithm::LpCta, &w.dataset, &focals, k, &config);
        println!(
            "{:<6} {:>10.0} {:>10.0} {:>10.0} {:>12.0} {:>12.0} {:>12.0}",
            k,
            cta.avg_processed,
            pcta.avg_processed,
            lpcta.avg_processed,
            cta.avg_nodes,
            pcta.avg_nodes,
            lpcta.avg_nodes
        );
    }
    println!("expected shape: P-CTA/LP-CTA process far fewer records and nodes than CTA");
}

fn fig12(scale: Scale) {
    header(
        "Response time and CellTree size, varying dataset cardinality n (IND)",
        "Figure 12",
    );
    let p = params(scale);
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>14}",
        "n", "CTA (s)", "P-CTA (s)", "LP-CTA (s)", "LP nodes"
    );
    for &n in &p.n_values {
        let w = Workload::synthetic(Distribution::Independent, n, p.d_default, p.k_default, 14);
        let focals = w.focals(p.queries);
        let config = KsprConfig::default();
        // CTA becomes impractical quickly; cap it at the smaller cardinalities
        // just as the paper stops plotting methods that exceed the time budget.
        let cta_time = if n <= p.n_values[1] {
            fmt_secs(measure(Algorithm::Cta, &w.dataset, &focals, p.k_default, &config).avg_time)
        } else {
            ">budget".to_string()
        };
        let pcta = measure(Algorithm::Pcta, &w.dataset, &focals, p.k_default, &config);
        let lpcta = measure(Algorithm::LpCta, &w.dataset, &focals, p.k_default, &config);
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>14.0}",
            n,
            cta_time,
            fmt_secs(pcta.avg_time),
            fmt_secs(lpcta.avg_time),
            lpcta.avg_nodes
        );
    }
    println!("expected shape: LP-CTA scales best with n; the gap to P-CTA widens as n grows");
}

fn fig13(scale: Scale) {
    header(
        "Response time and result size, varying dimensionality d (IND)",
        "Figure 13 (incl. the result-size table of Fig. 13b)",
    );
    let p = params(scale);
    println!(
        "{:<6} {:>12} {:>12} {:>14}",
        "d", "P-CTA (s)", "LP-CTA (s)", "result size"
    );
    for &d in &p.d_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, d, p.k_default, 15);
        let focals = w.focals(p.queries);
        let config = KsprConfig::default();
        let pcta = measure(Algorithm::Pcta, &w.dataset, &focals, p.k_default, &config);
        let lpcta = measure(Algorithm::LpCta, &w.dataset, &focals, p.k_default, &config);
        println!(
            "{:<6} {:>12} {:>12} {:>14.2}",
            d,
            fmt_secs(pcta.avg_time),
            fmt_secs(lpcta.avg_time),
            lpcta.avg_regions
        );
    }
    println!("expected shape: result size and response time grow quickly with d");
}

fn fig14(scale: Scale) {
    header(
        "LP-CTA response time and result size per data distribution, varying k",
        "Figure 14",
    );
    let p = params(scale);
    println!(
        "{:<6} {:>6} {:>14} {:>14}",
        "dist", "k", "LP-CTA (s)", "result size"
    );
    for dist in Distribution::all() {
        for &k in &p.k_values {
            let w = Workload::synthetic(dist, p.n_default, p.d_default, k, 16);
            let focals = w.focals(p.queries);
            let m = measure(
                Algorithm::LpCta,
                &w.dataset,
                &focals,
                k,
                &KsprConfig::default(),
            );
            println!(
                "{:<6} {:>6} {:>14} {:>14.2}",
                dist.label(),
                k,
                fmt_secs(m.avg_time),
                m.avg_regions
            );
        }
    }
    println!("expected shape: ANTI slowest with the most regions, COR fastest with the fewest");
}

fn fig15(scale: Scale) {
    header(
        "P-CTA vs LP-CTA on the real-data surrogates, varying k",
        "Figure 15",
    );
    let p = params(scale);
    let (hotel_n, house_n, nba_n) = match scale {
        Scale::Quick => (2_000, 1_500, 1_000),
        Scale::Full => (40_000, 30_000, 20_000),
    };
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>14}",
        "dataset", "k", "P-CTA (s)", "LP-CTA (s)", "result size"
    );
    for &k in &p.k_values {
        for (name, w) in [
            ("HOTEL", Workload::hotel(hotel_n, k, 21)),
            ("HOUSE", Workload::house(house_n, k, 22)),
            ("NBA", Workload::nba(nba_n, k, 23)),
        ] {
            let focals = w.focals(p.queries);
            let config = KsprConfig::default();
            let pcta = measure(Algorithm::Pcta, &w.dataset, &focals, k, &config);
            let lpcta = measure(Algorithm::LpCta, &w.dataset, &focals, k, &config);
            println!(
                "{:<8} {:>6} {:>12} {:>12} {:>14.2}",
                name,
                k,
                fmt_secs(pcta.avg_time),
                fmt_secs(lpcta.avg_time),
                lpcta.avg_regions
            );
        }
    }
    println!("expected shape: LP-CTA at or below P-CTA on every dataset");
}

// ---------------------------------------------------------------------------
// Section 7.4 — effectiveness of individual optimizations
// ---------------------------------------------------------------------------

/// Builds `cells` random cell descriptions from an arrangement of `m`
/// hyperplanes: each description is the full set of planes together with an
/// interior point that fixes the sign of every plane (mimicking the setup of
/// Figures 16 and 17, where random CellTree leaves are examined).
fn random_cells(m: usize, d: usize, cells: usize, seed: u64) -> (Vec<Hyperplane>, Vec<Vec<f64>>) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let space = PreferenceSpace::transformed(d);
    let raw = kspr_datagen::generate(Distribution::Independent, m * 3, d, seed);
    let focal = vec![0.5; d];
    let planes: Vec<Hyperplane> = raw
        .iter()
        .filter(|r| !kspr_spatial::dominates(r, &focal) && !kspr_spatial::dominates(&focal, r))
        .take(m)
        .map(|r| Hyperplane::separating(r, &focal, &space))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC311);
    let mut points = Vec::with_capacity(cells);
    while points.len() < cells {
        let point: Vec<f64> = (0..d - 1).map(|_| rng.gen_range(0.01..0.99)).collect();
        if point.iter().sum::<f64>() < 0.99 {
            points.push(point);
        }
    }
    (planes, points)
}

fn fig16(scale: Scale) {
    header(
        "Feasibility test: LP (lp_solve-style) vs exact halfspace intersection (qhull-style)",
        "Figure 16",
    );
    let p = params(scale);
    let cells = match scale {
        Scale::Quick => 20,
        Scale::Full => 100,
    };
    let m_values: Vec<usize> = match scale {
        Scale::Quick => vec![50, 100, 200],
        Scale::Full => vec![500, 1_000, 5_000, 10_000],
    };
    println!(
        "-- effect of the number of inserted hyperplanes m (d = {}) --",
        p.d_default
    );
    println!("{:<8} {:>16} {:>16}", "m", "LP test (s)", "qhull-style (s)");
    for &m in &m_values {
        let (t_lp, t_geom) = feasibility_comparison(m, p.d_default, cells, 31);
        println!("{:<8} {:>16.4} {:>16.4}", m, t_lp, t_geom);
    }
    println!("-- effect of dimensionality d (m = {}) --", m_values[0]);
    println!("{:<8} {:>16} {:>16}", "d", "LP test (s)", "qhull-style (s)");
    for &d in &p.d_values {
        if d < 3 {
            continue;
        }
        let (t_lp, t_geom) = feasibility_comparison(m_values[0], d, cells, 32);
        println!("{:<8} {:>16.4} {:>16.4}", d, t_lp, t_geom);
    }
    println!(
        "expected shape: the LP test is one to two orders of magnitude faster, and the gap widens with d"
    );
}

/// Total time to test `cells` random cells of an `m`-plane arrangement for
/// feasibility with (a) the LP test and (b) exact vertex enumeration on the
/// reduced constraint set.
fn feasibility_comparison(m: usize, d: usize, cells: usize, seed: u64) -> (f64, f64) {
    let (planes, points) = random_cells(m, d, cells, seed);
    let space = PreferenceSpace::transformed(d);
    let mut lp_total = 0.0;
    let mut geom_total = 0.0;
    for point in &points {
        let mut sys = ConstraintSystem::new(space);
        for h in &planes {
            let sign = match h.side(point) {
                Some(Sign::Positive) => Sign::Positive,
                _ => Sign::Negative,
            };
            sys.push_halfspace(h, sign);
        }
        let t = Instant::now();
        let _ = sys.is_feasible();
        lp_total += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let reduced =
            kspr_geometry::polytope::reduce_constraints(sys.constraints(), space.work_dim());
        let _ = Polytope::from_constraints(&reduced, space.work_dim());
        geom_total += t.elapsed().as_secs_f64();
    }
    (lp_total, geom_total)
}

fn fig17(scale: Scale) {
    header(
        "Effect of Lemma 2 (eliminating inconsequential halfspaces)",
        "Figure 17",
    );
    let p = params(scale);
    println!(
        "{:<8} {:>18} {:>18} {:>14} {:>14}",
        "k", "constraints/LP", "constraints/LP", "time (s)", "time (s)"
    );
    println!(
        "{:<8} {:>18} {:>18} {:>14} {:>14}",
        "", "with Lemma 2", "without", "with", "without"
    );
    for &k in &p.k_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, p.d_default, k, 17);
        let focals = w.focals(p.queries);
        let with = measure(
            Algorithm::LpCta,
            &w.dataset,
            &focals,
            k,
            &KsprConfig::default(),
        );
        let without_cfg = KsprConfig {
            use_lemma2: false,
            ..KsprConfig::default()
        };
        let without = measure(Algorithm::LpCta, &w.dataset, &focals, k, &without_cfg);
        println!(
            "{:<8} {:>18.1} {:>18.1} {:>14} {:>14}",
            k,
            with.avg_constraints,
            without.avg_constraints,
            fmt_secs(with.avg_time),
            fmt_secs(without.avg_time)
        );
    }
    println!(
        "expected shape: Lemma 2 sharply cuts the constraint count per LP call and the response time"
    );
}

fn fig18(scale: Scale) {
    header(
        "Effectiveness of record / group / fast bounds in LP-CTA",
        "Figure 18",
    );
    let p = params(scale);
    println!(
        "{:<6} {:>16} {:>16} {:>16}",
        "k", "fast_bounds (s)", "group_bounds (s)", "record_bounds (s)"
    );
    for &k in &p.k_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, p.d_default, k, 18);
        let focals = w.focals(p.queries);
        let fast = measure(
            Algorithm::LpCta,
            &w.dataset,
            &focals,
            k,
            &KsprConfig::with_bound_mode(BoundMode::Fast),
        );
        let group = measure(
            Algorithm::LpCta,
            &w.dataset,
            &focals,
            k,
            &KsprConfig::with_bound_mode(BoundMode::Group),
        );
        let record = measure(
            Algorithm::LpCta,
            &w.dataset,
            &focals,
            k,
            &KsprConfig::with_bound_mode(BoundMode::Record),
        );
        println!(
            "{:<6} {:>16} {:>16} {:>16}",
            k,
            fmt_secs(fast.avg_time),
            fmt_secs(group.avg_time),
            fmt_secs(record.avg_time)
        );
    }
    println!("-- effect of dimensionality (k = {}) --", p.k_default);
    println!(
        "{:<6} {:>16} {:>16} {:>16}",
        "d", "fast_bounds (s)", "group_bounds (s)", "record_bounds (s)"
    );
    for &d in &p.d_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, d, p.k_default, 19);
        let focals = w.focals(p.queries);
        let fast = measure(
            Algorithm::LpCta,
            &w.dataset,
            &focals,
            p.k_default,
            &KsprConfig::with_bound_mode(BoundMode::Fast),
        );
        let group = measure(
            Algorithm::LpCta,
            &w.dataset,
            &focals,
            p.k_default,
            &KsprConfig::with_bound_mode(BoundMode::Group),
        );
        let record = measure(
            Algorithm::LpCta,
            &w.dataset,
            &focals,
            p.k_default,
            &KsprConfig::with_bound_mode(BoundMode::Record),
        );
        println!(
            "{:<6} {:>16} {:>16} {:>16}",
            d,
            fmt_secs(fast.avg_time),
            fmt_secs(group.avg_time),
            fmt_secs(record.avg_time)
        );
    }
    println!("expected shape: fast <= group <= record bounds in response time");
}

// ---------------------------------------------------------------------------
// Appendices
// ---------------------------------------------------------------------------

fn fig19(scale: Scale) {
    header(
        "Disk-based scenario: CPU time + simulated I/O time",
        "Figure 19 (Appendix A)",
    );
    let p = params(scale);
    let config_io = KsprConfig {
        io_model: Some(IoCostModel::default()),
        ..KsprConfig::default()
    };
    println!(
        "{:<6} {:>14} {:>12} {:>14} {:>12}",
        "k", "P-CTA cpu(s)", "P-CTA io(s)", "LP-CTA cpu(s)", "LP-CTA io(s)"
    );
    for &k in &p.k_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, p.d_default, k, 20);
        let focals = w.focals(p.queries);
        let pcta = measure(Algorithm::Pcta, &w.dataset, &focals, k, &config_io);
        let lpcta = measure(Algorithm::LpCta, &w.dataset, &focals, k, &config_io);
        println!(
            "{:<6} {:>14} {:>12.4} {:>14} {:>12.4}",
            k,
            fmt_secs(pcta.avg_time),
            pcta.avg_io_ms / 1000.0,
            fmt_secs(lpcta.avg_time),
            lpcta.avg_io_ms / 1000.0
        );
    }
    println!(
        "expected shape: LP-CTA incurs more I/O (it consults the data index per cell) but lower total time"
    );
}

fn fig20(scale: Scale) {
    header(
        "P-CTA vs the k-skyband approach, varying k",
        "Figure 20 (Appendix B)",
    );
    let p = params(scale);
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>14}",
        "k", "P-CTA rec", "skyband rec", "P-CTA (s)", "skyband (s)"
    );
    for &k in &p.k_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, p.d_default, k, 24);
        let focals = w.focals(p.queries);
        let config = KsprConfig::default();
        let pcta = measure(Algorithm::Pcta, &w.dataset, &focals, k, &config);
        let band = measure(Algorithm::KSkyband, &w.dataset, &focals, k, &config);
        println!(
            "{:<6} {:>14.0} {:>14.0} {:>14} {:>14}",
            k,
            pcta.avg_processed,
            band.avg_processed,
            fmt_secs(pcta.avg_time),
            fmt_secs(band.avg_time)
        );
    }
    println!(
        "expected shape: the k-skyband contains many more records than P-CTA processes, and is slower"
    );
}

fn fig22(scale: Scale) {
    header(
        "Transformed vs original preference space (P-CTA/LP-CTA vs OP-CTA/OLP-CTA)",
        "Figure 22 (Appendix C)",
    );
    let p = params(scale);
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "k", "P-CTA (s)", "OP-CTA (s)", "LP-CTA (s)", "OLP-CTA (s)"
    );
    for &k in &p.k_values {
        let w = Workload::synthetic(Distribution::Independent, p.n_default, p.d_default, k, 25);
        let focals = w.focals(p.queries);
        let transformed = KsprConfig::default();
        let original = KsprConfig::original_space();
        let pcta = measure(Algorithm::Pcta, &w.dataset, &focals, k, &transformed);
        let opcta = measure(Algorithm::Pcta, &w.dataset, &focals, k, &original);
        let lpcta = measure(Algorithm::LpCta, &w.dataset, &focals, k, &transformed);
        let olpcta = measure(Algorithm::LpCta, &w.dataset, &focals, k, &original);
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>12}",
            k,
            fmt_secs(pcta.avg_time),
            fmt_secs(opcta.avg_time),
            fmt_secs(lpcta.avg_time),
            fmt_secs(olpcta.avg_time)
        );
    }
    println!("expected shape: the original-space variants are consistently slower");
}

fn fig23(scale: Scale) {
    header(
        "Index construction cost (aggregate R-tree bulk load)",
        "Figure 23 (Appendix D)",
    );
    let p = params(scale);
    println!("{:<8} {:>18}", "n", "aR-tree build (s)");
    for &n in &p.n_values {
        let raw = kspr_datagen::generate(Distribution::Independent, n, p.d_default, 26);
        let records = Record::from_raw(raw);
        let t = Instant::now();
        let tree = AggregateRTree::bulk_load(records, 32);
        let secs = t.elapsed().as_secs_f64();
        println!("{:<8} {:>18.4}   (nodes: {})", n, secs, tree.num_nodes());
    }
    println!("{:<8} {:>18}", "d", "aR-tree build (s)");
    for &d in &p.d_values {
        let raw = kspr_datagen::generate(Distribution::Independent, p.n_default, d, 27);
        let records = Record::from_raw(raw);
        let t = Instant::now();
        let tree = AggregateRTree::bulk_load(records, 32);
        let secs = t.elapsed().as_secs_f64();
        println!("{:<8} {:>18.4}   (nodes: {})", d, secs, tree.num_nodes());
    }
    println!("expected shape: build time grows linearly with n and mildly with d");
}

fn batch(scale: Scale) {
    header(
        "Batched query serving: sequential loop vs QueryEngine::run_batch",
        "beyond the paper — parallel workers + shared preprocessing (see EXPERIMENTS.md)",
    );
    let p = params(scale);
    let queries = match scale {
        Scale::Quick => 8,
        Scale::Full => 32,
    };
    println!(
        "cores: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{:<10} {:>8} {:>16} {:>16} {:>10}",
        "algorithm", "queries", "sequential (s)", "batch (s)", "speedup"
    );
    let w = Workload::synthetic(
        Distribution::Independent,
        p.n_default,
        p.d_default,
        p.k_default,
        33,
    );
    let focals = w.focals(queries);
    let config = KsprConfig::default();
    let mut rows = Vec::new();
    for alg in [Algorithm::Pcta, Algorithm::LpCta] {
        let seq = measure(alg, &w.dataset, &focals, p.k_default, &config);
        let batch = measure_batch(alg, &w.dataset, &focals, p.k_default, &config);
        let seq_total = seq.avg_time.as_secs_f64() * focals.len() as f64;
        let batch_total = batch.avg_time.as_secs_f64() * focals.len() as f64;
        let speedup = seq_total / batch_total.max(1e-12);
        println!(
            "{:<10} {:>8} {:>16.4} {:>16.4} {:>9.2}x",
            alg.label(),
            focals.len(),
            seq_total,
            batch_total,
            speedup,
        );
        rows.push((
            alg.label(),
            JsonValue::object([
                ("sequential_secs", seq_total.into()),
                ("batch_secs", batch_total.into()),
                ("speedup", speedup.into()),
            ]),
        ));
    }
    println!("expected shape: speedup approaches the core count for CPU-bound workloads");
    emit(
        "batch",
        scale,
        [
            ("n", p.n_default.into()),
            ("d", p.d_default.into()),
            ("k", p.k_default.into()),
            ("queries", focals.len().into()),
            ("algorithms", JsonValue::object(rows)),
        ],
    );
}

fn update(scale: Scale) {
    header(
        "Dynamic updates: incremental insert/delete + re-query vs full rebuild",
        "beyond the paper — mutable DatasetStore + incremental SharedPrep (see EXPERIMENTS.md)",
    );
    let p = params(scale);
    let (n, rounds) = match scale {
        Scale::Quick => (2_000, 3),
        Scale::Full => (10_000, 5),
    };
    let k = p.k_default;
    let w = Workload::synthetic(Distribution::Independent, n, p.d_default, k, 44);
    let config = KsprConfig::default();

    // Two serving mixes.  "lookup": deeply dominated focal records — the
    // common case for uniformly drawn focals, answered from preprocessing
    // alone, so the per-update maintenance cost dominates the cycle.
    // "competitive": skyband-adjacent focal records with non-trivial result
    // regions, where query time itself is substantial on both sides.
    let mixes = [("lookup", w.lookup_focals(8)), ("competitive", w.focals(2))];
    println!(
        "n = {n}, d = {}, k = {k}, {rounds} update rounds",
        p.d_default
    );
    println!(
        "{:<14} {:>8} {:>18} {:>18} {:>10}",
        "query mix", "queries", "incremental (s)", "rebuild (s)", "speedup"
    );
    let mut rows = Vec::new();
    for (label, focals) in mixes {
        let cmp = kspr_bench::measure_update_cycles(
            &w,
            &focals,
            k,
            &config,
            Algorithm::LpCta,
            rounds,
            45,
        );
        let verdict = if label == "lookup" {
            if cmp.speedup() >= 2.0 {
                "  (>= 2x target: PASS)"
            } else {
                "  (>= 2x target: FAIL)"
            }
        } else {
            ""
        };
        println!(
            "{:<14} {:>8} {:>18.4} {:>18.4} {:>9.2}x{verdict}",
            label,
            focals.len(),
            cmp.incremental,
            cmp.rebuild,
            cmp.speedup(),
        );
        rows.push((
            label,
            JsonValue::object([
                ("queries", focals.len().into()),
                ("incremental_secs", cmp.incremental.into()),
                ("rebuild_secs", cmp.rebuild.into()),
                ("speedup", cmp.speedup().into()),
            ]),
        ));
    }
    emit(
        "update",
        scale,
        [
            ("n", n.into()),
            ("d", p.d_default.into()),
            ("k", k.into()),
            ("rounds", rounds.into()),
            ("mixes", JsonValue::object(rows)),
        ],
    );
    println!(
        "expected shape: incremental maintenance is O(log n + band) per insert / non-band delete \
         (a band-member delete adds one targeted O(n) promotion scan) vs O(n log n + n k) per \
         rebuild; steady-state batches recompute zero shared preps (counter-asserted)"
    );
}

fn serve(scale: Scale) {
    use kspr_serve::{ServeOptions, Server, ShardedEngine};
    header(
        "Sharded batch serving: engine pool + merged candidate union vs one engine",
        "beyond the paper — kspr-serve front-end (see EXPERIMENTS.md)",
    );
    let p = params(scale);
    let (n, queries, comp_rounds, lookup_rounds) = match scale {
        Scale::Quick => (4_000, 8, 2, 20),
        Scale::Full => (20_000, 32, 3, 20),
    };
    let k = p.k_default;
    let w = Workload::synthetic(Distribution::Independent, n, p.d_default, k, 77);
    let config = KsprConfig::default();

    // Two serving mixes, mirroring the `update` experiment.  "steady-state":
    // deeply dominated focal records — the common case for uniformly drawn
    // focals, where the per-query O(n) preprocessing dominates and the merged
    // candidate union pays off directly.  "competitive": skyband-adjacent
    // focals whose arrangement traversal (identical on both sides) dominates;
    // the sharded gain is correspondingly small.
    let mixes = [
        ("steady-state", w.lookup_focals(2 * queries), lookup_rounds),
        ("competitive", w.focals(queries), comp_rounds),
    ];
    println!("n = {n}, d = {}, k = {k}, LP-CTA", p.d_default);
    println!(
        "{:<14} {:<8} {:>12} {:>16} {:>16} {:>10}",
        "query mix", "shards", "candidates", "1-engine (s)", "sharded (s)", "speedup"
    );
    for (label, focals, rounds) in &mixes {
        for shards in [1usize, 2, 4, 8] {
            let cmp = kspr_bench::measure_sharded_serving(
                &w,
                focals,
                k,
                &config,
                Algorithm::LpCta,
                shards,
                *rounds,
            );
            let verdict = if *label == "steady-state" && shards == 4 {
                if cmp.speedup() >= 1.5 {
                    "  (>= 1.5x target: PASS)"
                } else {
                    "  (>= 1.5x target: FAIL)"
                }
            } else {
                ""
            };
            println!(
                "{:<14} {:<8} {:>12} {:>16.4} {:>16.4} {:>9.2}x{verdict}",
                label,
                shards,
                if shards == 1 {
                    format!("{} (passthru)", cmp.records)
                } else {
                    cmp.candidates.to_string()
                },
                cmp.single,
                cmp.sharded,
                cmp.speedup(),
            );
        }
    }
    let focals = w.focals(queries);

    // The full front-end, per shard count: a request queue over the sharded
    // pool, including a stream of updates interleaved with the query batches
    // — the wire-facing qps the service actually delivers.
    println!(
        "front-end   {:<8} {:>10} {:>12} {:>16} {:>14}",
        "shards", "queries", "updates", "elapsed (s)", "qps"
    );
    let mut points = Vec::new();
    let mut last_tombstones = (0usize, 0.0f64);
    for shards in [1usize, 2, 4, 8] {
        let engine = ShardedEngine::new(w.raw.clone(), KsprConfig::default().with_shards(shards));
        let server = Server::start(engine, ServeOptions::default());
        let handle = server.handle();
        let start = Instant::now();
        let mut answered = 0usize;
        for round in 0..comp_rounds {
            let tickets = handle.submit_many(focals.clone(), k);
            let id = handle
                .insert(vec![0.5 + 0.001 * round as f64; p.d_default])
                .wait()
                .expect("insert");
            for t in tickets {
                t.wait().expect("query");
                answered += 1;
            }
            handle.delete(id).wait().expect("delete");
        }
        let elapsed = start.elapsed().as_secs_f64();
        let (engine, stats) = server.shutdown();
        let qps = answered as f64 / elapsed.max(1e-12);
        println!(
            "            {:<8} {:>10} {:>12} {:>16.3} {:>14.1}",
            shards, answered, stats.updates, elapsed, qps
        );
        points.push(JsonValue::object([
            ("shards", shards.into()),
            ("queries", answered.into()),
            ("qps", qps.into()),
            ("run_batch_calls", stats.batches.into()),
            ("largest_batch", stats.largest_batch.into()),
        ]));
        last_tombstones = (engine.tombstone_count(), engine.tombstone_ratio());
    }
    report_tombstones(last_tombstones.0, last_tombstones.1);

    // Admission control under the same burst: a zero-width degradation
    // watermark answers every tiered query approximately, a zero hard limit
    // sheds every query, and a zero per-client quota rejects per client —
    // each decision shows up in the serving counters.
    let burst = focals.len();
    let admission_engine =
        || ShardedEngine::new(w.raw.clone(), KsprConfig::default().with_shards(4));
    let mut degrade = ServeOptions::default();
    degrade.admission.degrade_watermark = 0;
    let server = Server::start(admission_engine(), degrade);
    let handle = server.handle();
    let tickets: Vec<_> = focals
        .iter()
        .map(|f| handle.submit_tiered(Algorithm::LpCta, f.clone(), k, kspr::QueryTier::Exact))
        .collect();
    for t in tickets {
        t.wait().expect("degraded query");
    }
    let (_, degraded_stats) = server.shutdown();
    assert_eq!(degraded_stats.degraded_to_approx, burst as u64);

    let mut shed = ServeOptions::default();
    shed.admission.hard_limit = 0;
    let server = Server::start(admission_engine(), shed);
    let handle = server.handle();
    let tickets: Vec<_> = focals.iter().map(|f| handle.submit(f.clone(), k)).collect();
    let rejected = tickets
        .into_iter()
        .map(|t| t.wait())
        .filter(Result::is_err)
        .count();
    let (_, shed_stats) = server.shutdown();
    assert_eq!(shed_stats.rejections.overloaded, burst as u64);
    assert_eq!(rejected, burst);

    println!(
        "admission: watermark 0 degraded {}/{burst} tiered queries to the approximate tier; \
         hard limit 0 shed {}/{burst} with Overloaded",
        degraded_stats.degraded_to_approx, shed_stats.rejections.overloaded,
    );
    println!(
        "expected shape: sharding prunes the per-query preprocessing to the union of \
         per-shard k-skybands — >= 1.5x at 4 shards on the steady-state batch workload; \
         competitive queries are arrangement-bound, so their gain is small"
    );
    emit(
        "serve",
        scale,
        [
            ("n", n.into()),
            ("d", p.d_default.into()),
            ("k", k.into()),
            ("algorithm", "LPCTA".into()),
            (
                "workload",
                "submit_many batches interleaved with insert/delete pairs".into(),
            ),
            ("shard_scaling", JsonValue::Array(points)),
            (
                "admission",
                JsonValue::object([
                    ("burst", burst.into()),
                    (
                        "degraded_to_approx",
                        degraded_stats.degraded_to_approx.into(),
                    ),
                    (
                        "rejected_overloaded",
                        shed_stats.rejections.overloaded.into(),
                    ),
                ]),
            ),
        ],
    );
}

/// The `recovery` experiment: what durability costs while serving (WAL
/// commit per update batch, fsync included) and what a crash costs at
/// restart (snapshot load + WAL replay + standing-query re-registration).
fn recovery(scale: Scale) {
    use kspr_durable::{DurableStore, Registration, SnapshotState, WalRecord};
    use kspr_serve::{ServeOptions, Server, ShardedEngine};
    header(
        "Durable serving: WAL commit overhead and crash-recovery replay",
        "beyond the paper — kspr-durable WAL/snapshot store (see EXPERIMENTS.md)",
    );
    let p = params(scale);
    let (n, updates, standing) = match scale {
        Scale::Quick => (2_000, 300usize, 8),
        Scale::Full => (20_000, 3_000, 64),
    };
    let w = Workload::synthetic(Distribution::Independent, n, p.d_default, p.k_default, 177);
    let config = KsprConfig::default().with_shards(4);
    let dir = std::env::temp_dir().join(format!("kspr-recovery-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- WAL overhead: the same update stream, volatile vs durable ---
    let run_updates = |server: &Server| {
        let handle = server.handle();
        let start = Instant::now();
        for i in 0..updates {
            let id = handle
                .insert(vec![0.4 + 0.0001 * (i % 100) as f64; p.d_default])
                .wait()
                .expect("insert");
            if i % 2 == 1 {
                handle.delete(id).wait().expect("delete");
            }
        }
        start.elapsed().as_secs_f64()
    };
    let volatile = Server::start(
        ShardedEngine::new(w.raw.clone(), config.clone()),
        ServeOptions::default(),
    );
    let volatile_secs = run_updates(&volatile);
    volatile.shutdown();
    let durable = Server::start_durable(
        ShardedEngine::new(w.raw.clone(), config.clone()),
        ServeOptions::default(),
        &dir,
    )
    .expect("open durable server");
    let durable_secs = run_updates(&durable);
    let (_, stats) = durable.shutdown();
    println!(
        "{updates} updates over n = {n}: volatile {volatile_secs:.3}s, durable {durable_secs:.3}s \
         ({:.2}x, {} WAL commits, {} snapshots)",
        durable_secs / volatile_secs.max(1e-12),
        stats.wal_commits,
        stats.snapshots,
    );

    // --- Crash recovery: a snapshot plus a WAL tail that must replay ---
    // Built directly through the store (a clean shutdown would truncate the
    // WAL): every update and registration after the snapshot is a log
    // record, exactly what a crash mid-serving leaves behind.
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableStore::open(&dir).expect("open store");
    let mut engine = ShardedEngine::new(w.raw.clone(), config.clone());
    store
        .install_snapshot(&SnapshotState {
            dim: engine.dim(),
            num_shards: engine.num_shards(),
            next_shard: engine.routing_cursor(),
            shard_epochs: engine.export_epochs(),
            slots: engine.export_slots(),
            monitor_next_id: 0,
            registrations: (0..standing as u64)
                .map(|id| Registration {
                    id,
                    algorithm: Algorithm::LpCta,
                    focal: w.raw[id as usize % w.raw.len()].clone(),
                    k: p.k_default,
                })
                .collect(),
        })
        .expect("install snapshot");
    let mut writer = store.wal_writer(false).expect("open WAL");
    for i in 0..updates {
        let id = engine.insert(vec![0.4 + 0.0001 * (i % 100) as f64; p.d_default]);
        writer.append(&WalRecord::Insert {
            id,
            values: vec![0.4 + 0.0001 * (i % 100) as f64; p.d_default],
        });
        if i % 2 == 1 {
            engine.delete(id);
            writer.append(&WalRecord::Delete { id });
        }
    }
    writer.commit().expect("commit WAL");
    drop(writer);
    let wal_bytes = std::fs::metadata(store.wal_path())
        .map(|m| m.len())
        .unwrap_or(0);
    drop(store);

    let start = Instant::now();
    let server = Server::recover(&dir, config, ServeOptions::default()).expect("recover");
    let recover_secs = start.elapsed().as_secs_f64();
    let handle = server.handle();
    assert_eq!(handle.subscriptions().wait(), Ok(standing));
    let focal = w.focals(1).pop().expect("focal");
    handle
        .submit(focal, p.k_default)
        .wait()
        .expect("first post-recovery query");
    let (recovered, _) = server.shutdown();
    assert_eq!(recovered.len(), engine.len());
    println!(
        "recovery: snapshot(n = {n}) + {} WAL records ({wal_bytes} bytes) + {standing} standing \
         queries re-registered in {recover_secs:.3}s",
        updates + updates / 2,
    );
    println!(
        "expected shape: durable serving stays within a small factor of volatile (one \
         write+fsync per update batch); recovery is replay-bound, linear in the WAL tail"
    );
    let _ = std::fs::remove_dir_all(&dir);
    emit(
        "recovery",
        scale,
        [
            ("n", n.into()),
            ("d", p.d_default.into()),
            ("updates", updates.into()),
            ("volatile_secs", volatile_secs.into()),
            ("durable_secs", durable_secs.into()),
            (
                "durable_overhead",
                (durable_secs / volatile_secs.max(1e-12)).into(),
            ),
            ("wal_commits", stats.wal_commits.into()),
            ("replayed_wal_bytes", wal_bytes.into()),
            ("standing_reregistered", standing.into()),
            ("recover_secs", recover_secs.into()),
        ],
    );
}

/// Prints the live/tombstone slot accounting of a long-running engine.
/// Deleted slots are tombstoned for id stability; the serving dispatcher
/// compacts the store (`ShardedEngine::compact` — shards rewritten down to
/// their live records, dead ids kept allocated but unroutable) once
/// tombstones exceed 50% of all record slots, so a delete-heavy stream
/// hovers below that bound between dispatcher passes.
fn report_tombstones(tombstones: usize, ratio: f64) {
    println!(
        "tombstoned record slots: {tombstones} ({:.1}% of all slots)",
        100.0 * ratio
    );
    if ratio > 0.5 {
        println!(
            "[compaction pending] tombstones exceed 50% of record slots — the serving \
             dispatcher compacts after its next update batch; offline engines can \
             call compact() directly"
        );
    }
}

fn monitor(scale: Scale) {
    use kspr_serve::{ServeOptions, Server, ShardedEngine};
    header(
        "Standing queries: monitor patching vs naive re-run per update",
        "beyond the paper — kspr-monitor standing-query subsystem (see EXPERIMENTS.md)",
    );
    let p = params(scale);
    let (n, rounds) = match scale {
        Scale::Quick => (4_000, 4),
        Scale::Full => (10_000, 8),
    };
    let k = p.k_default;
    let w = Workload::synthetic(Distribution::Independent, n, p.d_default, k, 88);
    let config = KsprConfig::default();

    // Standing-query mixes.  "lookup": deeply dominated focal records under
    // LP-CTA — empty results whose classification is a pair of dominance
    // tests per update.  "competitive": skyband-adjacent focals under the
    // schedule-invariant P-CTA policy, whose region-rich results survive
    // witnessed updates without a rerun.  "competitive·lpcta": the same
    // focals under LP-CTA, whose bound traversals are restricted to the
    // witness skyband so witnessed updates classify away too.
    // "mixed" is the serving blend the kspr-bench lib test gates at >= 2x.
    let lpcta = |f: Vec<Vec<f64>>| -> Vec<(Algorithm, Vec<f64>)> {
        f.into_iter().map(|f| (Algorithm::LpCta, f)).collect()
    };
    let pcta = |f: Vec<Vec<f64>>| -> Vec<(Algorithm, Vec<f64>)> {
        f.into_iter().map(|f| (Algorithm::Pcta, f)).collect()
    };
    let mut mixed = lpcta(w.lookup_focals(12));
    mixed.extend(pcta(w.focals(2)));
    let mixes = [
        ("lookup", lpcta(w.lookup_focals(16))),
        ("competitive", pcta(w.focals(2))),
        ("competitive·lpcta", lpcta(w.focals(2))),
        ("mixed", mixed),
    ];
    println!(
        "n = {n}, d = {}, k = {k}, {rounds} update rounds",
        p.d_default
    );
    println!(
        "{:<18} {:>8} {:>17} {:>15} {:>10}   classification (unaffected/patched/rerun)",
        "standing mix", "queries", "patched (s/upd)", "naive (s/upd)", "speedup"
    );
    for (label, queries) in &mixes {
        let cmp = kspr_bench::measure_monitor_refresh(&w, queries, k, &config, rounds, 89);
        let verdict = if *label == "mixed" {
            if cmp.speedup() >= 2.0 {
                "  (>= 2x target: PASS)"
            } else {
                "  (>= 2x target: FAIL)"
            }
        } else {
            ""
        };
        println!(
            "{:<18} {:>8} {:>17.6} {:>15.6} {:>9.2}x   {}/{}/{}{verdict}",
            label,
            cmp.queries,
            cmp.patched,
            cmp.naive,
            cmp.speedup(),
            cmp.stats.unaffected,
            cmp.stats.patched,
            cmp.stats.reruns,
        );
    }

    // Registry scaling: the subscription-scale path.  The same mixed
    // registry (four CellTree policies, k cycling 1..=8) is maintained
    // through the spatially indexed registry in dispatcher-sized batches and
    // through the pre-index full scan, at growing registry sizes.
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![100, 1_000, 10_000],
        Scale::Full => vec![100, 1_000, 10_000, 100_000],
    };
    let sweep_rounds = match scale {
        Scale::Quick => 8,
        Scale::Full => 12,
    };
    let max_k = 8;
    println!();
    println!(
        "Registry scaling: indexed + batched maintenance vs full-scan per update \
         (batch window {}, {} update rounds)",
        kspr_serve::MAINTENANCE_WINDOW,
        sweep_rounds
    );
    println!(
        "{:<10} {:>8} {:>17} {:>19} {:>9} {:>15} {:>15}",
        "queries",
        "updates",
        "indexed (s/upd)",
        "full scan (s/upd)",
        "speedup",
        "visited/upd",
        "pruned/upd"
    );
    let mut points = Vec::new();
    for &size in &sizes {
        let point =
            kspr_bench::measure_registry_scaling(&w, size, max_k, &config, sweep_rounds, 95);
        println!(
            "{:<10} {:>8} {:>17.8} {:>19.8} {:>8.1}x {:>15.1} {:>15.1}",
            point.registered,
            point.updates,
            point.indexed,
            point.full_scan,
            point.speedup(),
            point.visited_per_update(),
            point.pruned_per_update(),
        );
        points.push(JsonValue::object([
            ("queries", point.registered.into()),
            ("updates", point.updates.into()),
            ("batch", point.batch.into()),
            ("indexed_secs_per_update", point.indexed.into()),
            ("full_scan_secs_per_update", point.full_scan.into()),
            ("speedup", point.speedup().into()),
            ("visited_per_update", point.visited_per_update().into()),
            ("index_pruned_per_update", point.pruned_per_update().into()),
        ]));
    }
    println!(
        "expected shape: full-scan cost grows linearly with the registry while the \
         indexed walk stays near-flat (visited/update is a vanishing fraction of the \
         registry), so the gap widens ~10x per decade; >= 10x at 10^4 is the \
         kspr-bench lib gate"
    );
    emit(
        "monitor",
        scale,
        [
            ("n", n.into()),
            ("d", p.d_default.into()),
            ("max_k", max_k.into()),
            ("batch_window", kspr_serve::MAINTENANCE_WINDOW.into()),
            (
                "algorithms",
                vec!["LPCTA", "PCTA", "CTA", "KSKYBAND"].into(),
            ),
            (
                "baseline",
                "full-scan registry classified after every single update".into(),
            ),
            ("points", JsonValue::Array(points)),
        ],
    );

    // The serving front-end: subscriptions streaming result deltas through
    // the dispatcher while updates flow, serialized with the update stream.
    let engine = ShardedEngine::new(w.raw.clone(), config.with_shards(4));
    let server = Server::start(engine, ServeOptions::default());
    let handle = server.handle();
    let subs: Vec<_> = w
        .focals(4)
        .into_iter()
        .map(|f| {
            handle
                .subscribe_with(Algorithm::Pcta, f, k)
                .wait()
                .expect("subscribe")
        })
        .collect();
    let start = Instant::now();
    for round in 0..rounds {
        let id = handle
            .insert(vec![0.5 + 0.001 * round as f64; p.d_default])
            .wait()
            .expect("insert");
        handle.delete(id).wait().expect("delete");
    }
    // A burst of dominators beats every watched option at once: each
    // subscription sees its regions shrink, then recover.
    let strong = handle
        .insert(vec![0.99; p.d_default])
        .wait()
        .expect("insert");
    handle.delete(strong).wait().expect("delete");
    // Serialize behind the updates so every notification is delivered.
    let registered = handle.subscriptions().wait().expect("registry size");
    let elapsed = start.elapsed().as_secs_f64();
    let polled: usize = subs.iter().map(|s| s.poll().len()).sum();
    drop(subs);
    let after_drop = handle.subscriptions().wait().expect("registry size");
    let (_, stats) = server.shutdown();
    println!(
        "front-end (4 shards): {registered} subscriptions, {} updates in {elapsed:.3}s, \
         {polled} deltas polled ({} delivered), registry after drops: {after_drop}",
        stats.updates, stats.notifications,
    );
    println!(
        "dispatcher classification: {} unaffected / {} patched / {} reruns",
        stats.monitor.unaffected, stats.monitor.patched, stats.monitor.reruns,
    );
    println!(
        "expected shape: witnessed updates classify away in microseconds, so patching \
         beats naive re-running by an order of magnitude on lookup-heavy registries; \
         LP-CTA rides along since its bound traversals are witness-skyband restricted"
    );
}

fn approx(scale: Scale) {
    use kspr::{ErrorBudget, QueryTier};
    use kspr_serve::{ServeOptions, Server, ShardedEngine};
    header(
        "Approximate tier: the speed/quality frontier and Auto routing",
        "beyond the paper — kspr-approx guaranteed-error estimates (see EXPERIMENTS.md)",
    );
    let p = params(scale);
    let (n, k, rounds) = match scale {
        Scale::Quick => (3_000, 15, 1),
        Scale::Full => (10_000, 30, 2),
    };
    let w = Workload::synthetic(Distribution::Independent, n, p.d_default, k, 83);
    let config = KsprConfig::default();

    // The frontier: samples vs. error vs. speedup over exact LP-CTA, for
    // the two serving mixes.  "lookup" focals are answered by the exact
    // engine from preprocessing alone (the honest boundary where sampling's
    // fixed cost can lose); "competitive" focals are arrangement-bound —
    // the regime the approximate tier exists for.
    let mixes = [("lookup", w.lookup_focals(4)), ("competitive", w.focals(2))];
    println!("n = {n}, d = {}, k = {k}, confidence 95%", p.d_default);
    println!(
        "{:<14} {:>8} {:>9} {:>12} {:>13} {:>13} {:>9} {:>10}",
        "query mix",
        "epsilon",
        "samples",
        "candidates",
        "exact (s)",
        "approx (s)",
        "speedup",
        "max err"
    );
    let mut frontier = Vec::new();
    for (label, focals) in &mixes {
        let mut rows = Vec::new();
        for eps in [0.1, 0.05, 0.02] {
            let budget = ErrorBudget::new(eps, 0.95);
            let cmp =
                kspr_bench::measure_approx_frontier(&w, focals, k, &config, &budget, rounds, 85);
            let verdict = if *label == "competitive" && eps == 0.05 {
                if cmp.speedup() >= 5.0 {
                    "  (>= 5x target: PASS)"
                } else {
                    "  (>= 5x target: FAIL)"
                }
            } else {
                ""
            };
            println!(
                "{:<14} {:>8} {:>9} {:>12} {:>13.4} {:>13.4} {:>8.2}x {:>10.4}{verdict}",
                label,
                eps,
                cmp.samples,
                cmp.candidates,
                cmp.exact,
                cmp.approx,
                cmp.speedup(),
                cmp.max_error,
            );
            rows.push(JsonValue::object([
                ("epsilon", eps.into()),
                ("samples", cmp.samples.into()),
                ("candidates", cmp.candidates.into()),
                ("exact_secs", cmp.exact.into()),
                ("approx_secs", cmp.approx.into()),
                ("speedup", cmp.speedup().into()),
                ("max_error", cmp.max_error.into()),
            ]));
        }
        frontier.push((*label, JsonValue::Array(rows)));
    }
    emit(
        "approx",
        scale,
        [
            ("n", n.into()),
            ("d", p.d_default.into()),
            ("k", k.into()),
            ("confidence", 0.95.into()),
            ("frontier", JsonValue::object(frontier)),
        ],
    );

    // Auto routing: the arrangement-cost estimate (band^work_dim) against
    // the default threshold, across (k, d).  Small k / low d stay exact;
    // arrangement-bound combinations fall back to sampling.
    println!(
        "\nAuto routing (cost = band^(d-1) vs threshold {:.0e}):",
        QueryTier::DEFAULT_COST_THRESHOLD
    );
    println!(
        "{:<6} {:<6} {:>14} {:>10}",
        "d", "k", "est. cost", "routes to"
    );
    for d in [3, p.d_default] {
        for k_probe in [2, k] {
            let wd = Workload::synthetic(Distribution::Independent, n, d, k_probe, 87);
            let engine = kspr::QueryEngine::new(&wd.dataset, config.clone());
            let cost = kspr_approx::estimated_cost(&engine, k_probe);
            let routed = if cost <= QueryTier::DEFAULT_COST_THRESHOLD {
                "exact"
            } else {
                "sampling"
            };
            println!("{:<6} {:<6} {:>14.3e} {:>10}", d, k_probe, cost, routed);
        }
    }

    // The serving front-end: mixed exact/approx/auto submissions, with the
    // per-tier counters the dispatcher reports.
    let budget = ErrorBudget::new(0.05, 0.95);
    let engine = ShardedEngine::new(w.raw.clone(), config.with_shards(4));
    let server = Server::start(engine, ServeOptions::default());
    let handle = server.handle();
    let focals = w.focals(4);
    let start = Instant::now();
    let exact_tickets: Vec<_> = focals.iter().map(|f| handle.submit(f.clone(), k)).collect();
    let approx_tickets: Vec<_> = focals
        .iter()
        .map(|f| handle.submit_approx(f.clone(), k, budget))
        .collect();
    let auto_tickets: Vec<_> = focals
        .iter()
        .map(|f| {
            handle.submit_tiered(
                kspr::Algorithm::LpCta,
                f.clone(),
                k,
                QueryTier::auto(budget),
            )
        })
        .collect();
    for t in exact_tickets {
        t.wait().expect("exact query");
    }
    for t in approx_tickets {
        t.wait().expect("approx query");
    }
    for t in auto_tickets {
        t.wait().expect("auto query");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let (_, stats) = server.shutdown();
    println!(
        "\nfront-end (4 shards): {} queries in {elapsed:.3}s — {} exact / {} approx \
         (auto routed {} exact, {} sampling), {} batches",
        stats.queries,
        stats.exact_queries,
        stats.approx_queries,
        stats.auto_routed_exact,
        stats.auto_routed_approx,
        stats.batches,
    );
    println!(
        "expected shape: the estimate meets the epsilon budget at the Hoeffding sample \
         count; arrangement-bound competitive queries gain >= 5x at eps = 0.05 while \
         lookup queries stay with the (already cheap) exact engine under Auto routing"
    );
}

fn scale_label(scale: Scale) -> &'static str {
    if scale == Scale::Full {
        "full"
    } else {
        "quick"
    }
}

/// Writes one experiment's section — `fields` after the `scale` and
/// `cores` tags — into `BENCH_perf.json` in the working directory (the repo
/// root when run via `cargo run`) and exits non-zero when that fails, so a
/// stale committed section never passes for a fresh one.
fn emit(section: &str, scale: Scale, fields: impl IntoIterator<Item = (&'static str, JsonValue)>) {
    let path = std::path::Path::new("BENCH_perf.json");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let body = JsonValue::object(
        [
            ("scale", scale_label(scale).into()),
            ("cores", cores.into()),
        ]
        .into_iter()
        .chain(fields),
    );
    match kspr_bench::write_bench_perf_section(path, section, body) {
        Ok(()) => eprintln!("[{section}] wrote {}", path.display()),
        Err(err) => {
            eprintln!("[{section}] could not write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
}

fn fig24(scale: Scale) {
    header(
        "Amortized response time (index construction amortized over the query workload)",
        "Figure 24 (Appendix D)",
    );
    let p = params(scale);
    println!(
        "{:<8} {:>14} {:>20}",
        "n", "LP-CTA (s)", "LP-CTA+amortized (s)"
    );
    for &n in &p.n_values {
        let raw = kspr_datagen::generate(Distribution::Independent, n, p.d_default, 28);
        let t = Instant::now();
        let w = Workload::from_raw("IND", raw, p.k_default);
        let build = t.elapsed().as_secs_f64();
        let focals = w.focals(p.queries);
        let m = measure(
            Algorithm::LpCta,
            &w.dataset,
            &focals,
            p.k_default,
            &KsprConfig::default(),
        );
        // The paper amortizes one index build over a 1000-query workload.
        let amortized = m.avg_time.as_secs_f64() + build / 1000.0;
        println!("{:<8} {:>14} {:>20.4}", n, fmt_secs(m.avg_time), amortized);
    }
    println!(
        "expected shape: amortizing the one-off index construction changes response times only marginally"
    );
}
