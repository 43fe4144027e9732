//! CLI harness regenerating the paper's figures.
//!
//! ```text
//! figures <fig6|fig7|fig8|fig9|fig10|fig11|update_methods|home|fabric|schedules|all>
//!         [--class s|w|a] [--nodes 1,2,4,8] [--scale F] [--with-mpi]
//!         [--quick] [--csv DIR]
//! ```
//!
//! Prints markdown tables whose series correspond one-to-one to the
//! paper's plots; `--csv DIR` additionally writes CSV files.

use parade_bench::{
    ablation_fabric, ablation_home, ablation_schedules, all_figures, fig10, fig11, fig6, fig7,
    fig8, fig9, serve_soak, trace_breakdown, update_methods, write_tables_json, FigureOpts, Table,
};

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig6|fig7|fig8|fig9|fig10|fig11|update_methods|home|fabric|schedules|trace|serve-soak|all> \
         [--class s|w|a] [--nodes 1,2,4,8] [--scale F] [--with-mpi] [--quick] [--csv DIR]\n\
         trace: traced smoke run — writes a Chrome trace (PARADE_TRACE, default \
         parade_trace.json), validates it, prints the breakdown\n\
         serve-soak: the multi-job serving layer under scheduled node deaths \
         and a lossy wire (PARADE_CHAOS or the pinned schedule) — 1000 jobs \
         (120 with --quick) must complete exactly once, bit-identical to their \
         sequential references, with at least one checkpoint re-home"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let what = args[0].clone();
    let mut opts = FigureOpts::default();
    let mut csv_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--class" => {
                i += 1;
                opts.class = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .chars()
                    .next()
                    .unwrap();
            }
            "--nodes" => {
                i += 1;
                opts.nodes = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|s| s.parse().expect("bad node count"))
                    .collect();
            }
            "--scale" => {
                i += 1;
                opts.cpu_scale = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .parse()
                    .expect("bad scale");
            }
            "--with-mpi" => opts.with_mpi = true,
            "--quick" => {
                let keep_class = opts.class;
                opts = FigureOpts {
                    nodes: opts.nodes.clone(),
                    with_mpi: opts.with_mpi,
                    cpu_scale: opts.cpu_scale,
                    ..FigureOpts::quick()
                };
                if keep_class != 'w' {
                    opts.class = keep_class;
                }
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            _ => usage(),
        }
        i += 1;
    }

    let tables: Vec<Table> = match what.as_str() {
        "fig6" => vec![fig6(&opts)],
        "fig7" => vec![fig7(&opts)],
        "fig8" => vec![fig8(&opts)],
        "fig9" => vec![fig9(&opts)],
        "fig10" => vec![fig10(&opts)],
        "fig11" => vec![fig11(&opts)],
        "update_methods" => vec![update_methods(&opts)],
        "home" => vec![ablation_home(&opts)],
        "fabric" => vec![ablation_fabric(&opts)],
        "schedules" => vec![ablation_schedules(&opts)],
        "all" => all_figures(&opts),
        // The traced run and the soak fail closed: any divergence exits 1.
        smoke => {
            let run: fn(&FigureOpts) -> Result<Vec<Table>, String> = match smoke {
                "trace" => trace_breakdown,
                "serve-soak" | "serve_soak" => serve_soak,
                _ => usage(),
            };
            run(&opts).unwrap_or_else(|e| {
                eprintln!("figures {what}: {e}");
                std::process::exit(1);
            })
        }
    };

    for t in &tables {
        println!("{}", t.markdown());
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let slug: String = t
                .title
                .chars()
                .take(40)
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            std::fs::write(format!("{dir}/{slug}.csv"), t.csv()).expect("write csv");
        }
    }
    write_tables_json(&format!("figures_{what}"), &tables);
}
