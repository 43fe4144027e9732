//! CLI harness regenerating the paper's figures.
//!
//! ```text
//! figures <fig6|fig7|fig8|fig9|fig10|fig11|update_methods|home|fabric|schedules|all>
//!         [--class s|w|a] [--nodes 1,2,4,8] [--quick]
//! ```
//!
//! Prints markdown tables whose series correspond one-to-one to the
//! paper's plots.

use parade_kernels::figures::{
    ablation_fabric, ablation_home, ablation_schedules, all_figures, fig10, fig11, fig6, fig7,
    fig8, fig9, update_methods, FigureOpts, Table,
};

fn usage() -> ! {
    eprintln!(
        "usage: figures <fig6|fig7|fig8|fig9|fig10|fig11|update_methods|home|fabric|schedules|all> \
         [--class s|w|a] [--nodes 1,2,4,8] [--quick]"
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
            "--quick" => {
                let keep_class = opts.class;
                opts = FigureOpts {
                    nodes: opts.nodes.clone(),
                    ..FigureOpts::quick()
                };
                if keep_class != 'w' {
                    opts.class = keep_class;
                }
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
        _ => usage(),
    };
    for t in &tables {
        println!("{}", t.markdown());
    }
}
