//! `experiments` — regenerate any table or figure of the paper's
//! evaluation (Sec. 5) by name. Each runner prints a banner and the
//! rows/series the paper reports; EXPERIMENTS.md records
//! paper-vs-measured values.
//!
//! ```sh
//! experiments --list
//! experiments fig1 fig6
//! experiments table2 fidelity --traces 8
//! experiments fig10 --imagenet-scale 1.0
//! experiments all
//! ```
//!
//! - `--list`: print the registry (name, paper artifact) and exit.
//! - `--traces N`: traces averaged by the simulation sweeps, 1–16
//!   (default: a quick per-experiment setting; the paper averages 8).
//! - `--imagenet-scale F`: fraction of the full ImageNet job `fig10`
//!   runs, 0.01–1.0 (default 0.25).
//!
//! Telemetry follows the process-wide `POLLUX_TELEMETRY_OUT` capture
//! like every other experiment driver; `telemetry-report` summarizes
//! it.

use pollux_experiments::common::{capture_recorder, exit_on_error, finish_capture, flag_value};
use pollux_experiments::{
    ablations, fidelity, fig1, fig10, fig2, fig3, fig6, fig7, fig8, fig9, table2, table3,
};
use std::sync::OnceLock;

/// The two command-line settings, parsed once in `main`.
struct Settings {
    traces: Option<u64>,
    imagenet_scale: f64,
}

impl Settings {
    /// `--traces`, or the experiment's quick default.
    fn traces(&self, quick_default: u64) -> u64 {
        self.traces.unwrap_or(quick_default)
    }
}

/// One registry entry: a stable name, the banner line, and the runner.
struct Experiment {
    name: &'static str,
    banner: &'static str,
    run: fn(&Settings),
}

static REGISTRY: &[Experiment] = &[
    Experiment {
        name: "fig1",
        banner: "Fig 1 — trade-offs between batch size, scalability, training stage",
        run: |_| println!("{}", fig1::run()),
    },
    Experiment {
        name: "fig2",
        banner: "Fig 2 — statistical efficiency (ImageNet profile + real gradients)",
        run: |_| println!("{}", fig2::run()),
    },
    Experiment {
        name: "fig3",
        banner: "Fig 3 — throughput model fit (ResNet-50/ImageNet)",
        run: |_| println!("{}", fig3::run(0.05, 1)),
    },
    Experiment {
        name: "fig6",
        banner: "Fig 6 — workload submissions per hour",
        run: |_| println!("{}", fig6::run(8)),
    },
    Experiment {
        name: "table2",
        banner: "Table 2 — Pollux vs Optimus+Oracle vs Tiresias+TunedJobs",
        run: |s| println!("{}", table2_result(s)),
    },
    Experiment {
        name: "fidelity",
        banner: "Sec 5.3 — simulator fidelity (JCT reduction factors)",
        run: |s| match fidelity::from_table2(table2_result(s)) {
            Some(f) => println!("{f}"),
            None => println!("insufficient data"),
        },
    },
    Experiment {
        name: "fig7",
        banner: "Fig 7 — workloads with realistic (user-configured) jobs",
        run: |s| println!("{}", exit_on_error(fig7::run(s.traces(2)))),
    },
    Experiment {
        name: "fig8",
        banner: "Fig 8 — sensitivity to job load",
        run: |s| println!("{}", exit_on_error(fig8::run(s.traces(1)))),
    },
    Experiment {
        name: "table3",
        banner: "Table 3 — impact of job weights (λ)",
        run: |s| println!("{}", exit_on_error(table3::run(s.traces(1)))),
    },
    Experiment {
        name: "fig9",
        banner: "Fig 9 — impact of interference avoidance",
        run: |s| println!("{}", exit_on_error(fig9::run(s.traces(1)))),
    },
    Experiment {
        name: "fig10",
        banner: "Fig 10 — goodput-driven cloud auto-scaling (ImageNet)",
        run: |s| {
            println!("(ImageNet job scaled to {} of full size)", s.imagenet_scale);
            println!("{}", fig10::run(s.imagenet_scale));
        },
    },
    Experiment {
        name: "ablations",
        banner: "Ablations — overlap model, restart penalty, GA vs random search",
        run: |_| println!("{}", ablations::run(7)),
    },
];

/// The Table 2 sweep, run at most once per process: `fidelity` derives
/// its factors from the same result `table2` prints.
fn table2_result(s: &Settings) -> &'static table2::Table2Result {
    static RESULT: OnceLock<table2::Table2Result> = OnceLock::new();
    RESULT.get_or_init(|| exit_on_error(table2::run(s.traces(2))))
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}; usage: experiments [--list] [--traces N] [--imagenet-scale F] <name|all>...");
    std::process::exit(2);
}

fn main() {
    let mut settings = Settings {
        traces: None,
        imagenet_scale: 0.25,
    };
    let mut list = false;
    let mut selected: Vec<&Experiment> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--traces" => {
                settings.traces =
                    Some(flag_value("--traces", args.next(), 1..=16).unwrap_or_else(|e| fail(e)))
            }
            "--imagenet-scale" => {
                settings.imagenet_scale = flag_value("--imagenet-scale", args.next(), 0.01..=1.0)
                    .unwrap_or_else(|e| fail(e))
            }
            "all" => selected.extend(REGISTRY),
            name => match REGISTRY.iter().find(|e| e.name == name) {
                Some(e) => selected.push(e),
                None => fail(format_args!("unknown experiment {name:?} (see --list)")),
            },
        }
    }

    if list {
        for e in REGISTRY {
            println!("{:<10} {}", e.name, e.banner);
        }
        return;
    }
    if selected.is_empty() {
        fail("no experiment named");
    }
    exit_on_error(capture_recorder());
    for e in selected {
        println!("==============================================================");
        println!("Pollux reproduction: {}", e.banner);
        println!("==============================================================");
        (e.run)(&settings);
    }
    exit_on_error(finish_capture());
}
