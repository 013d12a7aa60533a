//! `cascade-scenario`: recipe-driven workload replay with adversarial
//! stream perturbations.
//!
//! ```text
//! cascade_scenario --list                                # recipes/ catalog
//! cascade_scenario --recipe recipes/gdelt_full.json --generate-only --out /data/gdelt.cevt
//! cascade_scenario --recipe recipes/gdelt_full.json --train --store /data/gdelt.cevt
//! cascade_scenario --recipe recipes/adv_reorder.json --train          # on-the-fly regeneration
//! cascade_scenario --recipe recipes/adv_flash_crowd.json --serve-replay
//! ```
//!
//! Every run writes a structured report to
//! `bench_results/scenario_<name>.json` (override with `--report-dir`).
//! `--scale F` shrinks phase event counts for smoke runs; the scaled
//! name carries an `@F` suffix so reports never collide.

use std::path::PathBuf;

use cascade_scenario::{list_recipes, load_recipe, Recipe, ScenarioRunner};

struct Args {
    recipe: Option<String>,
    list: bool,
    recipes_dir: String,
    generate_only: bool,
    out: Option<String>,
    train: bool,
    store: Option<String>,
    dist: Option<usize>,
    serve_replay: bool,
    scale: f64,
    seed: Option<u64>,
    report_dir: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            recipe: None,
            list: false,
            recipes_dir: "recipes".into(),
            generate_only: false,
            out: None,
            train: false,
            store: None,
            dist: None,
            serve_replay: false,
            scale: 1.0,
            seed: None,
            report_dir: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("missing value for {}", name))
            };
            match flag.as_str() {
                "--recipe" => a.recipe = Some(val("--recipe")?),
                "--list" => a.list = true,
                "--recipes-dir" => a.recipes_dir = val("--recipes-dir")?,
                "--generate-only" => a.generate_only = true,
                "--out" => a.out = Some(val("--out")?),
                "--train" => a.train = true,
                "--store" => a.store = Some(val("--store")?),
                "--dist" => a.dist = Some(parse(&val("--dist")?)?),
                "--serve-replay" => a.serve_replay = true,
                "--scale" => a.scale = parse(&val("--scale")?)?,
                "--seed" => a.seed = Some(parse(&val("--seed")?)?),
                "--report-dir" => a.report_dir = Some(val("--report-dir")?),
                "--help" | "-h" => {
                    print_usage();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {}", other)),
            }
        }
        Ok(a)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse '{}'", s))
}

fn print_usage() {
    eprintln!(
        "cascade-scenario: recipe-driven workload replay\n\n\
         --recipe P        recipe JSON to run\n\
         --list            list recipes under --recipes-dir and exit\n\
         --recipes-dir D   recipe catalog directory        (default recipes)\n\
         --generate-only   write the delivered stream as CEVT chunks\n\
         --out P           CEVT output path                (with --generate-only)\n\
         --train           one streaming training run (out-of-core when\n\
                           --store names a generated CEVT file)\n\
         --store P         train from this CEVT store instead of regenerating\n\
         --dist N          N-way in-process data-parallel training\n\
         --serve-replay    replay the stream through the serving engine\n\
         --scale F         scale phase event counts        (default 1.0)\n\
         --seed N          override the recipe seed\n\
         --report-dir D    report output directory (default bench_results)"
    );
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {}", e);
        print_usage();
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let store = args.store.as_ref().map(PathBuf::from);

    if args.list {
        let dir = PathBuf::from(&args.recipes_dir);
        let paths = list_recipes(&dir).map_err(|e| e.to_string())?;
        if paths.is_empty() {
            println!("no recipes under {}", dir.display());
        }
        for path in paths {
            match load_recipe(&path) {
                Ok(recipe) => println!(
                    "{:<32} nodes {:>9}  dim {:>4}  base events {:>10}  phases {}",
                    path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
                    recipe.nodes,
                    recipe.feature_dim,
                    recipe.base_events(),
                    recipe.phases.len()
                ),
                Err(e) => println!(
                    "{:<32} INVALID: {}",
                    path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
                    e
                ),
            }
        }
        return Ok(());
    }

    let recipe_path = args
        .recipe
        .as_deref()
        .ok_or("--recipe is required (or --list)")?;
    let mut recipe: Recipe = load_recipe(&PathBuf::from(recipe_path)).map_err(|e| e.to_string())?;
    if let Some(seed) = args.seed {
        recipe.seed = seed;
    }
    if args.scale != 1.0 {
        recipe = recipe.scaled(args.scale);
    }
    println!(
        "{}: {} nodes, dim {}, {} base / {} delivered events, {} phase(s), policy {}",
        recipe.name,
        recipe.nodes,
        recipe.feature_dim,
        recipe.base_events(),
        recipe.delivered_events(),
        recipe.phases.len(),
        ScenarioRunner::new(recipe.clone()).policy()
    );
    let runner = ScenarioRunner::new(recipe);
    let report_dir = args.report_dir.as_ref().map(PathBuf::from);

    let mut ran = false;
    let finish = |report: cascade_scenario::ScenarioReport| -> Result<(), String> {
        println!(
            "[{}] {:.2}s | {:.0} events/s | peak RSS {:.1} MiB",
            report.mode,
            report.wall_secs,
            report.events_per_sec,
            report.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
        for (i, loss) in report.epoch_losses.iter().enumerate() {
            println!("  epoch {:>2}: loss {:.4}", i, loss);
        }
        for phase in &report.phases {
            println!(
                "  phase {:<20} [{}] {:>7} events, {:>5} batches, mean loss {:.4}",
                phase.name, phase.kind, phase.events, phase.batches, phase.mean_loss
            );
        }
        let path = report
            .write(report_dir.as_deref())
            .map_err(|e| e.to_string())?;
        println!("  report -> {}", path.display());
        Ok(())
    };

    if args.generate_only {
        let out = args
            .out
            .as_deref()
            .ok_or("--generate-only requires --out")?;
        let report = runner
            .generate(&PathBuf::from(out))
            .map_err(|e| e.to_string())?;
        println!("wrote delivered stream to {}", out);
        finish(report)?;
        ran = true;
    }
    if args.train {
        let report = runner.train(store.as_deref()).map_err(|e| e.to_string())?;
        finish(report)?;
        ran = true;
    }
    if let Some(workers) = args.dist {
        let report = runner.train_dist(workers).map_err(|e| e.to_string())?;
        finish(report)?;
        ran = true;
    }
    if args.serve_replay {
        let scratch = std::env::temp_dir();
        let report = runner.serve_replay(&scratch).map_err(|e| e.to_string())?;
        finish(report)?;
        ran = true;
    }
    if !ran {
        return Err("pick an action: --generate-only, --train, --dist N, or --serve-replay".into());
    }
    Ok(())
}
