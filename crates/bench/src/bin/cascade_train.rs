//! `cascade-train`: train any of the five TGNN models on a built-in
//! dataset profile or a CSV event list, with any batching strategy.
//!
//! ```text
//! cascade_train --dataset wiki --model tgn --strategy cascade --epochs 4
//! cascade_train --dataset path/to/events.csv --model jodie --save model.ckpt
//! cascade_train --dataset wiki --chunk 128                  # Cascade_EX from memory
//! cascade_train --dataset wiki --export-dataset wiki.evt     # write a store file
//! cascade_train --dataset wiki.evt                           # train out-of-core
//! ```

use std::path::{Path, PathBuf};

use cascade_baselines::{tgl, tglite, Etc, NeutronStream};
use cascade_core::{
    evaluate_range, train_streaming, BatchingStrategy, CascadeConfig, CascadeScheduler,
    TrainConfig, TrainReport,
};
use cascade_models::{load_checkpoint, save_parameters, MemoryTgnn, ModelConfig};
use cascade_store::{export_dataset, StreamingEventSource};
use cascade_tgraph::{Dataset, EventSource, InMemorySource, SynthConfig};

/// Chunk size `--export-dataset` writes when `--chunk` is not given.
const DEFAULT_CHUNK: usize = 4096;

struct Args {
    dataset: String,
    model: String,
    strategy: String,
    epochs: usize,
    batch: usize,
    dim: usize,
    scale: f64,
    seed: u64,
    theta: f32,
    chunk: Option<usize>,
    export_dataset: Option<PathBuf>,
    save: Option<PathBuf>,
    load: Option<PathBuf>,
    test: bool,
    compute_threads: usize,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            dataset: "wiki".into(),
            model: "tgn".into(),
            strategy: "cascade".into(),
            epochs: 4,
            batch: 64,
            dim: 16,
            scale: 0.025,
            seed: 42,
            theta: 0.9,
            chunk: None,
            export_dataset: None,
            save: None,
            load: None,
            test: false,
            compute_threads: TrainConfig::default().compute_threads,
        };
        while let Some(flag) = it.next() {
            let mut val = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("missing value for {}", name))
            };
            match flag.as_str() {
                "--dataset" => a.dataset = val("--dataset")?,
                "--model" => a.model = val("--model")?,
                "--strategy" => a.strategy = val("--strategy")?,
                "--epochs" => a.epochs = parse(&val("--epochs")?)?,
                "--batch" => {
                    a.batch = parse(&val("--batch")?)?;
                    if a.batch == 0 {
                        return Err("--batch must be positive".to_string());
                    }
                }
                "--dim" => a.dim = parse(&val("--dim")?)?,
                "--scale" => a.scale = parse(&val("--scale")?)?,
                "--seed" => a.seed = parse(&val("--seed")?)?,
                "--theta" => a.theta = parse(&val("--theta")?)?,
                "--chunk" => {
                    let chunk: usize = parse(&val("--chunk")?)?;
                    if chunk == 0 {
                        return Err("--chunk must be positive".to_string());
                    }
                    a.chunk = Some(chunk);
                }
                "--export-dataset" => {
                    a.export_dataset = Some(PathBuf::from(val("--export-dataset")?));
                }
                "--save" => a.save = Some(PathBuf::from(val("--save")?)),
                "--load" => a.load = Some(PathBuf::from(val("--load")?)),
                "--test" => a.test = true,
                "--compute-threads" => a.compute_threads = parse(&val("--compute-threads")?)?,
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
        "cascade-train: train a TGNN with adaptive or fixed batching\n\n\
         --dataset  wiki|reddit|mooc|wiki-talk|sx-full|gdelt|mag|<csv path>\n\
         \u{20}          or a .evt store file written by --export-dataset:\n\
         \u{20}          training then streams chunks out-of-core instead of\n\
         \u{20}          materializing the event list in memory. A profile at\n\
         \u{20}          --scale S has S x its events, S^0.75 x its nodes and\n\
         \u{20}          8 feature columns, as in cascade_dist\n\
         --export-dataset P   write the loaded dataset to a chunked store\n\
         \u{20}                    file at P (chunk size --chunk, default 4096)\n\
         \u{20}                    and exit without training\n\
         --model    jodie|tgn|apan|dysat|tgat            (default tgn)\n\
         --strategy tgl|tglite|cascade|cascade-tb|neutron|etc (default cascade)\n\
         --epochs N --batch N --dim N --scale F --seed N --theta F\n\
         \u{20}          (--dim N: memory width N, time encoding N/2, at most\n\
         \u{20}          4 sampled neighbors, as in cascade_dist and cascade_serve)\n\
         --chunk N  stream the dataset in chunks of N events, one dependency\n\
         \u{20}          table resident at a time (Cascade_EX); a store file\n\
         \u{20}          brings its own chunk size\n\
         --save P             write the trained parameters\n\
         --load P             warm-start from any checkpoint of the same\n\
         \u{20}                    --model and --dim over the same feature width:\n\
         \u{20}                    a --save file, a cascade_serve snapshot, or\n\
         \u{20}                    a cascade_dist --save run at equal --dataset,\n\
         \u{20}                    --model, --dim and --scale\n\
         --test     also evaluate on the held-out test range\n\
         --compute-threads N  shard-parallel batch compute workers\n\
         \u{20}                    (default: the host's cores; any N is\n\
         \u{20}                    bit-identical)"
    );
}

fn load_dataset(args: &Args) -> Result<Dataset, String> {
    match SynthConfig::by_name(&args.dataset) {
        Some(p) => Ok(p.at_scale(args.scale).generate(args.seed)),
        None => Dataset::from_csv("csv", Path::new(&args.dataset), 8, args.seed)
            .map_err(|e| format!("cannot load {}: {}", args.dataset, e)),
    }
}

/// Is `path` an existing file with the event-store magic? Sniffing the
/// magic (rather than the extension) keeps CSV paths working unchanged.
fn is_store_file(path: &str) -> bool {
    let mut magic = [0u8; 4];
    std::fs::File::open(path)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut magic))
        .is_ok()
        && magic == cascade_store::MAGIC
}

fn build_model(args: &Args, num_nodes: usize, feature_dim: usize) -> Result<MemoryTgnn, String> {
    let base = ModelConfig::by_name(&args.model)
        .ok_or_else(|| format!("unknown model {}", args.model.to_lowercase()))?;
    let mut cfg = base.at_width(args.dim);
    if args.strategy.to_lowercase() == "tglite" {
        cfg = cfg.with_lite();
    }
    Ok(MemoryTgnn::new(cfg, num_nodes, feature_dim, args.seed))
}

fn build_strategy(args: &Args) -> Result<Box<dyn BatchingStrategy>, String> {
    let cascade = CascadeConfig {
        preset_batch_size: args.batch,
        theta: args.theta,
        seed: args.seed,
        ..CascadeConfig::default()
    };
    Ok(match args.strategy.to_lowercase().as_str() {
        "tgl" => Box::new(tgl(args.batch)),
        "tglite" => Box::new(tglite(args.batch)),
        "cascade" => Box::new(CascadeScheduler::new(cascade)),
        "cascade-tb" => Box::new(CascadeScheduler::new(cascade.without_sg_filter())),
        "neutron" => Box::new(NeutronStream::new(args.batch)),
        "etc" => Box::new(Etc::new(args.batch)),
        other => return Err(format!("unknown strategy {}", other)),
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {}", e);
        print_usage();
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let from_store = is_store_file(&args.dataset);

    if let Some(out) = &args.export_dataset {
        if from_store {
            return Err(format!(
                "{} is already a store file; --export-dataset expects a profile or CSV source",
                args.dataset
            ));
        }
        let data = load_dataset(&args)?;
        let chunk = args.chunk.unwrap_or(DEFAULT_CHUNK);
        let summary = export_dataset(&data, Path::new(out), chunk).map_err(|e| e.to_string())?;
        println!(
            "exported {}: {} events in {} chunks of {} (dim {}, {} nodes) -> {}",
            data.name(),
            summary.events,
            summary.chunks,
            summary.chunk_size,
            summary.feature_dim,
            summary.num_nodes,
            out.display()
        );
        return Ok(());
    }

    // One source for every run: a store file streams out-of-core (only
    // the current chunk window is resident), a profile or CSV streams
    // from memory, `--chunk` events at a time or the whole stream at once.
    let (mut source, data): (Box<dyn EventSource + Send>, Option<Dataset>) = if from_store {
        let source = StreamingEventSource::open(Path::new(&args.dataset), 2)
            .map_err(|e| format!("cannot open store {}: {}", args.dataset, e))?;
        (Box::new(source), None)
    } else {
        let data = load_dataset(&args)?;
        println!(
            "dataset {}: train {}, val {}, test {} events",
            data.name(),
            data.train_range().len(),
            data.val_range().len(),
            data.test_range().len()
        );
        let chunk = args.chunk.unwrap_or(data.num_events()).max(1);
        (
            Box::new(InMemorySource::from_dataset(&data, chunk)),
            Some(data),
        )
    };
    println!(
        "source {} ({}): {} nodes, {} events in chunks of {} (dim {})",
        source.name(),
        if from_store {
            "store file, out-of-core"
        } else {
            "in memory"
        },
        source.num_nodes(),
        source.num_events(),
        source.chunk_size(),
        source.feature_dim()
    );

    let mut model = build_model(&args, source.num_nodes(), source.feature_dim())?;
    if let Some(path) = &args.load {
        // Any checkpoint warm-starts the weights; a full-state file's
        // memories do not outlive the reset that opens the first epoch.
        load_checkpoint(&mut model, path).map_err(|e| e.to_string())?;
        println!("loaded parameters from {}", path.display());
    }

    let mut strategy = build_strategy(&args)?;
    let compute_threads = args.compute_threads.max(1);
    let cfg = TrainConfig {
        epochs: args.epochs,
        lr: 1e-3,
        eval_batch_size: args.batch,
        clip_norm: Some(5.0),
        scale_lr_with_batch: true,
        compute_threads,
    };
    let report = train_streaming(&mut model, source.as_mut(), strategy.as_mut(), &cfg)
        .map_err(|e| e.to_string())?;
    print_report(&report);
    println!(
        "  resident window   {} bytes (of {} bytes of stream events)",
        report.space.graph,
        source.num_events() * std::mem::size_of::<cascade_tgraph::Event>()
    );

    match (&data, args.test) {
        (Some(data), true) => {
            let _budget = cascade_tensor::install_budget(compute_threads);
            let test = evaluate_range(&mut model, data, data.test_range(), args.batch);
            println!(
                "  test              loss {:.4}, AP {:.4}, acc {:.4}",
                test.loss, test.average_precision, test.accuracy
            );
        }
        (None, true) => {
            eprintln!("note: --test needs the in-memory test split; skipped for store files")
        }
        _ => {}
    }
    if let Some(path) = &args.save {
        save_parameters(&model, path).map_err(|e| e.to_string())?;
        println!("saved parameters to {}", path.display());
    }
    Ok(())
}

fn print_report(report: &TrainReport) {
    println!(
        "\n[{} / {} / {}]",
        report.dataset, report.model, report.strategy
    );
    println!("  epochs            {}", report.epochs);
    println!("  batches           {}", report.num_batches);
    println!(
        "  batch size        avg {:.0}, max {}",
        report.avg_batch_size, report.max_batch_size
    );
    println!("  wall time         {:?}", report.total_time);
    println!("  stages            {}", report.stages);
    println!(
        "  epoch losses      {:?}",
        report
            .epoch_losses
            .iter()
            .map(|l| (l * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    println!(
        "  validation        loss {:.4}, AP {:.4}, acc {:.4}",
        report.val_loss, report.val_ap, report.val_accuracy
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn zero_sizes_fail_at_argument_parsing() {
        for (flag, err) in [
            ("--batch", "--batch must be positive"),
            ("--chunk", "--chunk must be positive"),
        ] {
            assert_eq!(parse_args(&[flag, "0"]).err().as_deref(), Some(err));
        }
        let args = parse_args(&["--batch", "7", "--chunk", "9"]).expect("positive sizes parse");
        assert_eq!((args.batch, args.chunk), (7, Some(9)));
    }
}
