//! `cascade-dist`: data-parallel TGNN training.
//!
//! ```text
//! cascade_dist --workers 2 --epochs 2                    # in-process threads
//! cascade_dist --mode leader --workers 2 &               # process 0
//! cascade_dist --mode follower --worker 1 --workers 2    # process 1
//! ```
//!
//! Every process synthesizes the identical dataset from
//! `(--dataset, --scale, --data-seed)`, so multi-process runs need no
//! shared filesystem: the only bytes on the wire are round payloads.

use std::net::TcpListener;

use cascade_dist::{run_follower, train_dist, DistConfig, DistOutcome, Leader, RunClock};
use cascade_models::{save_state, MemoryTgnn, ModelConfig};
use cascade_tgraph::{Dataset, SynthConfig};

struct Args {
    mode: String,
    dataset: String,
    model: String,
    workers: usize,
    worker: usize,
    epochs: usize,
    batch: usize,
    chunk: usize,
    dim: usize,
    scale: f64,
    seed: u64,
    data_seed: u64,
    lr: f32,
    addr: String,
    save: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            mode: "inproc".into(),
            dataset: "wiki".into(),
            model: "tgn".into(),
            workers: 2,
            worker: 0,
            epochs: 1,
            batch: 64,
            chunk: 256,
            dim: 16,
            scale: 0.01,
            seed: 42,
            data_seed: 7,
            lr: 1e-3,
            addr: "127.0.0.1:7744".into(),
            save: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("missing value for {}", name))
            };
            match flag.as_str() {
                "--mode" => a.mode = val("--mode")?,
                "--dataset" => a.dataset = val("--dataset")?,
                "--model" => a.model = val("--model")?,
                "--workers" => a.workers = parse(&val("--workers")?)?,
                "--worker" => a.worker = parse(&val("--worker")?)?,
                "--epochs" => a.epochs = parse(&val("--epochs")?)?,
                "--batch" => a.batch = parse(&val("--batch")?)?,
                "--chunk" => a.chunk = parse(&val("--chunk")?)?,
                "--dim" => a.dim = parse(&val("--dim")?)?,
                "--scale" => a.scale = parse(&val("--scale")?)?,
                "--seed" => a.seed = parse(&val("--seed")?)?,
                "--data-seed" => a.data_seed = parse(&val("--data-seed")?)?,
                "--lr" => a.lr = parse(&val("--lr")?)?,
                "--addr" => a.addr = val("--addr")?,
                "--save" => a.save = Some(val("--save")?),
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
        "cascade-dist: data-parallel TGNN training\n\n\
         --mode M       inproc|leader|follower            (default inproc)\n\
         --dataset D    wiki|reddit|mooc|wiki-talk|sx-full|gdelt|mag (default wiki)\n\
         --model M      jodie|tgn|apan|dysat|tgat         (default tgn)\n\
         --workers N    worker count                      (default 2)\n\
         --worker N     this follower's index, 1..N       (follower mode)\n\
         --epochs N --batch N --chunk N --lr F\n\
         --dim N        memory width; time encoding N/2, at most 4\n\
                        sampled neighbors                 (default 16)\n\
         --scale F      synth dataset scale: F x the profile's events,\n\
                        F^0.75 x its nodes, 8 feature columns (default 0.01)\n\
         --seed N       model seed                        (default 42)\n\
         --data-seed N  synth dataset seed                (default 7)\n\
         --addr A       leader bind / connect address     (default 127.0.0.1:7744)\n\
         --save P       write a full-state checkpoint (weights, node state,\n\
                        events applied): cascade_serve boots from it\n\
                        (--arch, --dim equal, --nodes the run's node count)\n\
                        and cascade_train --load warm-starts from it at\n\
                        equal --dataset, --model, --dim and --scale\n\n\
         all processes of one run must agree on every flag except\n\
         --mode and --worker"
    );
}

fn build_dataset(args: &Args) -> Result<Dataset, String> {
    let profile = SynthConfig::by_name(&args.dataset)
        .ok_or_else(|| format!("unknown dataset {}", args.dataset.to_lowercase()))?;
    Ok(profile.at_scale(args.scale).generate(args.data_seed))
}

fn build_model_config(args: &Args) -> Result<ModelConfig, String> {
    let base = ModelConfig::by_name(&args.model)
        .ok_or_else(|| format!("unknown model {}", args.model.to_lowercase()))?;
    Ok(base.at_width(args.dim))
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
    let data = build_dataset(&args)?;
    let model_cfg = build_model_config(&args)?;
    let cfg = DistConfig {
        workers: args.workers,
        chunk_size: args.chunk,
        batch_size: args.batch,
        epochs: args.epochs,
        lr: args.lr,
        clip_norm: Some(5.0),
        seed: args.seed,
    };
    println!(
        "{} on {} ({} events, {} nodes) | mode {}",
        args.model,
        args.dataset,
        data.num_events(),
        data.num_nodes(),
        args.mode
    );

    // The library's training path is clock-free by design (see
    // `DistReport`); wall time is owned here, at the edge. A leader's
    // clock starts once every follower has connected, so the followers'
    // connect retries are not timed as training.
    let (clock, outcome): (RunClock, DistOutcome) = match args.mode.as_str() {
        "inproc" => (RunClock::start(), train_dist(&data, &model_cfg, &cfg)),
        "leader" => {
            println!("leader listening on {}", args.addr);
            let listener = TcpListener::bind(&args.addr).map_err(|e| e.to_string())?;
            let leader = Leader::accept(&listener, &cfg).map_err(|e| e.to_string())?;
            let clock = RunClock::start();
            let outcome = leader.run(&data, &model_cfg, &cfg);
            (clock, outcome.map_err(|e| e.to_string())?)
        }
        "follower" => {
            println!("follower {} connecting to {}", args.worker, args.addr);
            let clock = RunClock::start();
            let outcome = run_follower(&args.addr, args.worker, &data, &model_cfg, &cfg);
            (clock, outcome.map_err(|e| e.to_string())?)
        }
        other => return Err(format!("unknown mode {}", other)),
    };

    let elapsed = clock.elapsed();
    println!("{}", outcome.report);
    println!(
        "{} events in {:.2?} ({:.0} ev/s)",
        outcome.report.events,
        elapsed,
        outcome.report.events_per_sec(elapsed)
    );
    for (i, loss) in outcome.report.epoch_losses.iter().enumerate() {
        println!("epoch {:>2}: loss {:.4}", i, loss);
    }
    println!(
        "final state: {} bytes, {} batches logged",
        outcome.state.len(),
        outcome.batches.len()
    );
    if let Some(path) = &args.save {
        // Rehydrate the exported state into a fresh model for the
        // checkpoint layer; the watermark is one full pass over the
        // stream (the final epoch's memories).
        let mut model = MemoryTgnn::new(
            model_cfg.clone(),
            data.num_nodes(),
            data.features().dim(),
            args.seed,
        );
        model
            .import_state(&outcome.state)
            .map_err(|e| e.to_string())?;
        save_state(&model, std::path::Path::new(path), data.num_events() as u64)
            .map_err(|e| e.to_string())?;
        println!("saved full-state checkpoint to {}", path);
    }
    Ok(())
}
