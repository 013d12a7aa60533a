//! `cascade-serve`: online link-prediction serving with live ingest.
//!
//! ```text
//! cascade_train --dataset wiki --model tgn --save model.ckpt
//! cascade_serve --load model.ckpt --nodes 831 --port 8080
//! curl -s localhost:8080/stats
//! curl -s -X POST localhost:8080/predict \
//!     -d '{"src": 3, "dsts": [1, 2], "time": 1e6}'
//! curl -s -X POST localhost:8080/ingest \
//!     -d '{"events": [{"src": 3, "dst": 1, "time": 1e6,
//!          "features": [0,0,0,0,0,0,0,0]}]}'
//! ```
//!
//! Every acked ingest is fsynced to the write-ahead log before it
//! touches served state; killing the process and restarting with the
//! same flags replays the log and reproduces the memories bit-for-bit.

use std::path::PathBuf;

use cascade_models::{load_checkpoint, MemoryTgnn, ModelConfig};
use cascade_serve::{Engine, EngineConfig, Server};

struct Args {
    load: PathBuf,
    arch: String,
    nodes: usize,
    dim: usize,
    feature_dim: usize,
    seed: u64,
    addr: String,
    port: u16,
    wal: PathBuf,
    snapshot: PathBuf,
    snapshot_every: usize,
    wal_chunk: usize,
    workers: usize,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            load: PathBuf::new(),
            arch: "tgn".into(),
            nodes: 0,
            dim: 16,
            feature_dim: 8,
            seed: 42,
            addr: "127.0.0.1".into(),
            port: 8080,
            wal: PathBuf::from("serve.wal"),
            snapshot: PathBuf::from("serve_state.ckpt"),
            snapshot_every: 4096,
            wal_chunk: 256,
            workers: 2,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("missing value for {}", name))
            };
            match flag.as_str() {
                "--load" => a.load = PathBuf::from(val("--load")?),
                "--arch" => a.arch = val("--arch")?,
                "--nodes" => a.nodes = parse(&val("--nodes")?)?,
                "--dim" => a.dim = parse(&val("--dim")?)?,
                "--feature-dim" => a.feature_dim = parse(&val("--feature-dim")?)?,
                "--seed" => a.seed = parse(&val("--seed")?)?,
                "--addr" => a.addr = val("--addr")?,
                "--port" => a.port = parse(&val("--port")?)?,
                "--wal" => a.wal = PathBuf::from(val("--wal")?),
                "--snapshot" => a.snapshot = PathBuf::from(val("--snapshot")?),
                "--snapshot-every" => a.snapshot_every = parse(&val("--snapshot-every")?)?,
                "--wal-chunk" => a.wal_chunk = parse(&val("--wal-chunk")?)?,
                "--workers" => a.workers = parse(&val("--workers")?)?,
                "--help" | "-h" => {
                    print_usage();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {}", other)),
            }
        }
        if a.load.as_os_str().is_empty() {
            return Err("--load is required (a .ckpt from cascade_train --save)".into());
        }
        if a.nodes == 0 {
            return Err("--nodes is required (the node count the model was trained with)".into());
        }
        if a.wal_chunk == 0 {
            return Err("--wal-chunk must be positive".into());
        }
        Ok(a)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse '{}'", s))
}

fn print_usage() {
    eprintln!(
        "cascade-serve: online link prediction with live event ingest\n\n\
         --load P             checkpoint from cascade_train / cascade_dist --save\n\
         \u{20}                    (required); parameter-only or full-state\n\
         --arch M             jodie|tgn|apan|dysat|tgat       (default tgn)\n\
         --nodes N            node count the model was trained with (required)\n\
         --dim N              memory width used in training     (default 16)\n\
         --feature-dim N      edge-feature width                (default 8)\n\
         --seed N             model build seed                  (default 42)\n\
         --addr A --port P    bind address                      (default 127.0.0.1:8080;\n\
         \u{20}                    port 0 picks an ephemeral port, printed on startup)\n\
         --wal P              write-ahead log path              (default serve.wal)\n\
         --snapshot P         durable state snapshot path       (default serve_state.ckpt)\n\
         --snapshot-every N   events between snapshots, 0 = off (default 4096)\n\
         --wal-chunk N        WAL frame / apply unit            (default 256)\n\
         --workers N          HTTP worker threads               (default 2)\n\n\
         endpoints: POST /predict  {{\"src\", \"dsts\", \"time\"}}\n\
         \u{20}          POST /ingest   {{\"events\": [{{\"src\", \"dst\", \"time\", \"features\"}}]}}\n\
         \u{20}          GET  /stats"
    );
}

fn build_model(args: &Args) -> Result<MemoryTgnn, String> {
    let base = ModelConfig::by_name(&args.arch)
        .ok_or_else(|| format!("unknown model {}", args.arch.to_lowercase()))?;
    let mut cfg = base.with_dims(args.dim, (args.dim / 2).max(2));
    if cfg.sampling.count() > 4 {
        cfg = cfg.with_neighbors(4);
    }
    Ok(MemoryTgnn::new(
        cfg,
        args.nodes,
        args.feature_dim,
        args.seed,
    ))
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
    let mut model = build_model(&args)?;
    match load_checkpoint(&mut model, &args.load).map_err(|e| e.to_string())? {
        Some(applied) => println!(
            "loaded full state from {} ({} events applied)",
            args.load.display(),
            applied
        ),
        None => println!("loaded parameters from {}", args.load.display()),
    }

    let config = EngineConfig::new(&args.wal, &args.snapshot)
        .with_wal_chunk(args.wal_chunk)
        .with_snapshot_every(args.snapshot_every);
    let engine = Engine::open(model, config).map_err(|e| e.to_string())?;
    let rec = engine.recovery();
    if rec.wal_events > 0 || rec.torn_tail_discarded {
        println!(
            "recovered {} events from {} ({} via snapshot, {} replayed{})",
            rec.wal_events,
            args.wal.display(),
            rec.snapshot_events,
            rec.wal_events - rec.snapshot_events,
            if rec.torn_tail_discarded {
                ", torn tail discarded"
            } else {
                ""
            }
        );
    }

    let bind = format!("{}:{}", args.addr, args.port);
    let server = Server::start(engine, &bind, args.workers.max(1)).map_err(|e| e.to_string())?;
    println!("listening on http://{}", server.addr());
    println!(
        "wal {} | snapshot {} every {} events | {} workers",
        args.wal.display(),
        args.snapshot.display(),
        args.snapshot_every,
        args.workers.max(1)
    );

    // Serve until killed: durability never depends on a clean exit —
    // every acked ingest is already fsynced in the WAL.
    loop {
        std::thread::park();
    }
}
