//! `dpr` — the distributed page ranking toolkit, on the command line.
//!
//! ```text
//! dpr generate --pages 50000 --sites 100 --out crawl.graph
//! dpr crawl    --web-pages 100000 --agents 8 --mode exchange --out crawl.graph
//! dpr stats    crawl.graph
//! dpr partition crawl.graph --k 64 --strategy site
//! dpr rank     crawl.graph --top 10 [--algo cpr|pagerank|hits]
//! dpr simulate crawl.graph --k 100 --variant dpr1 --p 0.7 --t2 6 --t-end 100
//! dpr plan     --rankers 1000 --pages 3e9
//! ```
//!
//! Every subcommand is a thin veneer over the library crates; anything the
//! CLI does is one function call away for programmatic users.

use std::io::{ErrorKind, Write};

use dpr_cli::args::Args;
use dpr_cli::commands::{self, CmdResult};

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let mut w = std::io::stdout().lock();
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args, &mut w),
        "crawl" => commands::crawl(&args, &mut w),
        "stats" => commands::stats(&args, &mut w),
        "partition" => commands::partition(&args, &mut w),
        "rank" => commands::rank(&args, &mut w),
        "simulate" => commands::simulate(&args, &mut w),
        "top" => commands::top(&args, &mut w),
        "analyze" => commands::analyze(&args, &mut w),
        "plan" => commands::plan(&args, &mut w),
        "" | "help" => {
            let _ = args.get_opt("help"); // `dpr --help` parses as an option
            write!(w, "{}", commands::HELP).map_err(Into::into)
        }
        other => Err(format!("unknown command `{other}`\n\n{}", commands::HELP).into()),
    };
    // Every command rejects options it did not look up before it starts
    // work; this catches a command that forgot to.
    let result: CmdResult =
        result.and_then(|()| Ok(args.reject_unread()?)).and_then(|()| Ok(w.flush()?));
    if let Err(e) = result {
        // A reader that went away (`dpr rank g --top 50 | head -2`) has
        // all it wanted: nothing to report.
        let io = e.downcast_ref::<std::io::Error>();
        if io.is_none_or(|e| e.kind() != ErrorKind::BrokenPipe) {
            eprintln!("dpr: {e}");
            std::process::exit(1);
        }
    }
}
