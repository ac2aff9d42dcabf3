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

use dpr_cli::args::Args;
use dpr_cli::commands;

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "crawl" => commands::crawl(&args),
        "stats" => commands::stats(&args),
        "partition" => commands::partition(&args),
        "rank" => commands::rank(&args),
        "simulate" => commands::simulate(&args),
        "top" => commands::top(&args),
        "analyze" => commands::analyze(&args),
        "plan" => commands::plan(&args),
        "" | "help" => {
            let _ = args.get_opt("help"); // `dpr --help` parses as an option
            print!("{}", commands::HELP);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", commands::HELP)),
    };
    // Every command rejects options it did not look up before it starts
    // work; this catches a command that forgot to.
    if let Err(e) = result.and_then(|()| args.reject_unread()) {
        eprintln!("dpr: {e}");
        std::process::exit(1);
    }
}
