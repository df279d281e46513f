//! `domc` — the Domino compiler command-line driver.
//!
//! ```text
//! domc <file.domino> [--target <atom>] [--lut] [--emit <what>]
//!
//!   --target <atom>   stateful atom of the Banzai target: write, raw,
//!                     praw, ifelse_raw, sub, nested, pairs (default: pairs)
//!   --lut             extend the target with the look-up-table unit (X1)
//!   --emit <what>     pipeline (default) | layout | flow-key | p4 |
//!                     tac | pvsm | dot | normalized | json
//!   --all-targets     try every standard target and report the least
//!                     expressive atom that runs the program (Table 4 view)
//! ```

use banzai::{AtomKind, Target};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut file: Option<&str> = None;
    let mut kind = AtomKind::Pairs;
    let mut lut = false;
    let mut emit = "pipeline";
    let mut all_targets = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--target" => {
                i += 1;
                let name = args.get(i).ok_or("--target needs a value")?;
                kind = AtomKind::from_short_name(name).ok_or_else(|| {
                    format!(
                        "unknown atom `{name}` (expected one of: {})",
                        AtomKind::ALL.map(|k| k.short_name()).join(", ")
                    )
                })?;
            }
            "--lut" => lut = true,
            "--emit" => {
                i += 1;
                emit = args.get(i).ok_or("--emit needs a value")?;
            }
            "--all-targets" => all_targets = true,
            "--help" | "-h" => {
                println!("{}", HELP);
                return Ok(());
            }
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
        i += 1;
    }

    let file = file.ok_or("usage: domc <file.domino> [options] (try --help)")?;
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;

    let compilation = domino_compiler::normalize(&source).map_err(|e| e.to_string())?;

    if all_targets {
        for k in AtomKind::ALL {
            let target = make_target(k, lut);
            match domino_compiler::lower(&compilation, &target) {
                Ok(p) => {
                    println!(
                        "{:<12} OK   ({} stages, max {} atoms/stage)",
                        k.short_name(),
                        p.depth(),
                        p.max_atoms_per_stage()
                    );
                }
                Err(e) => {
                    let first = e.message.lines().next().unwrap_or("");
                    println!("{:<12} FAIL {first}", k.short_name());
                }
            }
        }
        return Ok(());
    }

    let target = make_target(kind, lut);
    match emit {
        "normalized" => {
            print!(
                "{}",
                domino_compiler::Compilation::render_assigns(&compilation.ssa)
            );
        }
        "flow-key" => match domino_compiler::flow_key(&compilation) {
            Ok(part) => print!("{part}"),
            Err(why) => {
                println!("not shard-partitionable: {why}");
                println!("(a sharded switch will fall back to a single shard)");
            }
        },
        "tac" => print!("{}", compilation.tac),
        "pvsm" => print!("{}", compilation.pvsm),
        "dot" => {
            let graph = domino_compiler::depgraph::DepGraph::build(&compilation.tac.stmts);
            print!("{}", graph.to_dot(&compilation.tac.stmts));
        }
        "pipeline" => {
            let pipeline =
                domino_compiler::lower(&compilation, &target).map_err(|e| e.to_string())?;
            print!("{pipeline}");
        }
        "layout" => {
            let pipeline =
                domino_compiler::lower(&compilation, &target).map_err(|e| e.to_string())?;
            // `lower` validates slot-executability, so this cannot fail.
            let program = banzai::SlotPipeline::lower(&pipeline).map_err(|e| e.to_string())?;
            print!("{program}");
        }
        "p4" => {
            let pipeline =
                domino_compiler::lower(&compilation, &target).map_err(|e| e.to_string())?;
            print!("{}", p4_backend::generate(&compilation, &pipeline));
        }
        "json" => {
            let pipeline =
                domino_compiler::lower(&compilation, &target).map_err(|e| e.to_string())?;
            // Hand-rolled emission: the build environment is offline, so no
            // serde dependency — the document is small and fully escapable.
            let stages: Vec<String> = pipeline
                .stages
                .iter()
                .map(|stage| {
                    let atoms: Vec<String> = stage
                        .iter()
                        .map(|atom| {
                            let stmts: Vec<String> = atom
                                .codelet
                                .stmts
                                .iter()
                                .map(|s| json_string(&s.to_string()))
                                .collect();
                            format!(
                                "{{\"stateful\": {}, \"statements\": [{}]}}",
                                atom.is_stateful(),
                                stmts.join(", ")
                            )
                        })
                        .collect();
                    format!("[{}]", atoms.join(", "))
                })
                .collect();
            let kind = pipeline
                .max_stateful_kind()
                .map(|k| json_string(k.short_name()))
                .unwrap_or_else(|| "null".into());
            println!(
                "{{\n  \"name\": {},\n  \"target\": {},\n  \"depth\": {},\n  \
                 \"max_atoms_per_stage\": {},\n  \"max_stateful_kind\": {},\n  \
                 \"stages\": [\n    {}\n  ]\n}}",
                json_string(&pipeline.name),
                json_string(&pipeline.target_name),
                pipeline.depth(),
                pipeline.max_atoms_per_stage(),
                kind,
                stages.join(",\n    ")
            );
        }
        other => {
            return Err(format!(
                "unknown --emit `{other}` (pipeline, layout, flow-key, p4, tac, pvsm, dot, normalized, json)"
            ))
        }
    }
    Ok(())
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn make_target(kind: AtomKind, lut: bool) -> Target {
    if lut {
        Target::banzai_with_lut(kind)
    } else {
        Target::banzai(kind)
    }
}

const HELP: &str = "\
domc — compile Domino packet transactions to Banzai atom pipelines

USAGE:
    domc <file.domino> [--target <atom>] [--lut] [--emit <what>]
    domc <file.domino> --all-targets

OPTIONS:
    --target <atom>  write | raw | praw | ifelse_raw | sub | nested | pairs
                     (default: pairs)
    --lut            add the look-up-table unit (isqrt/codel_gap)
    --emit <what>    pipeline | layout | flow-key | p4 | tac | pvsm | dot | normalized | json
    --all-targets    report which standard targets can run the program";
