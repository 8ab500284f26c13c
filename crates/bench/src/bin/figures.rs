//! Regenerate every table/figure of the paper's evaluation section.

use serde_json::Value;
use swsimd_bench::{
    ablation_batching, ablation_threshold, fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig13,
    fig14, portability, segments, write_record, FigureRecord, Scale,
};

/// One regenerable figure: the `--fig` key that selects it, the record
/// it is written to under `results/`, its title, and its function.
type Figure = (&'static str, &'static str, &'static str, fn(Scale) -> Value);

const FIGURES: [Figure; 13] = [
    ("6", "fig06", "AVX2 vs AVX-512 performance", fig06),
    ("7", "fig07", "Affine vs linear gap penalty", fig07),
    ("8", "fig08", "Traceback on vs off", fig08),
    ("9", "fig09", "With vs without substitution matrix", fig09),
    (
        "10",
        "fig10",
        "Performance improvement after hyperparameter tuning",
        fig10,
    ),
    (
        "11",
        "fig11",
        "Thread scaling with frequency recalibration",
        fig11,
    ),
    ("12", "fig12", "Top-down pipeline-slot analysis", fig12),
    (
        "13",
        "fig13",
        "Performance for different SW usage scenarios",
        fig13,
    ),
    ("14", "fig14", "Ours vs Parasail scan/striped/diag", fig14),
    (
        "segments",
        "seg_census",
        "Short-segment cell fraction (§III-B)",
        segments,
    ),
    (
        "portability",
        "portability",
        "Kernel throughput across vector extensions",
        portability,
    ),
    (
        "ablations",
        "ablation_threshold",
        "Scalar-fallback threshold sweep (Fig 3 knob)",
        ablation_threshold,
    ),
    (
        "ablations",
        "ablation_batching",
        "Length-sorted vs unsorted batches (Fig 5 layout)",
        ablation_batching,
    ),
];

fn main() {
    // Surface tracer events (e.g. figure_record_write_failed) on
    // stderr; spans stay silent unless SWSIMD_TRACE asks for them.
    if std::env::var_os("SWSIMD_TRACE").is_some() {
        swsimd_obs::set_sink(Some(std::sync::Arc::new(swsimd_obs::StderrSink)));
    } else {
        swsimd_obs::set_sink(Some(std::sync::Arc::new(ErrorsOnlySink)));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let figs: Vec<String> = {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--fig" {
                if let Some(v) = it.next() {
                    out.push(v.clone());
                }
            }
        }
        out
    };
    let want = |name: &str| figs.is_empty() || figs.iter().any(|f| f == name);

    println!("swsimd figure harness — scale {scale:?}");
    println!(
        "host engines: {:?}\n",
        swsimd_simd::EngineKind::available()
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
    );

    for (key, figure, title, run) in FIGURES {
        if !want(key) {
            continue;
        }
        let series = run(scale);
        println!("== {title} ==");
        println!("{}\n", serde_json::to_string_pretty(&series).unwrap());
        let rec = FigureRecord {
            figure,
            title,
            scale: format!("{scale:?}"),
            series,
        };
        match write_record(&rec) {
            Ok(path) => println!("[{figure}] {title} -> {}", path.display()),
            Err(e) => {
                swsimd_obs::event!(
                    "figure_record_write_failed",
                    "figure" => figure,
                    "error" => e.to_string(),
                );
            }
        }
    }
    println!("\nrecords written under results/");
}

/// Forwards only failure-ish instant events to stderr, so a figure
/// run stays quiet unless something went wrong.
struct ErrorsOnlySink;

impl swsimd_obs::Sink for ErrorsOnlySink {
    fn record(&self, event: &swsimd_obs::Event) {
        if event.kind == swsimd_obs::EventKind::Instant
            && (event.name.ends_with("_failed")
                || event.name.contains("panic")
                || event.name.contains("degraded"))
        {
            eprintln!("[obs] {event}");
        }
    }
}
