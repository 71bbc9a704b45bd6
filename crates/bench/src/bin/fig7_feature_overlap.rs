//! Figure 7 reproduction: overlap of scalar functions and operators between
//! the SQLancer++ generator universe and two dialects' supported sets
//! (SQLite-like and strictly-typed PostgreSQL-like).

use dbms_sim::preset_by_name;
use sqlancer_core::FeatureSet;

fn filtered(set: &FeatureSet, prefix: &str) -> FeatureSet {
    set.iter()
        .filter(|f| f.name().starts_with(prefix))
        .collect()
}

fn venn(label: &str, generator: &FeatureSet, a: &FeatureSet, b: &FeatureSet) {
    let count = |in_a: bool, in_b: bool| {
        generator
            .iter()
            .filter(|&f| a.contains(f) == in_a && b.contains(f) == in_b)
            .count()
    };
    let only_gen = count(false, false);
    let gen_and_a = count(true, false);
    let gen_and_b = count(false, true);
    let all_three = count(true, true);
    println!("## {label}");
    println!("| region | count |");
    println!("|---|---|");
    println!("| generator only | {only_gen} |");
    println!("| generator ∩ sqlite only | {gen_and_a} |");
    println!("| generator ∩ postgres-like only | {gen_and_b} |");
    println!("| shared by all three | {all_three} |");
    println!();
}

fn main() {
    let universe = FeatureSet::universe();
    let sqlite = preset_by_name("sqlite")
        .unwrap()
        .profile
        .supported_universe();
    let postgres_like = preset_by_name("umbra")
        .unwrap()
        .profile
        .supported_universe();

    println!(
        "# Figure 7 — feature overlap between the generator and dialect generators (reproduction)"
    );
    println!();
    venn(
        "Scalar functions",
        &filtered(&universe, "FN_"),
        &filtered(&sqlite, "FN_"),
        &filtered(&postgres_like, "FN_"),
    );
    venn(
        "Operators",
        &filtered(&universe, "OP_"),
        &filtered(&sqlite, "OP_"),
        &filtered(&postgres_like, "OP_"),
    );
    println!(
        "(Paper shape to check: the three sets overlap substantially but none subsumes \
         the others — the generator covers common features while each dialect also has \
         gaps the generator must learn to avoid.)"
    );
}
