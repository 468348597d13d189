//! One experiment per table/figure of the paper's evaluation (§4).
//!
//! Paired figures that share a measurement grid (e.g. Figures 4 and 5,
//! which both come from the keyword×Δ sweep) are produced by a single
//! experiment to avoid re-running identical searches.

mod accuracy;
mod extras;
mod params;
mod runtime;
mod topk;

use crate::context::Context;
use crate::report::Table;

/// A runnable experiment.
pub struct Experiment {
    /// Stable id accepted on the command line (e.g. `fig4-5`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Runner.
    pub run: fn(&Context) -> Vec<Table>,
}

/// The registry, in the paper's presentation order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1: label contents of Example 2 (golden trace)",
            run: extras::table1,
        },
        Experiment {
            id: "fig4-5",
            title: "Figures 4–5: runtime vs #keywords and vs Δ (Flickr)",
            run: runtime::fig4_5,
        },
        Experiment {
            id: "fig6-7",
            title: "Figures 6–7: OSScaling runtime / accuracy vs ε",
            run: params::fig6_7,
        },
        Experiment {
            id: "fig8-9",
            title: "Figures 8–9: BucketBound runtime / accuracy vs β",
            run: params::fig8_9,
        },
        Experiment {
            id: "fig10-11",
            title: "Figures 10–11: relative ratio vs #keywords and vs Δ",
            run: accuracy::fig10_11,
        },
        Experiment {
            id: "fig12-13",
            title: "Figures 12–13: greedy accuracy and failure rate vs α",
            run: accuracy::fig12_13,
        },
        Experiment {
            id: "fig14-15",
            title: "Figures 14–15: OSScaling vs BucketBound at equal bounds",
            run: params::fig14_15,
        },
        Experiment {
            id: "fig16",
            title: "Figure 16: KkR runtime vs k",
            run: topk::fig16,
        },
        Experiment {
            id: "fig17",
            title: "Figure 17: scalability over road-network sizes",
            run: runtime::fig17,
        },
        Experiment {
            id: "fig18-19",
            title: "Figures 18–19: runtime vs #keywords and vs Δ (road 5k)",
            run: runtime::fig18_19,
        },
        Experiment {
            id: "fig20-21",
            title: "Figures 20–21: example routes under Δ = 9 vs 6 km",
            run: extras::fig20_21,
        },
        Experiment {
            id: "ablation",
            title: "§4.2.1 claim: optimization strategies speed-up",
            run: extras::ablation,
        },
        Experiment {
            id: "brute",
            title: "§4.2.1–4.2.2 claim: brute force vs OSScaling",
            run: extras::brute,
        },
    ]
}

/// Looks up experiments by id; `None` if any id is unknown.
pub fn select(ids: &[String]) -> Option<Vec<Experiment>> {
    let registry = all();
    let mut out = Vec::new();
    for id in ids {
        let found = registry.iter().find(|e| e.id == id)?;
        out.push(Experiment {
            id: found.id,
            title: found.title,
            run: found.run,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn select_finds_known_ids() {
        assert!(select(&["fig4-5".into(), "fig17".into()]).is_some());
        assert!(select(&["nope".into()]).is_none());
        assert_eq!(select(&[]).unwrap().len(), 0);
    }

    #[test]
    fn table1_verifies_the_papers_labels() {
        // `table1` asserts the nine published label tuples itself.
        let ctx = Context::new(crate::profile::Profile::quick());
        let tables = extras::table1(&ctx);
        assert_eq!(tables[0].rows.len(), 9);
        assert!(tables[0].title.contains("θ = ε·τ(v0,v7)·b_min/Δ = 1/5"));
    }

    #[test]
    fn registry_covers_every_figure_of_section4() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        for required in [
            "table1", "fig4-5", "fig6-7", "fig8-9", "fig10-11", "fig12-13", "fig14-15", "fig16",
            "fig17", "fig18-19", "fig20-21", "ablation", "brute",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
    }
}
