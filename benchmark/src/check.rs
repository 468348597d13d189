//! The output checker: every distinct reply is re-walked on the graph of
//! the epoch it reports and, at epoch 0, compared with the exact optimum.

use kor::graph::{Graph, NodeId, Route};
use kor::json::JsonValue;

use crate::workload::{Algo, QuerySpec};

/// Relative slack for comparing sums of the same edge weights that may
/// have been added in another order.
const REL_EPS: f64 = 1e-9;

/// What a reply that passed the checker says.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The epoch the reply reports.
    pub epoch: u64,
    /// Objective of the first route, when that route covers every query
    /// keyword within the budget.
    pub objective: Option<f64>,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_EPS * a.abs().max(b.abs()).max(1.0)
}

/// Checks one `query` reply for `q` against `graph`, the graph of the
/// epoch the reply reports. `optimum` is the exact optimum's objective
/// (`None` when no feasible route exists) and is given only when that
/// epoch's optimum is known.
pub fn check_reply(
    line: &str,
    q: &QuerySpec,
    graph: &Graph,
    optimum: Option<Option<f64>>,
) -> Result<Verdict, String> {
    let value = JsonValue::parse(line).map_err(|e| format!("unparsable reply: {e}"))?;
    if value.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err("reply is not ok".into());
    }
    let result = value.get("result").ok_or("reply has no result")?;
    let epoch = result
        .get("epoch")
        .and_then(JsonValue::as_u64)
        .ok_or("result has no epoch")?;
    if result.get("algo").and_then(JsonValue::as_str) != Some(q.algo.name()) {
        return Err("result names another algorithm".into());
    }
    let routes = result
        .get("routes")
        .and_then(JsonValue::as_arr)
        .ok_or("result has no routes")?;
    if routes.len() > q.algo.k() {
        return Err(format!("{} routes for k = {}", routes.len(), q.algo.k()));
    }
    let flag = |name: &str| result.get(name).and_then(JsonValue::as_bool);
    let mut objectives = Vec::with_capacity(routes.len());
    let mut first_feasible = None;
    for (i, r) in routes.iter().enumerate() {
        let (objective, feasible) = check_route(r, q, graph)?;
        match q.algo {
            Algo::Greedy => {
                let (covers, within) = (flag("covers_keywords"), flag("within_budget"));
                let (Some(covers), Some(within)) = (covers, within) else {
                    return Err("greedy result lacks its constraint flags".into());
                };
                if covers && !feasible.covers {
                    return Err("greedy claims keyword coverage it lacks".into());
                }
                if within && !feasible.within {
                    return Err("greedy claims a budget it exceeds".into());
                }
            }
            _ if !(feasible.covers && feasible.within) => {
                return Err(format!(
                    "route {i} is infeasible (covers {}, within budget {})",
                    feasible.covers, feasible.within
                ));
            }
            _ => {}
        }
        if i == 0 && feasible.covers && feasible.within {
            first_feasible = Some(objective);
        }
        objectives.push(objective);
    }
    if objectives.windows(2).any(|w| w[1] < w[0]) {
        return Err("top-k routes are not sorted by objective".into());
    }
    if q.algo != Algo::Greedy
        && result.get("feasible").and_then(JsonValue::as_bool) != Some(!routes.is_empty())
    {
        return Err("\"feasible\" disagrees with the routes".into());
    }
    if let Some(optimum) = optimum {
        check_against_optimum(q.algo, routes.is_empty(), first_feasible, optimum)?;
    }
    Ok(Verdict {
        epoch,
        objective: first_feasible,
    })
}

/// Whether a route covers the query keywords and keeps within `Δ`.
struct Feasibility {
    covers: bool,
    within: bool,
}

/// Re-walks one route: endpoints, edges, reported scores against the
/// edge sums, keyword coverage, and budget.
fn check_route(r: &JsonValue, q: &QuerySpec, graph: &Graph) -> Result<(f64, Feasibility), String> {
    let nodes = r
        .get("nodes")
        .and_then(JsonValue::as_arr)
        .ok_or("route has no nodes")?
        .iter()
        .map(|n| {
            n.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(NodeId)
                .ok_or_else(|| "route node is not a node id".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let route = Route::new(nodes);
    if route.source() != Some(q.source) || route.target() != Some(q.target) {
        return Err("route does not run from the query's source to its target".into());
    }
    let (os, bs) = route
        .scores(graph)
        .map_err(|e| format!("route does not walk the graph: {e:?}"))?;
    let objective = r
        .get("objective")
        .and_then(JsonValue::as_f64)
        .ok_or("route has no objective")?;
    let budget = r
        .get("budget")
        .and_then(JsonValue::as_f64)
        .ok_or("route has no budget")?;
    if !close(objective, os) || !close(budget, bs) {
        return Err(format!(
            "reported scores ({objective}, {budget}) differ from the edge sums ({os}, {bs})"
        ));
    }
    let feasibility = Feasibility {
        covers: route.covers(graph, &q.keywords),
        within: bs <= q.budget * (1.0 + REL_EPS),
    };
    Ok((objective, feasibility))
}

/// Compares a reply with the exact optimum: feasibility must agree
/// (except for the heuristic, which may miss a feasible route), no
/// feasible route may beat the optimum, and the approximation
/// algorithms must stay within their proven bounds.
fn check_against_optimum(
    algo: Algo,
    no_routes: bool,
    first_feasible: Option<f64>,
    optimum: Option<f64>,
) -> Result<(), String> {
    match (optimum, first_feasible) {
        (None, Some(_)) => Err("a feasible route for a query with no feasible route".into()),
        (Some(_), None) if algo != Algo::Greedy => {
            Err("no route although a feasible route exists".into())
        }
        (Some(opt), Some(found)) => {
            if found < opt * (1.0 - REL_EPS) {
                return Err(format!("objective {found} beats the optimum {opt}"));
            }
            match algo.ratio_bound() {
                Some(bound) if found > bound * opt * (1.0 + REL_EPS) => Err(format!(
                    "objective {found} exceeds {bound} × the optimum {opt}"
                )),
                _ => Ok(()),
            }
        }
        (None, None) if algo != Algo::Greedy && !no_routes => {
            Err("routes reported for an infeasible query".into())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use kor::core::{KorEngine, KorQuery, OsScalingParams};
    use std::sync::Arc;

    /// A genuine reply for the first feasible `os-scaling` query of
    /// `light-wire`, rendered the way `kor serve` renders it.
    fn genuine() -> (String, QuerySpec, Graph, f64) {
        let (world, queries) = Workload::LightWire.generate();
        let graph = world.graph;
        let engine = KorEngine::new(Arc::new(graph.clone()));
        for q in queries {
            let kq =
                KorQuery::new(&graph, q.source, q.target, q.keywords.clone(), q.budget).unwrap();
            let opt = engine.exact(&kq).unwrap();
            let Some(opt) = opt.route else { continue };
            let found = engine.os_scaling(&kq, &OsScalingParams::default()).unwrap();
            let r = found.route.unwrap();
            let nodes: Vec<String> = r.route.nodes().iter().map(|n| n.0.to_string()).collect();
            let line = format!(
                "{{\"id\":0,\"ok\":true,\"result\":{{\"dataset\":\"bench\",\"algo\":\"os-scaling\",\
                 \"epoch\":0,\"feasible\":true,\"routes\":[{{\"nodes\":[{}],\"objective\":{},\
                 \"budget\":{}}}]}}}}",
                nodes.join(","),
                r.objective,
                r.budget
            );
            return (line, q, graph, opt.objective);
        }
        panic!("light-wire has no feasible query");
    }

    #[test]
    fn accepts_a_genuine_reply() {
        let (line, q, graph, opt) = genuine();
        let v = check_reply(&line, &q, &graph, Some(Some(opt))).unwrap();
        assert_eq!(v.epoch, 0);
        assert!(v.objective.unwrap() >= opt);
    }

    #[test]
    fn rejects_tampered_replies() {
        let (line, q, graph, opt) = genuine();
        let value = JsonValue::parse(&line).unwrap();
        let route = value
            .get("result")
            .unwrap()
            .get("routes")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .clone();
        let objective = route.get("objective").unwrap().as_f64().unwrap();
        let budget = route.get("budget").unwrap().as_f64().unwrap();
        let nodes = route.get("nodes").unwrap().render();
        let tampered = [
            // A cheaper objective than the edges add up to.
            line.replace(
                &format!("\"objective\":{objective}"),
                &format!("\"objective\":{}", objective * 0.9),
            ),
            // A budget that hides the real cost.
            line.replace(
                &format!("\"budget\":{budget}"),
                &format!("\"budget\":{}", budget * 0.5),
            ),
            // A route that skips its middle.
            line.replace(&nodes, &format!("[{},{}]", q.source.0, q.target.0)),
            // Infeasible although the optimum exists.
            line.replace(&format!("\"routes\":[{}]", route.render()), "\"routes\":[]")
                .replace("\"feasible\":true", "\"feasible\":false"),
            // An error instead of an answer.
            line.replace("\"ok\":true", "\"ok\":false"),
            // Another world generation's answer passed off as epoch 0 is
            // caught by the caller; here, another algorithm's.
            line.replace("os-scaling", "greedy"),
        ];
        for t in tampered {
            assert_ne!(t, line, "tamper had no effect");
            assert!(
                check_reply(&t, &q, &graph, Some(Some(opt))).is_err(),
                "accepted: {t}"
            );
        }
        // A route far worse than the proven bound.
        assert!(check_reply(&line, &q, &graph, Some(Some(opt / 3.0))).is_err());
        // A feasible answer to a query the optimum calls infeasible.
        assert!(check_reply(&line, &q, &graph, Some(None)).is_err());
    }

    #[test]
    fn greedy_flags_must_hold() {
        let (line, q, graph, _) = genuine();
        let greedy_q = QuerySpec {
            algo: Algo::Greedy,
            budget: 0.0,
            ..q
        };
        let claims = line
            .replace("os-scaling", "greedy")
            .replace("]}}", "],\"covers_keywords\":true,\"within_budget\":true}}");
        // The route exceeds a zero budget, so `within_budget` is false.
        assert!(check_reply(&claims, &greedy_q, &graph, None).is_err());
        let honest = claims.replace("\"within_budget\":true", "\"within_budget\":false");
        let v = check_reply(&honest, &greedy_q, &graph, None).unwrap();
        assert_eq!(v.objective, None);
    }
}
