//! The workload registry: Table I of the paper.
//!
//! 25 applications across five domains plus the two mini-benchmarks,
//! addressable by name. The 25 applications form the 625 consolidation
//! pairs of Fig. 5; the mini-benchmarks drive the Fig. 6 sensitivity
//! study.

use std::collections::HashMap;
use std::sync::Arc;

use crate::graph::LazyAssets;
use crate::scale::Scale;
use crate::spec::{Domain, WorkloadSpec};
use crate::{cntk, graph, hpc, mini, parsec, speccpu};

/// All workloads of the study, built for one [`Scale`].
pub struct Registry {
    scale: Scale,
    specs: Vec<WorkloadSpec>,
    by_name: HashMap<&'static str, usize>,
    /// The assets the graph specs share; tests check when they are built.
    #[cfg(test)]
    graph: Arc<LazyAssets>,
}

impl Registry {
    /// Builds the full registry. The shared graph and every graph
    /// algorithm's frontiers are a one-time host cost, paid when the first
    /// graph stream is built, not here.
    pub fn new(scale: Scale) -> Self {
        let graph = Arc::new(LazyAssets::new(scale));
        let mut specs = graph::specs(&graph);
        specs.extend(cntk::specs(&scale));
        specs.extend(parsec::specs(&scale));
        specs.extend(speccpu::specs(&scale));
        specs.extend(hpc::specs(&scale));
        specs.extend(mini::specs(&scale));
        let by_name = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name, i))
            .collect();
        Registry {
            scale,
            specs,
            by_name,
            #[cfg(test)]
            graph,
        }
    }

    /// The scale the registry was built for.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// All workloads including the mini-benchmarks.
    pub fn all(&self) -> &[WorkloadSpec] {
        &self.specs
    }

    /// The 25 applications of the consolidation study (mini-benchmarks
    /// excluded) — the rows and columns of Fig. 5.
    pub fn applications(&self) -> Vec<&WorkloadSpec> {
        self.specs.iter().filter(|s| s.domain != Domain::Mini).collect()
    }

    /// The two mini-benchmarks.
    pub fn minis(&self) -> Vec<&WorkloadSpec> {
        self.specs.iter().filter(|s| s.domain == Domain::Mini).collect()
    }

    /// Lookup by paper name (e.g. "G-PR", "fotonik3d", "stream").
    pub fn get(&self, name: &str) -> Option<&WorkloadSpec> {
        self.by_name.get(name).map(|&i| &self.specs[i])
    }

    /// Workloads of one domain.
    pub fn by_domain(&self, domain: Domain) -> Vec<&WorkloadSpec> {
        self.specs.iter().filter(|s| s.domain == domain).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Barrier;

    use cochar_trace::slot::stream_census;
    use cochar_trace::{SlotStream, StreamParams};

    fn registry() -> Registry {
        Registry::new(Scale::tiny())
    }

    #[test]
    fn twenty_five_applications_plus_two_minis() {
        let r = registry();
        assert_eq!(r.applications().len(), 25);
        assert_eq!(r.minis().len(), 2);
        assert_eq!(r.all().len(), 27);
    }

    #[test]
    fn names_are_unique() {
        let r = registry();
        let names: std::collections::HashSet<_> = r.all().iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn table_one_counts_per_suite() {
        let r = registry();
        let count = |suite: &str| r.all().iter().filter(|s| s.suite == suite).count();
        assert_eq!(count("GeminiGraph"), 5);
        assert_eq!(count("PowerGraph"), 3);
        assert_eq!(count("CNTK"), 4);
        assert_eq!(count("PARSEC"), 4);
        assert_eq!(count("SPEC CPU2017"), 6);
        assert_eq!(count("HPC"), 3);
        assert_eq!(count("mini-benchmarks"), 2);
    }

    #[test]
    fn lookup_by_name() {
        let r = registry();
        assert_eq!(r.get("G-PR").unwrap().suite, "GeminiGraph");
        assert_eq!(r.get("fotonik3d").unwrap().domain, Domain::SpecCpu);
        assert!(r.get("nonexistent").is_none());
    }

    #[test]
    fn by_domain_partitions_the_set() {
        let r = registry();
        let total: usize = [
            Domain::Graph,
            Domain::DeepLearning,
            Domain::Parsec,
            Domain::SpecCpu,
            Domain::Hpc,
            Domain::Mini,
        ]
        .iter()
        .map(|&d| r.by_domain(d).len())
        .sum();
        assert_eq!(total, 27);
    }

    fn params(thread: usize, threads: usize) -> StreamParams {
        StreamParams { thread, threads, base: 0, seed: 1 }
    }

    #[test]
    fn new_leaves_the_graph_unbuilt() {
        let r = registry();
        assert_eq!(r.graph.builds.load(Ordering::Relaxed), 0);
        assert!(r.graph.assets.get().is_none());
    }

    #[test]
    fn concurrent_graph_streams_build_the_assets_once() {
        let r = registry();
        let barrier = Barrier::new(4);
        let built: Vec<(Box<dyn SlotStream>, Arc<cochar_graphs::Csr>)> = std::thread::scope(|s| {
            let workers: Vec<_> = ["G-PR", "P-CC", "G-PR", "P-CC"]
                .into_iter()
                .enumerate()
                .map(|(thread, name)| {
                    let (r, barrier) = (&r, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let stream = r.get(name).unwrap().factory.build(&params(thread, 4));
                        (stream, r.graph.assets.get().unwrap().csr.clone())
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(r.graph.builds.load(Ordering::Relaxed), 1);
        let (streams, csrs): (Vec<_>, Vec<_>) = built.into_iter().unzip();
        assert!(csrs.iter().all(|c| Arc::ptr_eq(c, &csrs[0])));
        drop(csrs);
        // The registry's assets hold one reference, each stream another:
        // every stream scans the one shared graph.
        let csr = &r.graph.assets.get().unwrap().csr;
        assert_eq!(Arc::strong_count(csr), 1 + streams.len());
    }

    #[test]
    fn non_graph_apps_never_build_the_graph() {
        let r = registry();
        for spec in r.all().iter().filter(|s| s.domain != Domain::Graph) {
            let mut stream = spec.factory.build(&params(0, 2));
            let (instr, _, _, _) = stream_census(&mut *stream, 50_000_000);
            assert!(instr > 0, "{} produced no instructions", spec.name);
        }
        assert_eq!(r.graph.builds.load(Ordering::Relaxed), 0);
        assert!(r.graph.assets.get().is_none());
    }
}
