//! The workloads and the synthesis chains they time.
//!
//! The online chain makes the same public calls as the streaming branch of
//! `Siesta::synthesize_run` (and `siesta synthesize`), with the workload
//! seed added: `World::with_seed` + `Recorder::new_streaming` →
//! `Recorder::finish_streamed` → `Siesta::merge_streamed` →
//! `Siesta::synthesize_streamed_global` → `wire::to_bytes`. The offline
//! chain is the paper's "trace on production, synthesize anywhere" path:
//! `load_trace` → `Siesta::synthesize_global` → `wire::to_bytes`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use siesta_codegen::wire;
use siesta_core::{Siesta, SiestaConfig, Synthesis};
use siesta_mpisim::{PmpiHook, Rank, RankFut, RunStats, World};
use siesta_perfmodel::Machine;
use siesta_trace::{load_trace, Recorder, StreamedGlobal};
use siesta_workloads::{ProblemSize, Program};

/// The seed `World` uses when none is given; the benchmark's default.
pub const DEFAULT_SEED: u64 = 0x51e57a;

/// One benchmark input: a program, its rank count and problem size, and
/// whether the timed work starts from a stored trace.
pub struct Workload {
    pub name: &'static str,
    pub program: Program,
    pub nranks: usize,
    pub size: ProblemSize,
    pub offline: bool,
}

/// The first two are the ones `BENCHMARK.json` runs. Their syntheses take
/// 40-140 ms, short enough that every timed loop holds syntheses that ran
/// in the host's fast spells (METRICS.md, "Host noise"). The rest run by
/// name: two more 256-rank chains, and the same chains at the scale the
/// benchmark was first specified at (0.2-1.9 s per synthesis).
pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "cg-256",
        program: Program::Cg,
        nranks: 256,
        size: ProblemSize::Small,
        offline: false,
    },
    Workload {
        name: "cg-256-offline",
        program: Program::Cg,
        nranks: 256,
        size: ProblemSize::Small,
        offline: true,
    },
    Workload {
        name: "sweep3d-256-small",
        program: Program::Sweep3d,
        nranks: 256,
        size: ProblemSize::Small,
        offline: false,
    },
    Workload {
        name: "is-256",
        program: Program::Is,
        nranks: 256,
        size: ProblemSize::Small,
        offline: false,
    },
    Workload {
        name: "cg-1024",
        program: Program::Cg,
        nranks: 1024,
        size: ProblemSize::Small,
        offline: false,
    },
    Workload {
        name: "sweep3d-256",
        program: Program::Sweep3d,
        nranks: 256,
        size: ProblemSize::Reference,
        offline: false,
    },
    Workload {
        name: "is-1024",
        program: Program::Is,
        nranks: 1024,
        size: ProblemSize::Small,
        offline: false,
    },
    Workload {
        name: "cg-1024-offline",
        program: Program::Cg,
        nranks: 1024,
        size: ProblemSize::Small,
        offline: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

type Body = Box<dyn Fn(Rank) -> RankFut<'static> + Send + Sync>;

/// Everything one synthesis needs, built once in set-up.
pub struct Bench {
    pub workload: &'static Workload,
    pub machine: Machine,
    pub siesta: Siesta,
    pub seed: u64,
    body: Body,
    /// The stored trace the offline chain reads (offline workloads only).
    pub store: Option<PathBuf>,
}

/// One synthesis' result: the encoded proxy, the synthesis it came from,
/// and how many events the trace held.
pub struct Output {
    pub bytes: Vec<u8>,
    pub synthesis: Synthesis,
    pub events: usize,
}

impl Bench {
    pub fn new(workload: &'static Workload, machine: Machine, seed: u64) -> Bench {
        Bench {
            workload,
            machine,
            // Streaming ingest, memo on, scale 1.0, stream_buf 4096.
            siesta: Siesta::new(SiestaConfig::default()),
            seed,
            body: workload.program.body(workload.size),
            store: None,
        }
    }

    /// A world of the workload's ranks with its seed, optionally hooked.
    pub fn world(&self, hook: Option<Arc<dyn PmpiHook>>) -> World {
        let world = World::new(self.machine, self.workload.nranks).with_seed(self.seed);
        match hook {
            Some(h) => world.with_hook(h),
            None => world,
        }
    }

    /// Run the program in `world`, reporting a deadlock as an error.
    pub fn run(&self, world: &World) -> Result<RunStats, String> {
        world.try_run(|r| (self.body)(r)).map_err(|d| d.to_string())
    }

    /// A streaming recorder with the synthesis' trace configuration.
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::new(Recorder::new_streaming(self.workload.nranks, self.siesta.config.trace))
    }

    /// Trace the program and merge the per-rank streams: the online front
    /// half. Returns the merged trace and the number of events recorded.
    pub fn record_and_merge(&self) -> Result<(StreamedGlobal, usize), String> {
        let recorder = self.recorder();
        self.run(&self.world(Some(recorder.clone())))?;
        let st = recorder.finish_streamed();
        let events = st.total_events();
        Ok((self.siesta.merge_streamed(st), events))
    }

    /// Online back half: synthesize from the merged trace and encode.
    pub fn synthesize_merged(&self, sg: StreamedGlobal, events: usize) -> Output {
        let synthesis = self.siesta.synthesize_streamed_global(sg, &self.machine);
        let bytes = wire::to_bytes(&synthesis.program);
        Output { bytes, synthesis, events }
    }

    /// One untraced synthesis through the workload's chain.
    pub fn synthesize(&self) -> Result<Output, String> {
        match &self.store {
            Some(path) => self.synthesize_offline(path),
            None => {
                let (sg, events) = self.record_and_merge()?;
                Ok(self.synthesize_merged(sg, events))
            }
        }
    }

    fn synthesize_offline(&self, path: &Path) -> Result<Output, String> {
        let global = load_trace(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let events = global.seqs.iter().map(Vec::len).sum();
        let synthesis = self.siesta.synthesize_global(global, &self.machine);
        let bytes = wire::to_bytes(&synthesis.program);
        Ok(Output { bytes, synthesis, events })
    }

    /// The proxy bytes of the product's own one-call path,
    /// `Siesta::synthesize_run`, which knows no seed: only comparable to
    /// the benchmark's chain at [`DEFAULT_SEED`].
    pub fn library_bytes(&self) -> Vec<u8> {
        let (synthesis, _) =
            self.siesta.synthesize_run(self.machine, self.workload.nranks, |r| (self.body)(r));
        wire::to_bytes(&synthesis.program)
    }
}
