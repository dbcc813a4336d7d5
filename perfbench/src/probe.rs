//! Layer probes of a traced run: each times calls into one layer's public
//! functions on the workload's own inputs, and records a span per call.

use crate::tier::{designs, Cell, Tier, Traffic};
use crate::util::{self, SpanLog};
use crate::{BenchError, Options, Outcome};
use rasa_cpu::{CpuCore, SchedStats};
use rasa_sim::net::{ClientStats, Frame, FrameDecoder, FrameKind, RouterConfig};
use rasa_sim::serve::{GemmRequest, GemmServer, ServeConfig};
use rasa_sim::{
    ExperimentRunner, FromJson, JsonValue, NetClient, Router, SimJob, SimReport, Simulator, ToJson,
    WireRequest, WireResponse,
};
use rasa_systolic::MatrixEngine;
use rasa_trace::{GemmKernelConfig, TraceGenerator};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The probes of one traced run, recording into its span log.
#[derive(Debug)]
pub struct Probes<'a> {
    log: &'a SpanLog,
}

fn micros(start: Instant, end: Instant) -> f64 {
    (end - start).as_secs_f64() * 1e6
}

impl<'a> Probes<'a> {
    /// Probes recording into `log`.
    #[must_use]
    pub fn new(log: &'a SpanLog) -> Probes<'a> {
        Probes { log }
    }

    /// Trace generation, the core model and the simulator, cell by cell,
    /// then the runner over all cells at once. Returns the simulator's
    /// reports.
    ///
    /// Metrics: `trace.ns_per_instr` (`TraceGenerator::gemm`),
    /// `core.ns_per_instr` and `core.skip_rate` (`CpuCore::run` on the
    /// generated program), `sim.cell_ms`, `sim.overlap_x`,
    /// `sim.spec_commit_rate` and `sim.peak_resident_instrs`
    /// (`Simulator::run_layer`), `runner.parallel_eff`
    /// (`ExperimentRunner::run_jobs`).
    ///
    /// # Errors
    ///
    /// Simulation failures.
    pub fn core_layers(
        &self,
        out: &mut Outcome,
        cells: &[Cell],
        cap: Option<usize>,
    ) -> Result<Vec<SimReport>, BenchError> {
        let designs = designs();
        let mut spans = self.log.local();
        let root = spans.reserve();
        let phase = Instant::now();
        let generator = TraceGenerator::amx_like().with_kernel(GemmKernelConfig {
            max_matmuls: cap,
            ..GemmKernelConfig::default()
        })?;
        let (mut trace_s, mut core_s, mut instructions) = (0.0, 0.0, 0usize);
        let mut sched = SchedStats::default();
        let mut cell_s = Vec::new();
        let (mut forks, mut commits, mut peak_resident) = (0u64, 0u64, 0u64);
        let mut reports = Vec::new();
        for (index, (design, layer)) in cells.iter().enumerate() {
            let design = &designs[*design];
            let req = index as u64;
            let t0 = Instant::now();
            let program = generator.gemm(layer.gemm_shape(), layer.name())?;
            let t1 = Instant::now();
            let mut core = CpuCore::new(*design.cpu(), MatrixEngine::new(*design.systolic()));
            black_box(core.run(&program)?);
            let t2 = Instant::now();
            sched.accumulate(core.sched_stats());
            instructions += program.len();
            drop(program);
            let simulator = Simulator::new(design.clone())?.with_matmul_cap(cap)?;
            let t3 = Instant::now();
            let report = simulator.run_layer(layer)?;
            let t4 = Instant::now();
            spans.record("trace.gemm", t0, t1, root, req);
            spans.record("core.run", t1, t2, root, req);
            spans.record("sim.run_layer", t3, t4, root, req);
            trace_s += (t1 - t0).as_secs_f64();
            core_s += (t2 - t1).as_secs_f64();
            cell_s.push((t4 - t3).as_secs_f64());
            forks += report.pipeline.spec_forks;
            commits += report.pipeline.spec_commits;
            peak_resident = peak_resident.max(report.pipeline.peak_resident_instructions);
            reports.push(report);
        }
        let serial_s: f64 = cell_s.iter().sum();

        let runner = ExperimentRunner::builder().with_matmul_cap(cap).build()?;
        let jobs: Vec<SimJob> = cells
            .iter()
            .map(|(design, layer)| SimJob::new(designs[*design].clone(), layer.clone()))
            .collect();
        let t0 = Instant::now();
        let parallel = runner.run_jobs(&jobs)?;
        let t1 = Instant::now();
        spans.record("runner.run_jobs", t0, t1, root, 0);
        if parallel
            .iter()
            .zip(&reports)
            .any(|(runner_report, report)| runner_report.summary() != report.summary())
        {
            out.broken_checks
                .push("runner and simulator disagree on a cell".to_string());
        }
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        spans.record_as(root, "probe.core_layers", phase, Instant::now(), 0, 0);
        spans.flush();

        let per_instr = |seconds: f64| seconds * 1e9 / instructions.max(1) as f64;
        out.metric("trace.ns_per_instr", per_instr(trace_s));
        out.metric("core.ns_per_instr", per_instr(core_s));
        out.metric("core.skip_rate", sched.skip_rate());
        out.metric("sim.overlap_x", (trace_s + core_s) / serial_s);
        out.metric("sim.spec_commit_rate", commits as f64 / forks.max(1) as f64);
        out.metric("sim.peak_resident_instrs", peak_resident as f64);
        out.metric("sim.cell_ms", util::median(&mut cell_s) * 1e3);
        out.metric(
            "runner.parallel_eff",
            serial_s / ((t1 - t0).as_secs_f64() * threads as f64),
        );
        out.note("probe_cells", cells.len());
        out.note("probe_instructions", instructions);
        out.note("spec_forks", forks);
        Ok(reports)
    }

    /// JSON and frame codecs on real responses, with no socket involved.
    ///
    /// Metrics: `json.encode_ns_per_byte` (`ToJson` + compact writer),
    /// `json.parse_ns_per_byte` (`JsonValue::parse` +
    /// `WireResponse::from_json`), `json.response_bytes`, `wire.encode_us`
    /// (`Frame::encode`), `wire.decode_us` (`FrameDecoder::feed`).
    ///
    /// # Errors
    ///
    /// When `responses` is empty or an encoding does not round-trip.
    pub fn codec_layers(
        &self,
        out: &mut Outcome,
        responses: &[WireResponse],
        iters: usize,
    ) -> Result<(), BenchError> {
        if responses.is_empty() {
            return Err("the codec probe needs at least one response".into());
        }
        let mut spans = self.log.local();
        let root = spans.reserve();
        let phase = Instant::now();
        let (mut encode_s, mut parse_s, mut bytes) = (0.0, 0.0, 0usize);
        let mut sizes = Vec::new();
        let (mut frame_encode_us, mut frame_decode_us) = (Vec::new(), Vec::new());
        for round in 0..iters.div_ceil(responses.len()) {
            for (index, response) in responses.iter().enumerate() {
                let req = (round * responses.len() + index) as u64;
                let t0 = Instant::now();
                let text = response.to_json().to_string_compact();
                let t1 = Instant::now();
                let parsed = WireResponse::from_json(&JsonValue::parse(&text)?)?;
                let t2 = Instant::now();
                if parsed.to_json().to_string_compact() != text {
                    return Err("a response does not round-trip through JSON".into());
                }
                let frame = Frame::json(FrameKind::Response, &JsonValue::parse(&text)?);
                let t3 = Instant::now();
                let wire = frame.encode();
                let t4 = Instant::now();
                let mut decoder = FrameDecoder::new();
                let mut offset = 0;
                let decoded = loop {
                    let (used, frame) = decoder.feed(&wire[offset..])?;
                    offset += used;
                    if let Some(frame) = frame {
                        break frame;
                    }
                };
                let t5 = Instant::now();
                if decoded != frame {
                    return Err("a frame does not round-trip through the decoder".into());
                }
                spans.record("json.encode", t0, t1, root, req);
                spans.record("json.parse", t1, t2, root, req);
                spans.record("wire.encode", t3, t4, root, req);
                spans.record("wire.decode", t4, t5, root, req);
                encode_s += (t1 - t0).as_secs_f64();
                parse_s += (t2 - t1).as_secs_f64();
                bytes += text.len();
                if round == 0 {
                    sizes.push(text.len() as f64);
                }
                frame_encode_us.push(micros(t3, t4));
                frame_decode_us.push(micros(t4, t5));
            }
        }
        spans.record_as(root, "probe.codec_layers", phase, Instant::now(), 0, 0);
        spans.flush();
        out.metric("json.encode_ns_per_byte", encode_s * 1e9 / bytes as f64);
        out.metric("json.parse_ns_per_byte", parse_s * 1e9 / bytes as f64);
        out.metric("json.response_bytes", util::median(&mut sizes));
        out.metric("wire.encode_us", util::median(&mut frame_encode_us));
        out.metric("wire.decode_us", util::median(&mut frame_decode_us));
        out.note("codec_responses", responses.len());
        Ok(())
    }

    /// The request path piece by piece, interleaved per iteration on the
    /// same warm cell so every median sees the same conditions:
    /// `GemmServer::submit` + `wait` on a cached cell, in-process
    /// `Router::route` on a result-cache hit and on a miss (cache off) over
    /// the tier's shards, `NetClient::request` straight to the cell's home
    /// shard, and `NetClient::request` through the bound router on a hit.
    /// Returns the probe clients' counters and the cells' answers through
    /// the bound router.
    ///
    /// Metrics: `serve.hit_us`, `router.hit_us`, `shard.rtt_us`, and the
    /// residuals `router.front_us` (router hit end to end minus
    /// `Router::route`), `router.miss_self_us` (route miss minus
    /// `shard.rtt_us`), `shard.front_us` (`shard.rtt_us` minus
    /// `serve.hit_us`), each checked non-negative.
    ///
    /// # Errors
    ///
    /// Any failed request, or answers that disagree between paths.
    pub fn net_layers(
        &self,
        out: &mut Outcome,
        tier: &Tier,
        cells: &[Cell],
        iters: usize,
    ) -> Result<(ClientStats, Vec<WireResponse>), BenchError> {
        let designs = designs();
        let mut spans = self.log.local();
        let root = spans.reserve();
        let phase = Instant::now();
        let server = GemmServer::new(ServeConfig::default(), &designs)?;
        let hit_router = Router::new(&tier.shard_addrs, RouterConfig::default())?;
        let miss_router = Router::new(
            &tier.shard_addrs,
            RouterConfig {
                result_cache_capacity: 0,
                ..RouterConfig::default()
            },
        )?;
        let mut direct: Vec<NetClient> = tier
            .shard_addrs
            .iter()
            .map(|addr| NetClient::new(vec![addr.clone()]))
            .collect();
        let mut front = NetClient::new(vec![tier.addr.clone()]);
        let requests: Vec<WireRequest> = cells
            .iter()
            .enumerate()
            .map(|(id, (design, layer))| {
                WireRequest::new(id as u64, designs[*design].name(), layer.clone())
            })
            .collect();
        let mut homes = Vec::new();
        let mut answers = Vec::new();
        let mut responses = Vec::new();
        for (request, (design, layer)) in requests.iter().zip(cells) {
            server
                .submit(GemmRequest::new(designs[*design].clone(), layer.clone()))?
                .wait()?;
            answers.push(hit_router.route(request)?.report);
            responses.push(front.request(request)?);
            homes.push(tier.router.home_shard(request)? as usize);
        }
        let mut samples: [Vec<f64>; 5] = Default::default();
        let names = [
            "serve.submit_wait",
            "router.route_hit",
            "router.route_miss",
            "shard.request",
            "client.request_router_hit",
        ];
        for iteration in 0..iters {
            let index = iteration % cells.len();
            let request = &requests[index];
            let (design, layer) = &cells[index];
            let gemm = GemmRequest::new(designs[*design].clone(), layer.clone());
            let t0 = Instant::now();
            let served = server.submit(gemm)?.wait()?;
            let t1 = Instant::now();
            let hit = hit_router.route(request)?;
            let t2 = Instant::now();
            let miss = miss_router.route(request)?;
            let t3 = Instant::now();
            let shard = direct[homes[index]].request(request)?;
            let t4 = Instant::now();
            let e2e = front.request(request)?;
            let t5 = Instant::now();
            let expected = &answers[index];
            if [
                &hit.report,
                &miss.report,
                &shard.report,
                &e2e.report,
                &*served.report,
            ]
            .iter()
            .any(|report| *report != expected)
            {
                return Err("request paths disagree on an answer".into());
            }
            for (slot, (start, end)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)]
                .into_iter()
                .enumerate()
            {
                samples[slot].push(micros(start, end));
                spans.record(names[slot], start, end, root, request.id);
            }
        }
        server.shutdown();
        let [serve, hit, miss, rtt, e2e] =
            samples.map(|mut samples| util::median_with_error(&mut samples));
        spans.record_as(root, "probe.net_layers", phase, Instant::now(), 0, 0);
        spans.flush();
        out.metric("serve.hit_us", serve.0);
        out.metric("router.hit_us", hit.0);
        out.metric("shard.rtt_us", rtt.0);
        for (name, whole, part) in [
            ("router.front_us", e2e, hit),
            ("router.miss_self_us", miss, rtt),
            ("shard.front_us", rtt, serve),
        ] {
            let value = whole.0 - part.0;
            out.require_non_negative(name, value, whole.1.hypot(part.1));
            out.metric(name, value);
        }
        let (miss, e2e) = (miss.0, e2e.0);
        out.note("router_route_miss_us", miss);
        out.note("client_router_hit_us", e2e);
        out.note("net_probe_samples", iters);
        let mut stats = front.stats();
        for client in &direct {
            stats.retries += client.stats().retries;
            stats.connects += client.stats().connects;
        }
        Ok((stats, responses))
    }

    /// Replays the workload's request stream against an in-process
    /// `GemmServer` at the shards' configuration, with the same closed-loop
    /// clients.
    ///
    /// Metrics: `serve.queue_us` (median `GemmResponse.latency` queue
    /// time) and `serve.mean_batch` (requests per dispatched batch).
    ///
    /// # Errors
    ///
    /// Any failed request.
    pub fn serve_replay(
        &self,
        out: &mut Outcome,
        options: &Options,
        duration: Duration,
    ) -> Result<(), BenchError> {
        let designs = designs();
        let clients = crate::tier::client_count();
        let server = GemmServer::new(ServeConfig::default(), &designs)?;
        let submit = |(design, layer): &Cell| {
            server
                .submit(GemmRequest::new(designs[*design].clone(), layer.clone()))
                .and_then(rasa_sim::ResponseHandle::wait)
        };
        let before = server.stats();
        let queue = Mutex::new(Vec::new());
        let deadline = Instant::now() + duration;
        std::thread::scope(|scope| -> Result<(), BenchError> {
            let workers: Vec<_> = (0..clients)
                .map(|client| {
                    let (queue, submit) = (&queue, &submit);
                    scope.spawn(move || -> Result<(), BenchError> {
                        let mut spans = self.log.local();
                        let mut traffic = Traffic::for_workload(
                            options.workload,
                            &options.scale,
                            options.seed,
                            32 + client as u64,
                        );
                        let mut waits = Vec::new();
                        let mut req = 0;
                        while Instant::now() < deadline {
                            let cell = traffic.next_cell();
                            let t0 = Instant::now();
                            let response = submit(&cell)?;
                            spans.record("serve.replay_request", t0, Instant::now(), 0, req);
                            req += 1;
                            waits.push(response.latency.queue_seconds * 1e6);
                        }
                        spans.flush();
                        queue.lock().expect("replay lock").extend(waits);
                        Ok(())
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|worker| worker.join().expect("replay client panicked"))
        })?;
        let after = server.stats();
        server.shutdown();
        let mut queue = queue.into_inner().expect("replay lock");
        if queue.is_empty() {
            return Err("the serve replay completed no request".into());
        }
        let batches = after.batches - before.batches;
        out.metric("serve.queue_us", util::median(&mut queue));
        out.metric(
            "serve.mean_batch",
            (after.completed - before.completed) as f64 / batches.max(1) as f64,
        );
        out.note("replay_requests", queue.len());
        Ok(())
    }
}
