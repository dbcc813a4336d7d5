//! Differential tests of the declared JSON codecs through the public
//! facade: for every declared document, the frame writer (which encodes
//! straight into the payload) writes exactly the bytes of the tree API's
//! compact text, and the pull decoder (which builds no tree) decodes
//! exactly what the tree decoder decodes.

use proptest::prelude::*;
use rasa::prelude::*;
use rasa::sim::json::{self, FromJson, JsonValue, ToJson};
use rasa::sim::net::ErrorCode;
use rasa::sim::net::{
    Frame, FrameKind, HealthStatus, RouterHealth, RouterStats, WireFailure, WireResponse,
};
use rasa::sim::search::GenerationRecord;
use rasa::sim::{CacheStats, LatencySummary, PipelineStats, ServeStats, SimSummary};
use rasa::systolic::EngineStats;
use std::fmt::Debug;

/// Values drawn from one case seed: the boundary integers, floats from
/// subnormal to 1e300 of either sign, and names with escapes and
/// non-ASCII characters.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        // xorshift64*: any nonzero state walks the whole cycle.
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next() % options.len() as u64) as usize]
    }

    fn u64(&mut self) -> u64 {
        let random = self.next();
        self.pick(&[0, 1, 1 << 63, u64::MAX, random])
    }

    fn usize(&mut self) -> usize {
        usize::try_from(self.u64()).expect("64-bit usize")
    }

    fn u32(&mut self) -> u32 {
        let random = self.next() as u32;
        self.pick(&[0, 1, 1 << 31, u32::MAX, random])
    }

    fn f64(&mut self) -> f64 {
        let mantissa = 1.0 + (self.next() % 1_000_000) as f64 / 1e6;
        let exponent = (self.next() % 621) as i32 - 320;
        let magnitude: f64 = format!("{mantissa}e{exponent}").parse().unwrap();
        let sign = if self.next() % 2 == 0 { 1.0 } else { -1.0 };
        self.pick(&[0.0, f64::MIN_POSITIVE, 1e300, sign * magnitude])
    }

    fn name(&mut self) -> String {
        const PARTS: [&str; 10] = [
            "BASELINE",
            "DLRM-1",
            "q\"uote",
            "back\\slash",
            "tab\tnl\n",
            "ctl\u{1}\u{1f}",
            "λ€",
            "😀",
            "/",
            "",
        ];
        (0..1 + self.next() % 3)
            .map(|_| self.pick(&PARTS))
            .collect()
    }

    fn engine(&mut self) -> EngineStats {
        EngineStats {
            matmuls: self.u64(),
            weight_bypasses: self.u64(),
            weight_prefetches: self.u64(),
            full_weight_loads: self.u64(),
            occupancy_cycles: self.u64(),
            last_completion_cycle: self.u64(),
            total_macs: self.u64(),
            operand_stall_cycles: self.u64(),
            structural_stall_cycles: self.u64(),
        }
    }

    fn cpu(&mut self) -> CpuStats {
        CpuStats {
            cycles: self.u64(),
            retired_instructions: self.u64(),
            retired_matmuls: self.u64(),
            retired_tile_memory_ops: self.u64(),
            rob_full_stalls: self.u64(),
            rs_full_stalls: self.u64(),
            engine: self.engine(),
        }
    }

    fn power(&mut self) -> PowerReport {
        PowerReport {
            design: self.name(),
            area: rasa::power::AreaBreakdown {
                multipliers: self.f64(),
                adders: self.f64(),
                weight_buffers: self.f64(),
                pipeline: self.f64(),
                control: self.f64(),
            },
            energy: rasa::power::EnergyBreakdown {
                mac: self.f64(),
                weight_load: self.f64(),
                tile_io: self.f64(),
                static_clock: self.f64(),
            },
            core_cycles: self.u64(),
        }
    }

    fn report(&mut self) -> SimReport {
        SimReport {
            design: self.name(),
            workload: self.name(),
            core_cycles: self.u64(),
            simulated_core_cycles: self.u64(),
            simulated_matmuls: self.u64(),
            total_matmuls: self.u64(),
            runtime_seconds: self.f64(),
            cpu: self.cpu(),
            sched: rasa::cpu::SchedStats::default(),
            pipeline: PipelineStats::default(),
            power: self.power(),
        }
    }

    fn cache(&mut self) -> CacheStats {
        CacheStats {
            hits: self.u64(),
            misses: self.u64(),
            entries: self.usize(),
            evictions: self.u64(),
            capacity: self.usize(),
        }
    }

    fn health(&mut self) -> HealthStatus {
        HealthStatus {
            shard: self.u32(),
            designs: (0..self.next() % 3).map(|_| self.name()).collect(),
            served: self.u64(),
            cache: self.cache(),
        }
    }

    fn layer(&mut self) -> LayerSpec {
        if self.next() % 2 == 0 {
            LayerSpec::fc(self.name(), self.usize(), self.usize(), self.usize())
        } else {
            let dims: Vec<usize> = (0..9).map(|_| self.usize()).collect();
            let shape = ConvShape::new(
                dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6], dims[7], dims[8],
            );
            LayerSpec::conv(self.name(), shape)
        }
    }
}

/// The frame writer writes the tree API's compact bytes for `document`,
/// and the pull decoder accepts them exactly when the tree decoder does,
/// decoding to the same value. Returns the pull decoder's value.
fn differential<T>(document: &T) -> Option<T>
where
    T: ToJson + FromJson + PartialEq + Debug,
{
    let written = Frame::document(FrameKind::Response, document).payload;
    let text = document.to_json().to_string_compact();
    assert_eq!(String::from_utf8(written.clone()).unwrap(), text);
    let pulled = json::from_slice::<T>(&written).ok();
    let tree = T::from_json(&JsonValue::parse(&text).unwrap()).ok();
    assert_eq!(pulled, tree, "{text}");
    pulled
}

/// `document` survives both codecs unchanged.
fn round_trips<T>(document: &T)
where
    T: ToJson + FromJson + PartialEq + Debug,
{
    assert_eq!(differential(document).as_ref(), Some(document));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn declared_documents_agree_across_codecs(seed in any::<u64>()) {
        let mut draw = Draw(seed | 1);
        round_trips(&draw.engine());
        round_trips(&draw.cpu());
        let power = draw.power();
        round_trips(&power.area);
        round_trips(&power.energy);
        round_trips(&power);
        let report = draw.report();
        round_trips(&report);
        round_trips(&SimSummary {
            design: draw.name(),
            workload: draw.name(),
            core_cycles: draw.u64(),
            simulated_matmuls: draw.u64(),
            total_matmuls: draw.u64(),
            runtime_seconds: draw.f64(),
            ipc: draw.f64(),
            engine_bypass_rate: draw.f64(),
            area_mm2: draw.f64(),
            energy_joules: draw.f64(),
        });
        round_trips(&draw.cache());
        round_trips(&WireResponse {
            id: draw.u64(),
            shard: draw.u32(),
            batch_size: draw.usize(),
            report,
        });
        let code = draw.pick(&[
            ErrorCode::BadRequest,
            ErrorCode::UnknownDesign,
            ErrorCode::Simulation,
            ErrorCode::Unavailable,
            ErrorCode::Internal,
        ]);
        round_trips(&WireFailure::new(draw.u64(), code, draw.name()));
        let health = draw.health();
        round_trips(&health);
        let stats = RouterStats {
            routed: draw.u64(),
            remote_errors: draw.u64(),
            failovers: draw.u64(),
            dead_marked: draw.u64(),
            revived: draw.u64(),
            window_blocked: draw.u64(),
            cache_hits: draw.u64(),
            cache_misses: draw.u64(),
            per_shard: (0..draw.next() % 4).map(|_| draw.u64()).collect(),
        };
        round_trips(&stats);
        round_trips(&RouterHealth {
            stats,
            dead: (0..draw.next() % 3).map(|_| draw.u32()).collect(),
            shards: vec![health; (draw.next() % 3) as usize],
        });
        round_trips(&ServeStats {
            submitted: draw.u64(),
            completed: draw.u64(),
            batches: draw.u64(),
        });
        round_trips(&LatencySummary {
            count: draw.usize(),
            mean_seconds: draw.f64(),
            p50_seconds: draw.f64(),
            p90_seconds: draw.f64(),
            p99_seconds: draw.f64(),
            p999_seconds: draw.f64(),
            max_seconds: draw.f64(),
        });
        round_trips(&GenerationRecord {
            generation: draw.usize(),
            evaluations: draw.usize(),
            frontier_size: draw.usize(),
            best_normalized_runtime: draw.f64(),
        });
        // The hand-written codecs validate what they decode (a conv shape
        // must lower, a request must key), so boundary values may be
        // rejected: by both decoders alike.
        let layer = draw.layer();
        differential(&layer);
        differential(&WireRequest::new(draw.u64(), draw.name(), layer));
    }
}

/// Documents the writer never produced decode alike on both paths: members
/// in any order, the first of duplicates, unknown members skipped but
/// validated, and trailing bytes rejected.
#[test]
fn decoding_rules_hold_on_both_paths() {
    let cache = |text: &str| {
        let pulled = json::from_slice::<CacheStats>(text.as_bytes());
        let tree = JsonValue::parse(text).and_then(|value| CacheStats::from_json(&value));
        assert_eq!(pulled.is_ok(), tree.is_ok(), "{text}");
        pulled
            .ok()
            .filter(|stats| Some(stats) == tree.as_ref().ok())
    };
    let expected = CacheStats {
        hits: 1,
        misses: 2,
        entries: 3,
        evictions: 4,
        capacity: 5,
    };
    for accepted in [
        r#"{"capacity":5,"evictions":4,"entries":3,"misses":2,"hits":1}"#,
        r#"{"hits":1,"misses":2,"entries":3,"evictions":4,"capacity":5,"hits":9}"#,
        r#"{"hits":1,"misses":2,"x":{"y":[1,"é",null]},"entries":3,"evictions":4,"capacity":5}"#,
        " {\"hits\":1,\"misses\":2,\"entries\":3,\"evictions\":4,\"capacity\":5} \n",
    ] {
        assert_eq!(cache(accepted), Some(expected), "{accepted}");
    }
    for rejected in [
        r#"{"hits":1,"misses":2,"entries":3,"evictions":4,"capacity":5} x"#,
        r#"{"hits":1,"misses":2,"entries":3,"evictions":4,"capacity":5,"x":[1,]}"#,
        r#"{"hits":1,"misses":2,"entries":3,"evictions":4,"capacity":5,"x":"\q"}"#,
        r#"{"hits":-1,"misses":2,"entries":3,"evictions":4,"capacity":5}"#,
        r#"{"hits":1,"misses":2,"entries":3,"evictions":4}"#,
        r#"[1,2,3,4,5]"#,
    ] {
        assert_eq!(cache(rejected), None, "{rejected}");
    }
    let deep = format!(
        r#"{{"hits":1,"misses":2,"entries":3,"evictions":4,"capacity":5,"x":{}{}}}"#,
        "[".repeat(200),
        "]".repeat(200)
    );
    assert_eq!(cache(&deep), None, "the nesting cap covers skipped members");
}
