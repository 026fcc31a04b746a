(* Every metric the benchmark prints, with its unit, in BENCHMARK.json's
   order.  End-to-end metrics come from untraced runs; per-layer metrics
   from the traced run.  A per-layer metric a workload's path never
   reaches reads 0 on that workload (README.md maps each one to the
   workload and end-to-end metric it explains). *)

let end_to_end =
  [ ("sim_ops_per_s", "ops/s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    (* fleet_lifetime *)
    ("experiments.fleet_self_s", "s");
    ("parallel.imbalance", "ratio");
    ("parallel.idle_share", "ratio");
    ("workload.self_s", "s");
    ("workload.epoch_ms_p50", "ms");
    ("workload.epoch_ms_p99", "ms");
    ("workload.epoch_samples", "count");
    ("device.write_stream_calls", "count");
    ("device.writes_per_stream_call", "writes/call");
    ("device.write_stream_s", "s");
    ("device.fast_path_share", "ratio");
    ("obs.observe_s", "s");
    ("obs.merge_s", "s");
    ("device.create_s", "s");
    ("flash.program_ns", "ns");
    ("ftl.write_stream_ns", "ns");
    ("device.write_stream_ns", "ns");
    ("workload.run_epoch_ns", "ns");
    ("experiments.fleet_ns", "ns");
    (* traffic_tail *)
    ("traffic.replay_self_s", "s");
    ("traffic.batch_us_p50", "us");
    ("traffic.batch_us_p99", "us");
    ("traffic.batch_samples", "count");
    ("device.read_calls", "count");
    ("device.read_ns", "ns");
    ("device.write_calls", "count");
    ("device.write_ns", "ns");
    ("device.bg_stats_calls", "count");
    ("device.bg_stats_ns", "ns");
    ("faults.inject_s", "s");
    ("ecc.fail_prob_ns", "ns");
    ("ecc.zero_tail_share", "ratio");
    ("traffic.generate_s", "s");
    ("flash.read_ns", "ns");
    ("ftl.read_ns", "ns");
    ("traffic.replay_ns", "ns");
    (* chaos_campaign *)
    ("difs.scrub_repairs", "count");
    ("difs.rebuilt_shares", "count");
    ("difs.live_repair_attempts", "count");
    ("difs.repair_success_ratio", "ratio");
    ("ftl.read_retries", "count");
    ("ftl.read_escalations", "count");
    ("flash.faults_injected", "count");
    ("difs.write_chunk_us", "us");
    ("difs.scrub_slice_us", "us");
    ("difs.recover_opage_us", "us");
    ("ftl.crash_rebuild_ms", "ms");
    (* every workload *)
    ("gc.minor_words_per_op", "words/op");
    ("gc.promoted_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("ftl.gc_runs", "count");
    ("ftl.relocated_opages", "count");
    ("ftl.write_amplification", "ratio");
    ("trace_overhead", "ratio");
    ("trace.composition_error", "ratio");
    ("failed_ratio", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer
