(* The traced mode's per-layer metrics. Counts come from the program's
   public accessors (deterministic, equal in every repetition); times
   come from the spans of the traced repetitions, averaged per
   repetition; GC pauses from the runtime's event ring. *)

let spans_reported =
  [
    "rep"; "cluster.create"; "cluster.start"; "cluster.run"; "runner.run";
    "explorer.calibrate"; "explorer.explore"; "codec.encode"; "codec.decode";
    "crc"; "bench.hooks"; "bench.check";
  ]

(* The spans whose duration quantiles are reported. *)
let sampled_spans = [ "cluster.run"; "runner.run" ]

let self_name span =
  "self." ^ String.map (fun c -> if c = '.' then '_' else c) span ^ "_s"

(* Counted per repetition, read from the traced repetitions' counters. *)
let counted =
  [
    ("engine.events", "count");
    ("exchange.windows_run", "count");
    ("exchange.windows_batched", "count");
    ("exchange.windows_widened", "count");
    ("telemetry.events", "count");
    ("net.frames_sent", "count");
    ("net.frames_delivered", "count");
    ("net.wire_bytes", "bytes");
    ("net.frames_lost", "count");
    ("net.nic_drops", "count");
    ("net.utilisation", "ratio");
    ("codec.encode_calls", "count");
    ("codec.decode_ns_per_frame", "ns");
    ("codec.crc_ns_per_kb", "ns/KB");
    ("codec.encode_cache_hit_ratio", "ratio");
    ("codec.decode_cache_hit_ratio", "ratio");
    ("codec.crc_rejects", "count");
    ("srp.token_visits", "count");
    ("srp.packets_sent", "count");
    ("srp.msgs_per_packet", "ratio");
    ("srp.rtr_requested", "count");
    ("srp.rtr_served", "count");
    ("srp.token_retransmits", "count");
    ("srp.ring_changes", "count");
    ("srp.rotation_p50_ms", "ms");
    ("srp.rotation_p99_ms", "ms");
    ("rrp.condemnations", "count");
    ("rrp.reinstatements", "count");
    ("rrp.problem_counter_max", "count");
    ("rrp.fault_reports", "count");
    ("cluster.creates", "count");
    ("runner.runs", "count");
    ("runner.violations", "count");
    ("explorer.total_leaves", "count");
    ("explorer.leaves_explored", "count");
    ("explorer.leaves_pruned", "count");
    ("explorer.interior_runs", "count");
    ("explorer.distinct_states", "count");
  ]

(* Every per-layer metric name with its unit, in output order. *)
let names =
  [ ("engine.events_per_s", "1/s") ]
  @ counted
  @ [
      ("gc.words_per_event", "words");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.pause_total_s", "s");
      ("gc.pause_p99_ms", "ms");
      ("codec.encode_ns_per_frame", "ns");
      ("cluster.create_ms", "ms");
      ("cluster.run_slice_p50_ms", "ms");
      ("cluster.run_slice_p99_ms", "ms");
      ("runner.run_p50_ms", "ms");
      ("explorer.calibrate_s", "s");
      ("latency.samples", "count");
      ("latency.p90_ms", "ms");
      ("trace.overhead_s", "s");
      ("trace.unattributed_share", "ratio");
    ]
  @ List.map (fun s -> (self_name s, "s")) spans_reported

let metrics ~(plain : Rep.measured array)
    ~(traced : Rep.measured array) ~spans ~lat_sorted =
  let ntr = float_of_int (max 1 (Array.length traced)) in
  let count name =
    let vals =
      Array.map
        (fun (m : Rep.measured) ->
          Option.value ~default:0.0 (List.assoc_opt name m.Rep.layer_counts))
        traced
    in
    if Array.length vals = 0 then 0.0 else Samples.median vals
  in
  let p10 f a = Samples.quantile (Array.map f a) 0.10 in
  let sum = Array.fold_left ( +. ) 0.0 in
  let total (m : Rep.measured) = sum m.Rep.setup_segs +. sum m.Rep.wall_segs in
  let events = count "engine.events" in
  let span_stat name = Spans.find spans name in
  let span_samples name =
    match span_stat name with
    | Some { Spans.samples = Some a; _ } -> Samples.Floats.to_array a
    | _ -> [||]
  in
  let span_q name q =
    let a = span_samples name in
    if Array.length a = 0 then 0.0 else Samples.quantile a q *. 1e3
  in
  let span_mean_ms name =
    match span_stat name with
    | Some s when s.Spans.count > 0 -> s.Spans.total /. float_of_int s.Spans.count *. 1e3
    | _ -> 0.0
  in
  let self name =
    match span_stat name with Some s -> s.Spans.self /. ntr | None -> 0.0
  in
  let pauses = Array.concat (Array.to_list (Array.map (fun (m : Rep.measured) -> m.pauses) traced)) in
  let encode_calls = count "codec.encode_calls" in
  let rep_total = match span_stat "rep" with Some s -> s.Spans.total | None -> 0.0 in
  let value name =
    match name with
    | "engine.events_per_s" -> events /. p10 total plain
    | "gc.words_per_event" ->
      Samples.median (Array.map (fun (m : Rep.measured) -> m.alloc_words) plain)
      /. Float.max 1.0 events
    | "gc.minor_collections" ->
      Samples.median (Array.map (fun (m : Rep.measured) -> float_of_int m.minor_gcs) plain)
    | "gc.major_collections" ->
      Samples.median (Array.map (fun (m : Rep.measured) -> float_of_int m.major_gcs) plain)
    | "gc.pause_total_s" -> Array.fold_left ( +. ) 0.0 pauses *. 1e-3 /. ntr
    | "gc.pause_p99_ms" -> if Array.length pauses = 0 then 0.0 else Samples.quantile pauses 0.99
    | "codec.encode_ns_per_frame" ->
      (match span_stat "codec.encode" with
       | Some s when encode_calls > 0.0 -> s.Spans.total /. ntr /. encode_calls *. 1e9
       | _ -> 0.0)
    | "cluster.create_ms" -> span_mean_ms "cluster.create"
    | "cluster.run_slice_p50_ms" -> span_q "cluster.run" 0.5
    | "cluster.run_slice_p99_ms" -> span_q "cluster.run" 0.99
    | "runner.run_p50_ms" -> span_q "runner.run" 0.5
    | "explorer.calibrate_s" -> span_mean_ms "explorer.calibrate" *. 1e-3
    | "latency.samples" -> float_of_int (Array.length lat_sorted)
    | "latency.p90_ms" -> Samples.quantile_sorted lat_sorted 0.90
    | "trace.overhead_s" -> p10 total traced -. p10 total plain
    | "trace.unattributed_share" -> if rep_total > 0.0 then self "rep" *. ntr /. rep_total else 0.0
    | n when String.length n > 5 && String.sub n 0 5 = "self." ->
      let span = List.find (fun s -> self_name s = n) spans_reported in
      self span
    | n -> count n
  in
  List.map (fun (name, unit) -> (name, value name, unit)) names
