(* The measurement loop and the result line.

   A first repetition measures the peak heap; the reference repetition
   then runs the delivery checks and fixes the fingerprint, the
   operation count and every virtual-time metric. Then identical
   repetitions run back to back until [seconds] have passed, each from
   a compacted heap (the compaction is not timed). Host-time metrics are
   the 10th percentile over those repetitions; a repetition whose
   fingerprint differs from the reference fails the run.

   The traced mode alternates untraced and traced repetitions and
   reports per-layer numbers instead. *)

type workload = {
  name : string;
  rep : seed:int -> spans:Spans.t -> traced:bool -> check:bool -> Rep.t;
      (** [check]: run the delivery checks and the outage sweep; only
          the reference repetition needs them, the others are compared
          to it by fingerprint *)
}

let host_quantile = 0.10

(* Host times are reported as seconds on a host where the calibration
   kernel takes [kernel_ref_s]: the sum over a repetition's segments of
   each segment's 10th percentile across repetitions, times
   [kernel_ref_s / p10(kernel)], the kernel being timed before every
   repetition. The raw figures are printed in the log. *)
let kernel_ref_s = 0.005

(* Sum over segments of each segment's [host_quantile] across
   repetitions; [None] when the repetitions disagree on the segments. *)
let segment_quantile_sum (reps : float array array) =
  let n = Array.length reps.(0) in
  if Array.exists (fun r -> Array.length r <> n) reps then None
  else
    Some
      (Array.fold_left ( +. ) 0.0
         (Array.init n (fun j ->
              Samples.quantile (Array.map (fun r -> r.(j)) reps) host_quantile)))

(* Run one repetition from a compacted heap; the full result is
   returned only for the reference, the rest keep what the report
   needs so the harness's own heap stays flat. *)
let run_rep ?(check = false) w ~seed ~spans ~traced ~gc =
  Gc.compact ();
  let kernel = Hostclock.kernel () in
  Gc.compact ();
  Option.iter Gcpause.discard gc;
  let s0 = Gc.quick_stat () in
  let rep =
    if traced then Spans.span spans "rep" (fun () -> w.rep ~seed ~spans ~traced ~check)
    else w.rep ~seed ~spans ~traced ~check
  in
  let s1 = Gc.quick_stat () in
  let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  ( rep,
    {
      Rep.fp = rep.Rep.fingerprint;
      setup_segs = rep.Rep.setup;
      wall_segs = rep.Rep.wall;
      kernel;
      layer_counts = (if traced then rep.Rep.counts else []);
      alloc_words = words s1 -. words s0;
      minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
      pauses = (match gc with Some g -> Gcpause.pauses g | None -> [||]);
    } )

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  log : string list;  (** human-readable lines printed before the result *)
}

let quartiles name a =
  let s = Samples.sorted a in
  Printf.sprintf "%s: reps=%d p10=%.6g q1=%.6g median=%.6g q3=%.6g" name
    (Array.length s) (Samples.quantile_sorted s host_quantile)
    (Samples.quantile_sorted s 0.25) (Samples.quantile_sorted s 0.5)
    (Samples.quantile_sorted s 0.75)

(* End-to-end latency percentiles; every workload has at least ten
   samples beyond each. p90 is a per-layer metric: on gray-soak it falls
   inside the failover stalls, whose length moves with the seed. *)
let percentiles = [ ("latency_p50_ms", 0.50); ("latency_p99_ms", 0.99) ]

(* Printed to the log where the samples support them. *)
let tail_percentiles = [ ("p90", 0.90); ("p99", 0.99); ("p999", 0.999) ]

let run w ~seed ~seconds ~trace =
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let untraced = Spans.create ~enabled:false () in
  (* A plain repetition runs first, so the process's peak heap so far
     is its; the reference, with the checks, follows. *)
  let _, first = run_rep w ~seed ~spans:untraced ~traced:false ~gc:None in
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8) /. 1048576.0
  in
  let r0, _ = run_rep ~check:true w ~seed ~spans:untraced ~traced:false ~gc:None in
  let mismatches = ref 0 in
  let check (m : Rep.measured) = if m.Rep.fp <> r0.Rep.fingerprint then incr mismatches in
  check first;
  let spans = Spans.create ~sampled:Layer_report.sampled_spans ~enabled:true () in
  let gc = if trace then Some (Gcpause.start ()) else None in
  let plain = ref [] and traced = ref [] in
  let t_end = Hostclock.now () +. seconds in
  let i = ref 0 in
  while Hostclock.now () < t_end || !plain = [] || (trace && !traced = []) do
    let tr = trace && !i land 1 = 1 in
    let _, m =
      if tr then run_rep w ~seed ~spans ~traced:true ~gc
      else run_rep w ~seed ~spans:untraced ~traced:false ~gc:None
    in
    check m;
    if tr then traced := m :: !traced else plain := m :: !plain;
    incr i
  done;
  let plain = Array.of_list (List.rev !plain) and traced = Array.of_list (List.rev !traced) in
  let col f a = Array.map f a in
  let total a = Array.fold_left ( +. ) 0.0 a in
  let wall = col (fun m -> total m.Rep.wall_segs) plain in
  let setup = col (fun m -> total m.Rep.setup_segs) plain in
  let kernel = col (fun m -> m.Rep.kernel) plain in
  let scale = kernel_ref_s /. Samples.quantile kernel host_quantile in
  let seg_wall = segment_quantile_sum (col (fun m -> m.Rep.wall_segs) plain) in
  let seg_setup = segment_quantile_sum (col (fun m -> m.Rep.setup_segs) plain) in
  if seg_wall = None || seg_setup = None then incr mismatches;
  let seg = Option.value ~default:nan in
  say "perfbench %s seed=%d trace=%d" w.name seed (if trace then 1 else 0);
  say "%s" (quartiles "wall_s" wall);
  say "%s" (quartiles "setup_s" setup);
  say "%s" (quartiles "kernel_s" kernel);
  say "segments: wall %d, setup %d; sum of segment p10: wall %.6g setup %.6g"
    (Array.length r0.Rep.wall) (Array.length r0.Rep.setup) (seg seg_wall) (seg seg_setup);
  say "host scale (kernel_ref / kernel p10): %.6g" scale;
  let lat = r0.Rep.latencies in
  let n_lat = Array.length lat in
  say "latency.samples: %d" n_lat;
  let lat_sorted = Samples.sorted lat in
  List.iter
    (fun (name, q) ->
      if Samples.supported ~samples:n_lat q then
        say "latency %s: %.6g ms" name (Samples.quantile_sorted lat_sorted q)
      else say "latency %s: not supported by %d samples" name n_lat)
    tail_percentiles;
  say "operations: attempted=%d failed=%d" r0.Rep.attempted r0.Rep.failed;
  List.iter (fun f -> say "failure: %s" f) r0.Rep.failures;
  if !mismatches > 0 then
    say "MISMATCH: %d repetitions differ from the reference in fingerprint or segments"
      !mismatches;
  let unsupported =
    List.filter (fun (_, q) -> not (Samples.supported ~samples:n_lat q)) percentiles
  in
  List.iter
    (fun (name, _) -> say "UNSUPPORTED: %s needs more than %d samples" name n_lat)
    unsupported;
  let correct = r0.Rep.failed = 0 && !mismatches = 0 && unsupported = [] in
  let metrics =
    if not trace then
      [
        ("wall_s", seg seg_wall *. scale, "s");
        ("setup_s", seg seg_setup *. scale, "s");
        ("alloc_mwords", Samples.median (col (fun m -> m.Rep.alloc_words) plain) /. 1e6, "Mwords");
        ("peak_heap_mb", peak_heap_mb, "MB");
        ("msgs_per_vsec", r0.Rep.msgs /. r0.Rep.vsec, "msgs/s");
        ("kbytes_per_vsec", r0.Rep.bytes /. 1024.0 /. r0.Rep.vsec, "KB/s");
      ]
      @ List.map
          (fun (name, q) ->
            (name, (if Samples.supported ~samples:n_lat q then Samples.quantile_sorted lat_sorted q else nan), "ms"))
          percentiles
      @ [
          ("outage_ms", Samples.median r0.Rep.outages, "ms");
          ( "ok_ratio",
            1.0 -. (float_of_int r0.Rep.failed /. float_of_int (max 1 r0.Rep.attempted)),
            "ratio" );
        ]
    else Layer_report.metrics ~plain ~traced ~spans ~lat_sorted
  in
  {
    correct;
    attempted = r0.Rep.attempted;
    failed = r0.Rep.failed;
    metrics;
    log = List.rev !log;
  }

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_line o =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_finite v then json_number v else "null") unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))
