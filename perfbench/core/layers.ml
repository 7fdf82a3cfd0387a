(* Per-layer counts, read after each cluster run through the program's
   public accessors, plus the instruments a traced repetition adds: a
   telemetry subscriber, a timed wire encoder, and a replay of captured
   frames through the decoder and the CRC. *)

module Cluster = Totem_cluster.Cluster
module Counts = Rep.Counts
module Srp = Totem_srp.Srp
module Codec = Totem_srp.Codec
module Telemetry = Totem_engine.Telemetry
module Fabric = Totem_net.Fabric
module Network = Totem_net.Network
module Frame = Totem_net.Frame

type t = {
  counts : Counts.t;
  mutable rotations : (float * int) array;  (** merged rotation histogram *)
  mutable runs : int;
  mutable utilisation : float;  (** summed over runs *)
  mutable encode_caches : Codec.encode_cache list;
  mutable decode_hits : float;
  mutable decode_misses : float;
  captured : Frame.t array;  (** encoded frames kept for the replay *)
  mutable encodes : int;
}

let capture_slots = 2048

let create () =
  {
    counts = Counts.create ();
    rotations = [||];
    runs = 0;
    utilisation = 0.0;
    encode_caches = [];
    decode_hits = 0.0;
    decode_misses = 0.0;
    captured = Array.make capture_slots (Frame.make ~src:0 ~payload_bytes:0 (Frame.Opaque ""));
    encodes = 0;
  }

let gauge tel name =
  match Telemetry.find_metric tel name with
  | Some (Telemetry.Gauge read) -> read ()
  | _ -> 0.0

(* Deterministic counts of a finished cluster run. *)
let cluster t c =
  let k = t.counts in
  t.runs <- t.runs + 1;
  Counts.addi k "engine.events" (Cluster.events_processed c);
  (match Cluster.exchange c with
  | Some ex ->
    let s = Totem_engine.Exchange.stats ex in
    Counts.addi k "exchange.windows_run" s.Totem_engine.Exchange.windows_run;
    Counts.addi k "exchange.windows_batched" s.Totem_engine.Exchange.windows_batched;
    Counts.addi k "exchange.windows_widened" s.Totem_engine.Exchange.windows_widened
  | None -> ());
  let fab = Cluster.fabric c in
  for net = 0 to Fabric.num_nets fab - 1 do
    let nw = Fabric.network fab net in
    Counts.addi k "net.frames_sent" (Network.frames_sent nw);
    Counts.addi k "net.frames_delivered" (Network.frames_delivered nw);
    Counts.addi k "net.wire_bytes" (Network.bytes_on_wire nw);
    Counts.addi k "net.frames_lost"
      (Network.frames_lost nw + Network.frames_burst_lost nw
     + Network.frames_dir_lost nw + Network.frames_faulted nw);
    for node = 0 to Fabric.num_nodes fab - 1 do
      Counts.addi k "net.nic_drops"
        (Totem_net.Nic.frames_dropped_buffer (Fabric.nic fab ~node ~net))
    done
  done;
  t.utilisation <-
    t.utilisation +. Totem_cluster.Metrics.network_utilisation c ~net:0;
  Cluster.iter_nodes c (fun n ->
      let srp = Cluster.srp n in
      let s = Srp.stats srp in
      Counts.addi k "srp.token_visits" s.Srp.token_visits;
      Counts.addi k "srp.packets_sent" s.Srp.sent_packets;
      Counts.addi k "srp.messages_sent" s.Srp.sent_messages;
      Counts.addi k "srp.rtr_requested" s.Srp.retransmissions_requested;
      Counts.addi k "srp.rtr_served" s.Srp.retransmissions_served;
      Counts.addi k "srp.token_retransmits" s.Srp.token_retransmits;
      Counts.addi k "srp.ring_changes" s.Srp.ring_changes;
      let d = Totem_engine.Stats.Histogram.dump (Srp.rotation_histogram srp) in
      if Array.length t.rotations = 0 then t.rotations <- Array.copy d
      else Array.iteri (fun i (le, n) -> t.rotations.(i) <- (le, snd t.rotations.(i) + n)) d;
      match Totem_rrp.Rrp.as_active (Cluster.rrp n) with
      | Some a ->
        for net = 0 to Fabric.num_nets fab - 1 do
          Counts.max k "rrp.problem_counter_max"
            (float_of_int (Totem_rrp.Active.problem_counter a ~net))
        done
      | None -> ());
  Counts.addi k "rrp.fault_reports" (List.length (Cluster.fault_reports c));
  let tel = Cluster.telemetry c in
  t.decode_hits <- t.decode_hits +. gauge tel "wire.decode_cache_hits";
  t.decode_misses <- t.decode_misses +. gauge tel "wire.decode_cache_misses"

(* Traced repetitions only, and only where telemetry is already active
   (the chaos runner's monitors subscribe), so adding an observer does
   not switch event construction on. *)
let subscribe t tel =
  let k = t.counts in
  ignore
    (Telemetry.subscribe tel (fun _ ev ->
         Counts.add k "telemetry.events" 1.0;
         match ev with
         | Telemetry.Net_fault_marked _ -> Counts.add k "rrp.condemnations" 1.0
         | Telemetry.Net_reinstated _ -> Counts.add k "rrp.reinstatements" 1.0
         | Telemetry.Problem_incr { count; _ }
         | Telemetry.Problem_threshold { count; _ } ->
           Counts.max k "rrp.problem_counter_max" (float_of_int count)
         | Telemetry.Recv_lag { behind; _ } ->
           Counts.max k "rrp.problem_counter_max" (float_of_int behind)
         | Telemetry.Frame_crc_reject _ -> Counts.add k "codec.crc_rejects" 1.0
         | _ -> ()))

(* Replace the cluster's wire encoder with a timed one over the same
   codec function, with a cache of the same kind. Every eighth encoded
   frame is kept for the decode and CRC replay. *)
let install_encoder t spans c =
  let cache = Codec.encode_cache () in
  t.encode_caches <- cache :: t.encode_caches;
  Fabric.set_wire_encoder (Cluster.fabric c) ~memoize:true (fun f ->
      let out = Spans.span spans "codec.encode" (fun () -> Codec.encode_frame ~cache f) in
      if t.encodes land 7 = 0 then
        t.captured.((t.encodes lsr 3) mod capture_slots) <- out;
      t.encodes <- t.encodes + 1;
      out)

let frame_image f =
  match f.Frame.payload with Frame.Bytes s -> Some s | _ -> None

(* Decode and checksum the captured frames, timed in bulk. *)
let replay t spans ~max_node =
  let frames =
    List.filter_map
      (fun f -> Option.map (fun s -> (f, s)) (frame_image f))
      (Array.to_list (Array.sub t.captured 0 (min capture_slots ((t.encodes + 7) / 8))))
  in
  let n = List.length frames in
  if n > 0 then begin
    let rounds = max 1 (20_000 / n) in
    let t0 = Hostclock.now () in
    Spans.span spans "codec.decode" (fun () ->
        for _ = 1 to rounds do
          List.iter
            (fun (f, _) ->
              match Codec.decode_frame ~max_node f with
              | Ok _ -> ()
              | Error _ -> failwith "captured frame failed to decode")
            frames
        done);
    let t1 = Hostclock.now () in
    let bytes = ref 0 in
    Spans.span spans "crc" (fun () ->
        for _ = 1 to rounds do
          List.iter
            (fun (_, s) ->
              bytes := !bytes + String.length s;
              ignore (Sys.opaque_identity (Totem_net.Crc32.digest s)))
            frames
        done);
    let t2 = Hostclock.now () in
    Counts.add t.counts "codec.decode_ns_per_frame"
      ((t1 -. t0) *. 1e9 /. float_of_int (rounds * n));
    Counts.add t.counts "codec.crc_ns_per_kb"
      ((t2 -. t1) *. 1e9 /. (float_of_int !bytes /. 1024.0))
  end

(* Fold the run-level accumulators into the counts. *)
let finish t =
  let k = t.counts in
  let ratio h m = if h +. m > 0.0 then h /. (h +. m) else 0.0 in
  Counts.addi k "cluster.runs" t.runs;
  if t.runs > 0 then
    Counts.add k "net.utilisation" (t.utilisation /. float_of_int t.runs);
  let sent = Counts.get k "srp.messages_sent" and pk = Counts.get k "srp.packets_sent" in
  Counts.add k "srp.msgs_per_packet" (if pk > 0.0 then sent /. pk else 0.0);
  let total = Array.fold_left (fun a (_, n) -> a + n) 0 t.rotations in
  let q p =
    (* Upper edge of the bucket holding the p-quantile. *)
    let target = p *. float_of_int total in
    let acc = ref 0 and res = ref 0.0 and found = ref false in
    Array.iter
      (fun (le, n) ->
        acc := !acc + n;
        if (not !found) && float_of_int !acc >= target && n > 0 then begin
          res := le;
          found := true
        end)
      t.rotations;
    !res
  in
  if total > 0 then begin
    Counts.add k "srp.rotation_p50_ms" (q 0.5);
    Counts.add k "srp.rotation_p99_ms" (q 0.99)
  end;
  Counts.addi k "codec.encode_calls" t.encodes;
  let eh, em =
    List.fold_left
      (fun (h, m) c ->
        let h', m' = Codec.encode_cache_stats c in
        (h + h', m + m'))
      (0, 0) t.encode_caches
  in
  Counts.add k "codec.encode_cache_hit_ratio" (ratio (float_of_int eh) (float_of_int em));
  Counts.add k "codec.decode_cache_hit_ratio" (ratio t.decode_hits t.decode_misses)

(* The counts that are a function of the seed alone, for fingerprints. *)
let fingerprint t fp =
  let deterministic = [ "engine."; "exchange."; "net.frames"; "net.wire_bytes"; "net.nic_drops";
                        "srp."; "rrp.fault_reports" ] in
  List.iter
    (fun (name, v) ->
      if List.exists (fun p -> String.starts_with ~prefix:p name) deterministic then begin
        Rep.Fp.str fp name;
        Rep.Fp.float fp v
      end)
    (Counts.to_list t.counts)
