(* saturate: the paper's Sec. 8 condition. A closed loop bound by flow
   control: every node always has a message ready, and SRP pulls the
   next one on each token visit. One repetition runs the style x size
   grid, one cluster per point, on the default (legacy) event loop with
   wire bytes and telemetry off. *)

module Cluster = Totem_cluster.Cluster
module Config = Totem_cluster.Config
module Style = Totem_rrp.Style
module Vtime = Totem_engine.Vtime

let nodes = 4

(* Active-passive needs 1 < k < nets, so its row runs on three nets. *)
let styles =
  [
    (Style.No_replication, 2);
    (Style.Active, 2);
    (Style.Passive, 2);
    (Style.Active_passive 2, 3);
  ]

let sizes = [ 100; 1024; 10240 ]
let grid = List.concat_map (fun s -> List.map (fun size -> (s, size)) sizes) styles

(* Virtual time per point: warm-up (set-up), then the measured window,
   both driven in fixed slices. *)
let warmup = Vtime.ms 40
let window = Vtime.ms 120
let slice = Vtime.ms 10

(* Each slice is one host-time segment, charged to [dst]. *)
let run_slices spans laps dst c ~until =
  let rec go () =
    let now = Cluster.now c in
    if Vtime.( < ) now until then begin
      let target = Vtime.min until (Vtime.add now slice) in
      Spans.span spans "cluster.run" (fun () -> Cluster.run_until c target);
      Hostclock.lap laps dst;
      go ()
    end
  in
  go ()

let point ~seed ~spans ~check ~layers ~fp ~setup ~wall i ((style, nets), size) =
  let config = Config.make ~num_nodes:nodes ~num_nets:nets ~style ~seed:((seed * 64) + i) () in
  let laps = Hostclock.laps () in
  let c = Spans.span spans "cluster.create" (fun () -> Cluster.create config) in
  let obs = Observe.create ~nodes ~check in
  Observe.set_window obs ~w0:warmup ~w1:(Vtime.add warmup window);
  for node = 0 to nodes - 1 do
    let srp = Cluster.srp (Cluster.node c node) in
    let sim = Cluster.node_sim c node in
    Totem_srp.Srp.set_supplier srp (fun () ->
        Spans.enter spans;
        Observe.offer obs ~origin:node ~due:(Totem_engine.Sim.now sim);
        Spans.leave spans "bench.hooks";
        Some (size, Totem_srp.Message.Blob))
  done;
  Observe.on_deliver obs spans c;
  Spans.span spans "cluster.start" (fun () -> Cluster.start c);
  Hostclock.lap laps setup;
  run_slices spans laps setup c ~until:warmup;
  run_slices spans laps wall c ~until:(Vtime.add warmup window);
  let outage =
    Spans.span spans "bench.check" (fun () ->
        Layers.cluster layers c;
        Observe.fingerprint obs fp;
        Rep.Fp.int fp (Cluster.events_processed c);
        if check then begin
          Checker.finish (Observe.checker obs);
          Observe.outage_ms obs ~until:(Vtime.add warmup window)
        end
        else nan)
  in
  (obs, outage)

let rep ~seed ~spans ~traced:_ ~check =
  let layers = Layers.create () in
  let fp = Rep.Fp.create () in
  let setup = Samples.Floats.create () and wall = Samples.Floats.create () in
  let points = List.mapi (point ~seed ~spans ~check ~layers ~fp ~setup ~wall) grid in
  Rep.Counts.addi layers.Layers.counts "cluster.creates" (List.length grid);
  Layers.finish layers;
  Layers.fingerprint layers fp;
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 points in
  let checkers = List.map (fun (o, _) -> Observe.checker o) points in
  let failures =
    List.concat_map
      (fun ch -> List.map (Format.asprintf "%a" Checker.pp_failure) (Checker.failures ch))
      checkers
  in
  {
    Rep.fingerprint = Rep.Fp.digest fp;
    setup = Samples.Floats.to_array setup;
    wall = Samples.Floats.to_array wall;
    attempted = List.fold_left (fun a ch -> a + Checker.attempted ch) 0 checkers;
    failed = List.fold_left (fun a ch -> a + Checker.failed ch) 0 checkers;
    failures;
    vsec = float_of_int (List.length grid) *. Vtime.to_float_sec window;
    msgs = sum (fun (o, _) -> float_of_int o.Observe.msgs) /. float_of_int nodes;
    bytes = sum (fun (o, _) -> float_of_int o.Observe.bytes) /. float_of_int nodes;
    latencies =
      Array.concat
        (List.map (fun (o, _) -> Samples.Floats.to_array o.Observe.latencies) points);
    outages = Array.of_list (List.map snd points);
    counts = Rep.Counts.to_list layers.Layers.counts;
  }
