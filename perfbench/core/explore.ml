(* mc-explore: the bounded model checker at a fixed depth, with the
   defaults of `totem_sim mc` (4 nodes, 2 nets, passive, full fault
   alphabet, 40 ms settle and hold, 500 ms quiesce) and wire bytes on.
   Every explored path is a fresh chaos-runner run, so cluster creation,
   settle time and repeated prefixes dominate; protocol load is small.
   Set-up is the explorer's gap calibration; the measured window is
   [Explorer.explore] with that gap. *)

module Cluster = Totem_cluster.Cluster
module Campaign = Totem_chaos.Campaign
module Explorer = Totem_chaos.Explorer
module Vtime = Totem_engine.Vtime

let nodes = 4
let depth = 2

let config ~seed =
  Explorer.make ~num_nodes:nodes ~num_nets:2 ~style:Totem_rrp.Style.Passive ~seed
    ~wire:true ~depth ~alphabet:(Explorer.default_alphabet ~num_nets:2)
    ~settle:(Vtime.ms 40) ~hold:(Vtime.ms 40) ~quiesce:(Vtime.ms 500) ()

(* Every run carries the same bursts, whatever its path: per node, the
   due instant of each message in submission order. *)
let dues cfg ~gap =
  match (Explorer.leaf_campaign cfg ~gap []).Campaign.traffic with
  | Campaign.Bursts bs ->
    Array.init nodes (fun node ->
        List.filter (fun (n, _, _, _) -> n = node) bs
        |> List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare a b)
        |> List.concat_map (fun (_, _, count, at) -> List.init count (fun _ -> at)))
  | Campaign.Saturate _ -> invalid_arg "mc-explore: explorer traffic is not bursts"

type run = { c : Cluster.t; obs : Observe.t }

let rep ~seed ~spans ~traced ~check =
  let layers = Layers.create () in
  let cfg = config ~seed in
  let setup = Samples.Floats.create () and wall = Samples.Floats.create () in
  let laps = Hostclock.laps () in
  let gap = Spans.span spans "explorer.calibrate" (fun () -> Explorer.calibrated_gap cfg) in
  Hostclock.lap laps setup;
  let cfg = { cfg with Explorer.gap = Some gap } in
  let dues = dues cfg ~gap in
  let fp = Rep.Fp.create () in
  let finished = ref [] in
  let current = ref None in
  let vsec = ref 0.0 in
  (* A run ends when the next one is prepared, or when exploring ends.
     Only its counters are read here; the checks wait until the
     measured window has closed. *)
  let close_run () =
    match !current with
    | None -> ()
    | Some r ->
      current := None;
      Spans.leave spans "runner.run";
      Spans.enter spans;
      let until = Cluster.now r.c in
      Layers.cluster layers r.c;
      vsec := !vsec +. Vtime.to_float_sec until;
      finished := (r.obs, until) :: !finished;
      Spans.leave spans "bench.check"
  in
  let prepare c =
    close_run ();
    Hostclock.lap laps wall;
    let obs = Observe.create ~nodes ~check in
    Array.iteri
      (fun node ds -> List.iter (fun at -> Observe.offer obs ~origin:node ~due:at) ds)
      dues;
    Observe.on_deliver obs spans c;
    if traced then begin
      Layers.subscribe layers (Cluster.telemetry c);
      Layers.install_encoder layers spans c
    end;
    current := Some { c; obs };
    Spans.enter spans
  in
  let o =
    Spans.span spans "explorer.explore" (fun () ->
        let o = Explorer.explore ~prepare cfg in
        close_run ();
        o)
  in
  Hostclock.lap laps wall;
  let runs =
    Spans.span spans "bench.check" (fun () ->
        List.rev_map
          (fun (obs, until) ->
            Observe.fingerprint obs fp;
            if check then begin
              Checker.finish (Observe.checker obs);
              (obs, Observe.outage_ms obs ~until)
            end
            else (obs, nan))
          !finished)
  in
  let s = o.Explorer.o_stats in
  let k = layers.Layers.counts in
  let found = Option.is_some o.Explorer.o_found in
  Rep.Counts.addi k "cluster.creates" (List.length runs + 1);
  Rep.Counts.addi k "runner.runs" (List.length runs);
  Rep.Counts.addi k "runner.violations" (if found then 1 else 0);
  Rep.Counts.addi k "explorer.total_leaves" s.Explorer.total_leaves;
  Rep.Counts.addi k "explorer.leaves_explored" s.Explorer.leaves_explored;
  Rep.Counts.addi k "explorer.leaves_pruned" s.Explorer.leaves_pruned;
  Rep.Counts.addi k "explorer.interior_runs" s.Explorer.interior_runs;
  Rep.Counts.addi k "explorer.distinct_states" s.Explorer.distinct_states;
  if traced then Layers.replay layers spans ~max_node:(nodes - 1);
  Layers.finish layers;
  Layers.fingerprint layers fp;
  List.iter (Rep.Fp.int fp)
    [ gap; s.Explorer.total_leaves; s.Explorer.leaves_explored; s.Explorer.leaves_pruned;
      s.Explorer.interior_runs; s.Explorer.distinct_states ];
  (* Path accounting: one operation per leaf, each either explored or
     pruned, and no violating path. *)
  let unaccounted =
    if found then 1
    else abs (s.Explorer.total_leaves - s.Explorer.leaves_explored - s.Explorer.leaves_pruned)
  in
  let checkers = List.map (fun (obs, _) -> Observe.checker obs) runs in
  let sum f = List.fold_left (fun a x -> a + f x) 0 in
  {
    Rep.fingerprint = Rep.Fp.digest fp;
    setup = Samples.Floats.to_array setup;
    wall = Samples.Floats.to_array wall;
    attempted = sum Checker.attempted checkers + s.Explorer.total_leaves;
    failed = sum Checker.failed checkers + unaccounted;
    failures =
      List.concat_map
        (fun ch -> List.map (Format.asprintf "%a" Checker.pp_failure) (Checker.failures ch))
        checkers
      @ (if found then [ "the explorer found a violating path" ] else []);
    vsec = !vsec;
    msgs = float_of_int (sum (fun (o, _) -> o.Observe.msgs) runs) /. float_of_int nodes;
    bytes = float_of_int (sum (fun (o, _) -> o.Observe.bytes) runs) /. float_of_int nodes;
    latencies =
      Array.concat (List.map (fun (o, _) -> Samples.Floats.to_array o.Observe.latencies) runs);
    outages = Array.of_list (List.map snd runs);
    counts = Rep.Counts.to_list k;
  }
