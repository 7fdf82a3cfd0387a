(* gray-soak: an open loop in virtual time through gray and hard
   failures. Every node offers a 512 B message every 2 ms (2000 msgs/s
   in all, well below saturation); latency counts from the instant a
   message was due, so flow-control deferral is included. One
   repetition is one chaos-runner campaign: passive replication with
   reinstatement, wire bytes on, the parallel core on one domain, the
   invariant monitors and the flight recorder armed.

   Phases (virtual ms): clean; Gilbert-Elliott loss on net 0 (400-700);
   net 0 loses every frame (800-1400), long enough for the nodes to
   condemn it, and the fault then lifts without an administrator heal,
   so the net returns through probation; corruption on net 1
   (2000-2300); node 3 crashes (2500) and recovers (2800). The measured
   window opens at 100 ms; the campaign ends at 3200 ms and the runner
   then heals and quiesces for 500 ms. *)

module Cluster = Totem_cluster.Cluster
module Campaign = Totem_chaos.Campaign
module Runner = Totem_chaos.Runner
module Vtime = Totem_engine.Vtime
module Sim = Totem_engine.Sim

let nodes = 4
let size = 512
let interval = Vtime.ms 2
let traffic_from = Vtime.ms 10
let open_at = Vtime.ms 100
let probe_every = Vtime.ms 25
let duration = Vtime.ms 3200
let quiesce = Vtime.ms 500
let crashed = 3
let crash_at = Vtime.ms 2500
let recover_at = Vtime.ms 2800

(* The crashing node stops offering shortly before its crash, so all it
   offered is ordered before it goes down, and resumes once it has
   had time to rejoin. *)
let silent_from = Vtime.ms 2450
let silent_until = Vtime.ms 2900

let steps =
  let at ms op = { Campaign.at = Vtime.ms ms; op } in
  [
    at 400 (Campaign.Set_burst_loss (0, 0.05, 0.3));
    at 700 (Campaign.Set_burst_loss (0, 0.0, 1.0));
    at 800 (Campaign.Set_loss (0, 1.0));
    at 1400 (Campaign.Set_loss (0, 0.0));
    at 2000 (Campaign.Set_corrupt (1, 0.02));
    at 2300 (Campaign.Set_corrupt (1, 0.0));
    at 2500 (Campaign.Crash crashed);
    at 2800 (Campaign.Recover crashed);
  ]

let campaign ~seed =
  Campaign.make ~num_nodes:nodes ~num_nets:2 ~style:Totem_rrp.Style.Passive ~seed
    ~duration ~quiesce ~traffic:(Campaign.Bursts []) ~wire:true ~reinstate:true steps

(* Node [node]'s k-th offer is due at [traffic_from + node * interval/4
   + k * interval]. *)
let install_traffic c obs =
  for node = 0 to nodes - 1 do
    let sim = Cluster.node_sim c node in
    let srp = Cluster.srp (Cluster.node c node) in
    let rec tick () =
      let now = Sim.now sim in
      if Vtime.( < ) now duration then begin
        if not (node = crashed && Vtime.( >= ) now silent_from && Vtime.( < ) now silent_until)
        then begin
          Observe.offer obs ~origin:node ~due:now;
          Totem_srp.Srp.submit srp ~size ()
        end;
        ignore (Sim.schedule sim ~delay:interval tick)
      end
    in
    ignore
      (Sim.schedule_at sim ~time:(Vtime.add traffic_from (node * interval / nodes)) tick)
  done;
  (* A new incarnation of the crashed node starts once it is down. *)
  ignore
    (Sim.schedule_at (Cluster.sim c) ~time:(Vtime.add crash_at (Vtime.ms 1)) (fun () ->
         Checker.rejoin (Observe.checker obs) ~node:crashed))

let rep ~seed ~spans ~traced ~check =
  let layers = Layers.create () in
  let obs = Observe.create ~nodes ~check in
  Observe.set_window obs ~w0:open_at ~w1:(Vtime.add duration quiesce);
  let cluster = ref None in
  let setup = Samples.Floats.create () and wall = Samples.Floats.create () in
  let laps = Hostclock.laps () in
  let t0 = laps.Hostclock.last in
  let prepare c =
    Spans.add spans "cluster.create" (Hostclock.now () -. t0);
    Hostclock.lap laps setup;
    cluster := Some c;
    install_traffic c obs;
    Observe.on_deliver obs spans c;
    if traced then begin
      Layers.subscribe layers (Cluster.telemetry c);
      Layers.install_encoder layers spans c
    end
  in
  (* A host-time segment per 25 ms of virtual time: the chaos runner
     already stops on that grid, so the probes add no boundary. *)
  let probes =
    List.init
      (Vtime.add duration quiesce / probe_every)
      (fun i ->
        let at = (i + 1) * probe_every in
        (at, fun _ -> Hostclock.lap laps (if Vtime.( <= ) at open_at then setup else wall)))
  in
  let result =
    Spans.span spans "runner.run" (fun () ->
        Runner.run ~sim_domains:1 ~prepare ~probes (campaign ~seed))
  in
  Hostclock.lap laps wall;
  let c = Option.get !cluster in
  let checker = Observe.checker obs in
  Spans.enter spans;
  if check then Checker.finish ~complete:true checker;
  Layers.cluster layers c;
  let violations = List.length result.Runner.violations in
  let k = layers.Layers.counts in
  Rep.Counts.addi k "cluster.creates" 1;
  Rep.Counts.addi k "runner.runs" 1;
  Rep.Counts.addi k "runner.violations" violations;
  Layers.finish layers;
  let fp = Rep.Fp.create () in
  Observe.fingerprint obs fp;
  List.iter (Rep.Fp.int fp)
    [ result.Runner.events; result.Runner.delivered; result.Runner.finished_at; violations ];
  Rep.Fp.str fp (String.concat "|" (List.concat_map snd result.Runner.history));
  Layers.fingerprint layers fp;
  let outage = if check then Observe.outage_ms obs ~until:result.Runner.finished_at else nan in
  Spans.leave spans "bench.check";
  if traced then Layers.replay layers spans ~max_node:(nodes - 1);
  let window = Vtime.to_float_sec (Vtime.sub (Vtime.add duration quiesce) open_at) in
  {
    Rep.fingerprint = Rep.Fp.digest fp;
    setup = Samples.Floats.to_array setup;
    wall = Samples.Floats.to_array wall;
    attempted = Checker.attempted checker + 1;
    failed = Checker.failed checker + (if violations > 0 then 1 else 0);
    failures =
      List.map (Format.asprintf "%a" Checker.pp_failure) (Checker.failures checker)
      @ List.map (Format.asprintf "%a" Totem_chaos.Invariant.pp_violation)
          result.Runner.violations;
    vsec = window;
    msgs = float_of_int obs.Observe.msgs /. float_of_int nodes;
    bytes = float_of_int obs.Observe.bytes /. float_of_int nodes;
    latencies = Samples.Floats.to_array obs.Observe.latencies;
    outages = [| outage |];
    counts = Rep.Counts.to_list k;
  }
